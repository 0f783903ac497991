"""Thread-parallel lattice execution.

FASTOD's per-level work — partition products and validation scans —
has no cross-node dependencies, so it shards cleanly across threads
(the compiled kernels and NumPy's sorts release the GIL).  This package
supplies:

* :class:`repro.parallel.pool.WorkerPool` — a persistent thread pool
  bound to one encoded relation;
* :func:`repro.parallel.pool.resolve_workers` — the one place the
  ``workers`` knob (``FastODConfig.workers``, CLI ``--workers``, the
  ``REPRO_WORKERS`` environment variable) is interpreted;
* the serial-fallback thresholds ``PARALLEL_MIN_GROUPED_ROWS`` /
  ``PARALLEL_MIN_ROWS`` shared by every consumer, so tiny inputs never
  pay dispatch overhead.

Results are byte-identical to the serial engine by construction: the
coordinator owns all candidate-set mutations and merges chunk results
in deterministic order (see DESIGN.md, "Parallel execution").
"""

from repro.parallel.pool import (
    CHUNKS_PER_WORKER,
    PARALLEL_MIN_GROUPED_ROWS,
    PARALLEL_MIN_ROWS,
    PoolDispatchError,
    WorkerPool,
    WorkerTaskError,
    resolve_workers,
)

__all__ = [
    "CHUNKS_PER_WORKER",
    "PARALLEL_MIN_GROUPED_ROWS",
    "PARALLEL_MIN_ROWS",
    "PoolDispatchError",
    "WorkerPool",
    "WorkerTaskError",
    "resolve_workers",
]
