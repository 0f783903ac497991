"""Pluggable executors: where planner-emitted tasks actually run.

An executor resolves the typed work units of :mod:`repro.engine.tasks`
plus mask-derived validations (the hybrid escalation waves and the
bidirectional/pointwise sweeps) — batches of independent lattice
work.  A single dependency check is one linear scan with nothing to
shard, so the validator, detector and incremental engine run theirs on
the calling thread without an executor.  The batch loops themselves
live once in :mod:`repro.parallel.pool`; two executors decide where
they run:

* :class:`SerialExecutor` runs each loop inline on the coordinator,
  consulting the :class:`~repro.engine.budget.DeadlineBudget` between
  tasks.
* :class:`PoolExecutor` shards big batches over a thread
  :class:`~repro.parallel.WorkerPool` and keeps the serial-fallback
  policy in one place: a dispatch only leaves the coordinator when it
  has at least two tasks and enough grouped rows (or relation rows,
  for mask-derived validations) to amortize the dispatch.
  Sub-threshold batches run inline, and so do the unfinished tasks of
  a dispatch in which a chunk failed.

Neither executor picks a kernel backend: the loops dispatch to
whatever :func:`repro.kernels.activate` pinned in the caller's context,
and pool chunks inherit that context.
"""

from __future__ import annotations

import time
from functools import partial
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple

from repro.engine.budget import DeadlineBudget
from repro.engine.tasks import ProductTask
from repro.engine.telemetry import ExecutorTelemetry
from repro.kernels import thresholds
from repro.obs import events
from repro.parallel.pool import (
    BatchLoop,
    PoolDispatchError,
    ScanTask,
    ValidationTask,
    WorkerPool,
    product_loop,
    resolve_workers,
    scan_loop,
    validation_loop,
)
from repro.partitions.cache import PartitionCache
from repro.partitions.partition import StrippedPartition
from repro.relation.encoding import EncodedRelation


class SerialExecutor:
    """Runs every task inline on the coordinator."""

    name = "serial"

    def __init__(self, relation: EncodedRelation,
                 telemetry: Optional[ExecutorTelemetry] = None):
        self._relation = relation
        self._cache: Optional[PartitionCache] = None
        self.telemetry = telemetry or ExecutorTelemetry("serial", 1)

    def close(self) -> None:
        pass

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def _inline(self, phase: str, loop: BatchLoop, tasks: Sequence,
                budget: DeadlineBudget) -> Tuple[Dict, bool]:
        """Run ``loop`` over ``tasks`` on this thread; returns its
        results and whether the budget cut it short."""
        started = time.perf_counter()
        results = loop(tasks, budget.hit)
        self.telemetry.record(phase, len(results), False,
                              time.perf_counter() - started)
        return results, len(results) < len(tasks)

    def _validation_loop(self) -> BatchLoop:
        if self._cache is None:
            self._cache = PartitionCache(self._relation)
        return partial(validation_loop, self._relation, self._cache)

    # -- task batches ---------------------------------------------------
    def run_products(self, parents: Dict[int, StrippedPartition],
                     tasks: Sequence[ProductTask],
                     budget: DeadlineBudget
                     ) -> Tuple[Dict[int, StrippedPartition], bool]:
        return self._inline("products", partial(product_loop, parents),
                            tasks, budget)

    def run_scans(self, contexts: Dict[Hashable, StrippedPartition],
                  tasks: Sequence[ScanTask], budget: DeadlineBudget,
                  phase: str = "scans"
                  ) -> Tuple[Dict[Hashable, bool], bool]:
        return self._inline(
            phase, partial(scan_loop, self._relation.ranks, contexts),
            tasks, budget)

    def run_validations(self, tasks: Sequence[ValidationTask],
                        budget: DeadlineBudget, phase: str = "wave"
                        ) -> Tuple[Dict[Hashable, bool], bool]:
        return self._inline(phase, self._validation_loop(), tasks, budget)


class PoolExecutor(SerialExecutor):
    """Shards big task batches over a thread :class:`WorkerPool`.

    The pool starts lazily on the first dispatch that crosses the
    serial-fallback thresholds of :mod:`repro.kernels.thresholds`
    (read at dispatch time); ``min_grouped_rows`` overrides the
    grouped-rows floor.  An injected ``pool`` is reused and never shut
    down by :meth:`close`; an owned pool is shut down there.

    When a chunk fails, the acknowledged results of the dispatch are
    kept, the rest of the batch re-runs inline through the same loop,
    and the telemetry counts one retry and marks the executor degraded.
    """

    name = "pool"

    def __init__(self, relation: EncodedRelation, workers: int,
                 pool: Optional[WorkerPool] = None,
                 min_grouped_rows: Optional[int] = None):
        if workers < 2:
            raise ValueError("PoolExecutor needs workers >= 2; use "
                             "SerialExecutor for serial runs")
        super().__init__(relation, ExecutorTelemetry("pool", workers))
        self.workers = workers
        self._injected = pool
        self._owned: Optional[WorkerPool] = None
        self._min_grouped_rows = min_grouped_rows

    def close(self) -> None:
        """Shut down the owned pool, if one was started; injected pools
        belong to the caller."""
        if self._owned is not None:
            self._owned.shutdown()
            self._owned = None

    def _pool(self) -> WorkerPool:
        if self._injected is not None:
            return self._injected
        if self._owned is None:
            self._owned = WorkerPool(self.workers)
        return self._owned

    def _small(self, n_tasks: int, grouped_rows: int) -> bool:
        """Whether a batch is too small to leave the coordinator."""
        floor = self._min_grouped_rows
        if floor is None:
            floor = thresholds.PARALLEL_MIN_GROUPED_ROWS
        return n_tasks < 2 or grouped_rows < floor

    def _note_failure(self, phase: str, rerun: int) -> None:
        """Bill a failed dispatch whose ``rerun`` unfinished tasks run
        inline."""
        self.telemetry.record_retry()
        self.telemetry.mark_degraded()
        # emitted inside the job's span context, so the line carries
        # trace_id/span_id and joins /jobs/{id}/trace
        events.emit("executor.dispatch_failed", phase=phase,
                    rerun=rerun, workers=self.workers)

    def _pooled(self, phase: str, tasks: Sequence, key: Callable,
                loop: BatchLoop, budget: DeadlineBudget,
                dispatch: Callable[[WorkerPool], Tuple[Dict, bool]]
                ) -> Tuple[Dict, bool]:
        """Run one batch on the pool (``dispatch(pool)``).  If a chunk
        fails, keep what the other chunks finished and run ``loop``
        inline over the remaining tasks."""
        started = time.perf_counter()
        try:
            results, timed_out = dispatch(self._pool())
        except PoolDispatchError as error:
            results = {}
            for chunk in error.partial_results:
                results.update(chunk["results"])
            remaining: List = [t for t in tasks if key(t) not in results]
            self._note_failure(phase, len(remaining))
            self.telemetry.record(phase, len(results), True,
                                  time.perf_counter() - started)
            rerun, timed_out = self._inline(phase, loop, remaining,
                                            budget)
            results.update(rerun)
            return results, timed_out
        self.telemetry.record(phase, len(results), True,
                              time.perf_counter() - started)
        return results, timed_out

    # -- task batches ---------------------------------------------------
    def run_products(self, parents: Dict[int, StrippedPartition],
                     tasks: Sequence[ProductTask],
                     budget: DeadlineBudget
                     ) -> Tuple[Dict[int, StrippedPartition], bool]:
        if self._small(len(tasks),
                       sum(len(p.rows) for p in parents.values())):
            return super().run_products(parents, tasks, budget)
        return self._pooled(
            "products", tasks, lambda task: task.child,
            partial(product_loop, parents), budget,
            lambda pool: pool.run_products(parents, tasks, budget))

    def run_scans(self, contexts: Dict[Hashable, StrippedPartition],
                  tasks: Sequence[ScanTask], budget: DeadlineBudget,
                  phase: str = "scans"
                  ) -> Tuple[Dict[Hashable, bool], bool]:
        if self._small(len(tasks),
                       sum(len(p.rows) for p in contexts.values())):
            return super().run_scans(contexts, tasks, budget, phase)
        columns = self._relation.ranks
        return self._pooled(
            phase, tasks, lambda task: task[0],
            partial(scan_loop, columns, contexts), budget,
            lambda pool: pool.run_scans(contexts, tasks, columns, budget))

    def run_validations(self, tasks: Sequence[ValidationTask],
                        budget: DeadlineBudget, phase: str = "wave"
                        ) -> Tuple[Dict[Hashable, bool], bool]:
        relation = self._relation
        if (len(tasks) < 2
                or relation.n_rows < thresholds.PARALLEL_MIN_ROWS):
            return super().run_validations(tasks, budget, phase)
        return self._pooled(
            phase, tasks, lambda task: task[0], self._validation_loop(),
            budget,
            lambda pool: pool.run_validations(tasks, relation, budget))


def make_executor(relation: EncodedRelation,
                  workers: Optional[int] = None,
                  pool: Optional[WorkerPool] = None,
                  min_grouped_rows: Optional[int] = None
                  ) -> SerialExecutor:
    """The one place the serial-vs-pool decision is made.

    An explicit ``workers`` wins (the benchmark's projection mode
    drives 4-worker sharding through an injected 1-thread pool);
    otherwise an injected pool sets the effective parallelism;
    otherwise ``REPRO_WORKERS`` / serial via
    :func:`repro.parallel.resolve_workers`.  Fewer than two effective
    workers yields a :class:`SerialExecutor` even when a pool was
    injected.
    """
    if workers is None and pool is not None:
        effective = pool.workers
    else:
        effective = resolve_workers(workers)
    if effective < 2:
        return SerialExecutor(relation)
    return PoolExecutor(relation, effective, pool=pool,
                        min_grouped_rows=min_grouped_rows)


__all__ = [
    "PoolExecutor",
    "ScanTask",
    "SerialExecutor",
    "ValidationTask",
    "make_executor",
]
