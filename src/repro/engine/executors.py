"""Pluggable executors: where planner-emitted tasks actually run.

An :class:`Executor` resolves the typed work units of
:mod:`repro.engine.tasks` plus the two ad-hoc scan shapes the rest of
the library needs (mask-derived validations for the hybrid escalation
waves and bidirectional/pointwise sweeps; single class-sharded scans
for the validator/detector/incremental append paths).  Two
implementations ship:

* :class:`SerialExecutor` runs every kernel inline on the coordinator,
  consulting the :class:`~repro.engine.budget.DeadlineBudget` between
  tasks — the exact cadence the pre-engine serial fallbacks used.
* :class:`PoolExecutor` wraps a :class:`~repro.parallel.WorkerPool`
  of threads and keeps the serial-fallback policy in one place: a
  dispatch only leaves the coordinator when it has at least two tasks
  and enough grouped rows (or relation rows, for mask-derived
  validations) to amortize the dispatch.  Sub-threshold batches fall
  through to an internal :class:`SerialExecutor` that shares the same
  telemetry, and so do the unfinished tasks of a dispatch in which a
  chunk failed.

Any future backend is a third implementation of this protocol — not
another traversal fork.
"""

from __future__ import annotations

import time
from typing import (Callable, Dict, Hashable, List, Optional, Protocol,
                    Sequence, Tuple)

import repro.parallel.pool as pool_module
from repro import kernels
from repro.engine.budget import DeadlineBudget
from repro.engine.tasks import ProductTask
from repro.engine.telemetry import ExecutorTelemetry
from repro.obs import events
from repro.parallel.pool import (PoolDispatchError, WorkerPool,
                                 resolve_workers)
from repro.partitions.cache import PartitionCache
from repro.partitions.partition import StrippedPartition
from repro.relation.encoding import EncodedRelation

#: ``(key, context_key, mode, a, b)`` — a scan against a published
#: context partition.  Modes: ``"swap"``, ``"const"``, ``"swap_desc"``
#: (descending right column), ``"pointwise"`` (``a`` is an LHS bitmask,
#: ``b`` a target attribute; the context is ignored).
ScanTask = Tuple[Hashable, Hashable, str, int, int]

#: ``(key, context_mask, mode, a, b)`` — a scan whose context partition
#: the executor derives itself (per-thread caches on the pool path).
ValidationTask = Tuple[Hashable, int, str, int, int]


def _kernel_verdict(mode: str, columns, a: int, b: int,
                    context: Optional[StrippedPartition]) -> bool:
    """One scan verdict on the coordinator (lazy import: validation
    imports this package's siblings indirectly)."""
    from repro.core.validation import scan_verdict

    return scan_verdict(mode, columns, a, b, context)


class SerialExecutor:
    """Runs every task inline on the coordinator.

    ``kernel_backend`` pins the :mod:`repro.kernels` backend the task
    batches run under (``None`` defers to the process default /
    ``REPRO_KERNELS``); the executor activates it around every batch so
    one process can host executors on different backends.
    """

    name = "serial"

    def __init__(self, relation: EncodedRelation,
                 telemetry: Optional[ExecutorTelemetry] = None,
                 kernel_backend: Optional[str] = None):
        self._relation = relation
        self._cache: Optional[PartitionCache] = None
        self.kernel_backend = kernel_backend
        self.telemetry = telemetry or ExecutorTelemetry("serial", 1)

    @property
    def relation(self) -> EncodedRelation:
        return self._relation

    def rebase(self, relation: EncodedRelation) -> None:
        """Follow a grown relation (the incremental append path)."""
        if relation is self._relation:
            return
        self._relation = relation
        self._cache = None

    def close(self) -> None:
        pass

    def __enter__(self) -> "SerialExecutor":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- task batches ---------------------------------------------------
    def run_products(self, parents: Dict[int, StrippedPartition],
                     tasks: Sequence[ProductTask],
                     budget: DeadlineBudget
                     ) -> Tuple[Dict[int, StrippedPartition], bool]:
        started = time.perf_counter()
        products: Dict[int, StrippedPartition] = {}
        with kernels.activate(self.kernel_backend):
            for task in tasks:
                if budget.hit():
                    self.telemetry.record(
                        "products", len(products), False,
                        time.perf_counter() - started)
                    return products, True
                products[task.child] = parents[task.left].product(
                    parents[task.right])
        self.telemetry.record("products", len(products), False,
                              time.perf_counter() - started)
        return products, False

    def run_scans(self, contexts: Dict[Hashable, StrippedPartition],
                  tasks: Sequence[ScanTask], budget: DeadlineBudget,
                  phase: str = "scans"
                  ) -> Tuple[Dict[Hashable, bool], bool]:
        started = time.perf_counter()
        columns = self._relation.ranks
        verdicts: Dict[Hashable, bool] = {}
        with kernels.activate(self.kernel_backend):
            for key, context_key, mode, a, b in tasks:
                if budget.hit():
                    self.telemetry.record(phase, len(verdicts), False,
                                          time.perf_counter() - started)
                    return verdicts, True
                verdicts[key] = _kernel_verdict(
                    mode, columns, a, b, contexts.get(context_key))
        self.telemetry.record(phase, len(verdicts), False,
                              time.perf_counter() - started)
        return verdicts, False

    def run_validations(self, tasks: Sequence[ValidationTask],
                        budget: DeadlineBudget, phase: str = "wave"
                        ) -> Tuple[Dict[Hashable, bool], bool]:
        started = time.perf_counter()
        if self._cache is None:
            self._cache = PartitionCache(self._relation)
        columns = self._relation.ranks
        verdicts: Dict[Hashable, bool] = {}
        with kernels.activate(self.kernel_backend):
            for key, mask, mode, a, b in tasks:
                if budget.hit():
                    self.telemetry.record(phase, len(verdicts), False,
                                          time.perf_counter() - started)
                    return verdicts, True
                context = (None if mode == "pointwise"
                           else self._cache.get(mask))
                verdicts[key] = _kernel_verdict(mode, columns, a, b,
                                                context)
        self.telemetry.record(phase, len(verdicts), False,
                              time.perf_counter() - started)
        return verdicts, False

    def scan_partition(self, mode: str, a: int, b: int,
                       partition: StrippedPartition) -> bool:
        """One whole-partition scan (validator/detector/incremental)."""
        started = time.perf_counter()
        with kernels.activate(self.kernel_backend):
            verdict = _kernel_verdict(mode, self._relation.ranks, a, b,
                                      partition)
        self.telemetry.record("class-scan", 1, False,
                              time.perf_counter() - started)
        return verdict


class PoolExecutor:
    """Shards big task batches over a thread :class:`WorkerPool`.

    The pool starts lazily on the first dispatch that crosses the
    serial-fallback thresholds; ``min_grouped_rows`` / ``min_rows``
    default to the package thresholds *read at dispatch time* (so tests
    and benchmarks can retune :mod:`repro.parallel.pool` globals).  An
    injected ``pool`` is reused and never shut down by :meth:`close`;
    an owned pool is shut down there.

    When a chunk fails, the acknowledged results of the dispatch are
    kept, the rest of the batch re-runs on the serial path, and the
    telemetry counts one retry and marks the executor degraded.
    """

    name = "pool"

    def __init__(self, relation: EncodedRelation, workers: int,
                 pool: Optional[WorkerPool] = None,
                 min_grouped_rows: Optional[int] = None,
                 min_rows: Optional[int] = None,
                 kernel_backend: Optional[str] = None):
        if workers < 2:
            raise ValueError("PoolExecutor needs workers >= 2; use "
                             "SerialExecutor for serial runs")
        self._relation = relation
        self.workers = workers
        self._injected = pool
        self._owned: Optional[WorkerPool] = None
        self._min_grouped_rows = min_grouped_rows
        self._min_rows = min_rows
        #: kernels backend the batches (pooled chunks *and* the serial
        #: fallback) run under; ``None`` defers to the process default
        self.kernel_backend = kernel_backend
        self.telemetry = ExecutorTelemetry("pool", workers)
        self._serial = SerialExecutor(relation, telemetry=self.telemetry,
                                      kernel_backend=kernel_backend)

    @property
    def relation(self) -> EncodedRelation:
        return self._relation

    @property
    def grouped_rows_threshold(self) -> int:
        if self._min_grouped_rows is not None:
            return self._min_grouped_rows
        return pool_module.PARALLEL_MIN_GROUPED_ROWS

    @property
    def rows_threshold(self) -> int:
        if self._min_rows is not None:
            return self._min_rows
        return pool_module.PARALLEL_MIN_ROWS

    def rebase(self, relation: EncodedRelation) -> None:
        if relation is self._relation:
            return
        self._relation = relation
        self._serial.rebase(relation)
        for pool in (self._injected, self._owned):
            if pool is not None:
                pool.rebase(relation)

    def close(self) -> None:
        """Shut down the owned pool, if one was started; injected pools
        belong to the caller."""
        if self._owned is not None:
            self._owned.shutdown()
            self._owned = None

    def __enter__(self) -> "PoolExecutor":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def _pool(self) -> WorkerPool:
        if self._injected is not None:
            return self._injected
        if self._owned is None:
            self._owned = WorkerPool(self._relation, self.workers,
                                     kernel_backend=self.kernel_backend)
        return self._owned

    def _note_failure(self, phase: str, rerun: int) -> None:
        """Bill a failed dispatch whose ``rerun`` unfinished tasks go
        to the serial path."""
        self.telemetry.record_retry()
        self.telemetry.mark_degraded()
        # emitted inside the job's span context, so the line carries
        # trace_id/span_id and joins /jobs/{id}/trace
        events.emit("executor.dispatch_failed", phase=phase,
                    rerun=rerun, workers=self.workers)

    def _pooled(self, phase: str, tasks: Sequence, key: Callable,
                dispatch: Callable, rerun: Callable
                ) -> Tuple[Dict, bool]:
        """Run one batch on the pool (``dispatch(pool)``).  If a chunk
        fails, keep what the other chunks finished and re-run the
        remaining tasks serially (``rerun(tasks)``)."""
        started = time.perf_counter()
        try:
            with kernels.activate(self.kernel_backend):
                results, timed_out = dispatch(self._pool())
        except PoolDispatchError as error:
            results = {}
            for chunk in error.partial_results:
                results.update(chunk["results"])
            remaining: List = [t for t in tasks if key(t) not in results]
            self._note_failure(phase, len(remaining))
            self.telemetry.record(phase, len(results), True,
                                  time.perf_counter() - started)
            serial_results, timed_out = rerun(remaining)
            results.update(serial_results)
            return results, timed_out
        self.telemetry.record(phase, len(results), True,
                              time.perf_counter() - started)
        return results, timed_out

    # -- task batches ---------------------------------------------------
    def run_products(self, parents: Dict[int, StrippedPartition],
                     tasks: Sequence[ProductTask],
                     budget: DeadlineBudget
                     ) -> Tuple[Dict[int, StrippedPartition], bool]:
        grouped_rows = sum(len(p.rows) for p in parents.values())
        if len(tasks) < 2 or grouped_rows < self.grouped_rows_threshold:
            return self._serial.run_products(parents, tasks, budget)
        triples = [(t.child, t.left, t.right) for t in tasks]
        return self._pooled(
            "products", tasks, lambda task: task.child,
            lambda pool: pool.run_products(parents, triples, budget),
            lambda rest: self._serial.run_products(parents, rest, budget))

    def run_scans(self, contexts: Dict[Hashable, StrippedPartition],
                  tasks: Sequence[ScanTask], budget: DeadlineBudget,
                  phase: str = "scans"
                  ) -> Tuple[Dict[Hashable, bool], bool]:
        grouped_rows = sum(len(p.rows) for p in contexts.values())
        if len(tasks) < 2 or grouped_rows < self.grouped_rows_threshold:
            return self._serial.run_scans(contexts, tasks, budget, phase)
        return self._pooled(
            phase, tasks, lambda task: task[0],
            lambda pool: pool.run_scans(contexts, tasks, budget),
            lambda rest: self._serial.run_scans(contexts, rest, budget,
                                                phase))

    def run_validations(self, tasks: Sequence[ValidationTask],
                        budget: DeadlineBudget, phase: str = "wave"
                        ) -> Tuple[Dict[Hashable, bool], bool]:
        if (len(tasks) < 2
                or self._relation.n_rows < self.rows_threshold):
            return self._serial.run_validations(tasks, budget, phase)
        return self._pooled(
            phase, tasks, lambda task: task[0],
            lambda pool: pool.run_validations(tasks, budget),
            lambda rest: self._serial.run_validations(rest, budget,
                                                      phase))

    def scan_partition(self, mode: str, a: int, b: int,
                       partition: StrippedPartition) -> bool:
        if (partition.n_classes < 2
                or len(partition.rows) < self.grouped_rows_threshold
                or mode == "pointwise"):
            return self._serial.scan_partition(mode, a, b, partition)
        started = time.perf_counter()
        try:
            with kernels.activate(self.kernel_backend):
                verdict, _ = self._pool().run_class_scan(
                    mode, a, b, partition)
        except PoolDispatchError:
            self._note_failure("class-scan", 1)
            return self._serial.scan_partition(mode, a, b, partition)
        self.telemetry.record("class-scan", 1, True,
                              time.perf_counter() - started)
        return verdict


class Executor(Protocol):
    """The executor contract planners and backends program to.

    Structural (``typing.Protocol``): :class:`SerialExecutor` and
    :class:`PoolExecutor` satisfy it without inheriting, and a future
    backend only needs these methods."""

    telemetry: ExecutorTelemetry

    @property
    def relation(self) -> EncodedRelation: ...

    def run_products(self, parents: Dict[int, StrippedPartition],
                     tasks: Sequence[ProductTask],
                     budget: DeadlineBudget
                     ) -> Tuple[Dict[int, StrippedPartition], bool]: ...

    def run_scans(self, contexts: Dict[Hashable, StrippedPartition],
                  tasks: Sequence[ScanTask], budget: DeadlineBudget,
                  phase: str = "scans"
                  ) -> Tuple[Dict[Hashable, bool], bool]: ...

    def run_validations(self, tasks: Sequence[ValidationTask],
                        budget: DeadlineBudget, phase: str = "wave"
                        ) -> Tuple[Dict[Hashable, bool], bool]: ...

    def scan_partition(self, mode: str, a: int, b: int,
                       partition: StrippedPartition) -> bool: ...

    def rebase(self, relation: EncodedRelation) -> None: ...

    def close(self) -> None: ...


def make_executor(relation: EncodedRelation,
                  workers: Optional[int] = None,
                  pool: Optional[WorkerPool] = None,
                  min_grouped_rows: Optional[int] = None,
                  min_rows: Optional[int] = None,
                  kernel_backend: Optional[str] = None):
    """The one place the serial-vs-pool decision is made.

    An explicit ``workers`` wins (the benchmark's projection mode
    drives 4-worker sharding through an injected 1-thread pool);
    otherwise an injected pool sets the effective parallelism;
    otherwise ``REPRO_WORKERS`` / serial via
    :func:`repro.parallel.resolve_workers`.  Fewer than two effective
    workers yields a :class:`SerialExecutor` even when a pool was
    injected — mirroring the historical ``FastOD`` gate.

    ``kernel_backend`` picks the :mod:`repro.kernels` backend the
    executor's batches run under (pool threads activate it around each
    chunk); ``None`` defers to ``REPRO_KERNELS``/auto.
    """
    if workers is None and pool is not None:
        effective = pool.workers
    else:
        effective = resolve_workers(workers)
    if effective < 2:
        return SerialExecutor(relation, kernel_backend=kernel_backend)
    return PoolExecutor(relation, effective, pool=pool,
                        min_grouped_rows=min_grouped_rows,
                        min_rows=min_rows,
                        kernel_backend=kernel_backend)


__all__ = [
    "Executor",
    "PoolExecutor",
    "ScanTask",
    "SerialExecutor",
    "ValidationTask",
    "make_executor",
]
