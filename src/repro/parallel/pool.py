"""A thread pool for lattice-level execution.

FASTOD's level-wise sweep visits each lattice node independently within
a level: partition products and validation scans have no cross-node
dependencies (Algorithm 1).  :class:`WorkerPool` shards a level's node
work across a few threads that share the coordinator's memory.  The
compiled kernels (ctypes calls) and NumPy's sorts release the GIL, so
the heavy part of every task runs in parallel, while partitions, rank
columns and results are handed over by reference — nothing is copied
or serialized.

Determinism: pool threads run the exact same kernels
(:meth:`StrippedPartition.product`, :func:`scan_verdict`, ...) on the
same inputs, and the coordinator merges chunk results in chunk order —
so a parallel run's partitions and verdicts are byte-identical to
``workers=1``.

Each chunk runs

* under the kernel backend the coordinator resolved for the dispatch
  (:func:`repro.kernels.activate` is thread-local);
* inside a :mod:`contextvars` copy taken within the ``pool-dispatch``
  span, so its ``task`` span and per-kernel leaf spans land in the
  caller's trace buffer under that span, and the job's sampling
  profiler samples the thread while the chunk runs;
* with cooperative cancellation: the chunk checks the dispatch's
  :class:`~repro.engine.budget.DeadlineBudget` between tasks and
  returns its partial results flagged ``timed_out``.

Lifecycle: threads start lazily on the first dispatch (a pool created
for a run that never crosses the serial-fallback thresholds costs
nothing), and :meth:`WorkerPool.shutdown` — also run on ``with`` exit —
joins them.  A segfault inside a C kernel takes the whole process down;
the service's job journal and boot replay are the recovery story for
that (see DESIGN.md, "Fault tolerance").
"""

from __future__ import annotations

import contextvars
import os
import threading
import time
import traceback
from concurrent.futures import ThreadPoolExecutor, wait
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from repro import faults, kernels
from repro.errors import ReproError
from repro.kernels import thresholds as kernel_thresholds
from repro.obs import accounting, metrics, profiler, trace
from repro.partitions.cache import PartitionCache
from repro.partitions.partition import StrippedPartition
from repro.relation.encoding import EncodedRelation

_DISPATCHES = metrics.counter(
    "repro_pool_dispatches_total",
    "Chunked dispatches sent to the worker pool, by task kind",
    ("kind",))
_DISPATCH_SECONDS = metrics.histogram(
    "repro_pool_dispatch_seconds",
    "Coordinator wall clock per pool dispatch (submit to last "
    "result), by task kind", ("kind",))
_QUEUE_WAIT_SECONDS = metrics.histogram(
    "repro_pool_queue_wait_seconds",
    "Coordinator-observed overhead per dispatch: wall clock minus "
    "the busiest chunk's thread CPU time, clamped at zero")

#: Below this many grouped rows in a dispatch's partitions the callers
#: fall back to the serial path.  Canonical value (with the crossover
#: measurement) in :mod:`repro.kernels.thresholds`; this module global
#: stays the name read at dispatch time so tests and benchmarks can
#: retune it.
PARALLEL_MIN_GROUPED_ROWS = kernel_thresholds.PARALLEL_MIN_GROUPED_ROWS

#: Relation size floor for the hybrid/validator parallel paths, which
#: gate on rows (their context partitions are not known up front).
PARALLEL_MIN_ROWS = kernel_thresholds.PARALLEL_MIN_ROWS

#: Task chunks per worker and dispatch.  Two per worker smooths out
#: uneven node costs without multiplying per-chunk overhead.
CHUNKS_PER_WORKER = 2

#: Dispatch telemetry records kept per pool (ring-buffer style) — far
#: more than one discovery run produces, small enough that a pool held
#: by an unbounded ``watch`` loop cannot accumulate without limit.
MAX_DISPATCH_RECORDS = 512

#: Composite partitions each pool thread keeps for mask-derived
#: validations (hybrid escalation waves revisit the same contexts).
VALIDATION_CACHE_ENTRIES = 128

ScanTask = Tuple[Hashable, Hashable, str, int, int]

#: One chunk's work: ``run(tasks, stop) -> {key: value}``, where
#: ``stop()`` turns True once the dispatch should wind down.
ChunkRunner = Callable[[Sequence, Callable[[], bool]], Dict]


class PoolDispatchError(ReproError):
    """A dispatch failed.  ``partial_results`` holds the chunk results
    of every chunk that completed — acknowledged work a recovery layer
    must not redo (each is ``{"results": {key: value},
    "timed_out": bool}``)."""

    def __init__(self, message: str,
                 partial_results: Optional[List[dict]] = None):
        super().__init__(message)
        self.partial_results: List[dict] = list(partial_results or [])


class WorkerTaskError(PoolDispatchError):
    """A task raised on a pool thread; carries its traceback."""


def resolve_workers(workers: Optional[int]) -> int:
    """Effective worker count: explicit value, else ``REPRO_WORKERS``,
    else 1 (serial).  Values below 1 clamp to serial."""
    if workers is None:
        raw = os.environ.get("REPRO_WORKERS", "").strip()
        try:
            workers = int(raw) if raw else 1
        except ValueError:
            workers = 1
    return max(1, int(workers))


def _chunk_slices(n_items: int, n_chunks: int) -> List[Tuple[int, int]]:
    """Contiguous, balanced ``[start, stop)`` slices covering ``n_items``."""
    n_chunks = max(1, min(n_chunks, n_items))
    bounds = np.linspace(0, n_items, n_chunks + 1).astype(int)
    return [(int(bounds[i]), int(bounds[i + 1]))
            for i in range(n_chunks) if bounds[i] < bounds[i + 1]]


def _scan_verdict(mode: str, columns: List[np.ndarray], a: int, b: int,
                  context: Optional[StrippedPartition]) -> bool:
    """The shared mode dispatch (lazy import: validation imports this
    package's siblings indirectly)."""
    from repro.core.validation import scan_verdict

    return scan_verdict(mode, columns, a, b, context)


class WorkerPool:
    """Thread pool bound to one encoded relation.

    ``with WorkerPool(encoded, workers=4) as pool: ...`` — or call
    :meth:`shutdown` explicitly.  The pool is *persistent*: one set of
    threads serves every level of a discovery run (and every run that
    reuses the pool).
    """

    def __init__(self, relation: EncodedRelation, workers: int,
                 n_chunks_per_dispatch: Optional[int] = None,
                 kernel_backend: Optional[str] = None):
        if workers < 1:
            raise ValueError("workers must be a positive integer")
        self._relation = relation
        self.workers = workers
        #: kernels backend every chunk runs under; ``None`` resolves to
        #: the coordinator's active backend at dispatch time, so serial
        #: and pooled kernels always agree
        self.kernel_backend = kernel_backend
        #: chunk count per dispatch; overriding it decouples chunk
        #: granularity from the worker count (the benchmark's
        #: work-distribution projection measures N-worker chunks on one
        #: uncontended thread)
        self.n_chunks_per_dispatch = (
            workers * CHUNKS_PER_WORKER if n_chunks_per_dispatch is None
            else max(1, n_chunks_per_dispatch))
        #: per-dispatch telemetry: kind, tasks, chunks, per-chunk busy
        #: thread-CPU seconds, wall seconds — the currency of the
        #: hardware-independent benchmark gate
        self.dispatches: List[Dict[str, object]] = []
        self._threads: Optional[ThreadPoolExecutor] = None
        #: per-thread ``(relation, PartitionCache)`` for validations
        self._local = threading.local()
        self._closed = False

    # -- lifecycle -----------------------------------------------------
    @property
    def relation(self) -> EncodedRelation:
        return self._relation

    def rebase(self, relation: EncodedRelation) -> None:
        """Point the pool at another relation (the incremental append
        path, or the next service job); per-thread validation caches
        notice the switch and rebuild lazily."""
        self._relation = relation

    @property
    def closed(self) -> bool:
        """True once :meth:`shutdown` ran; a closed pool never
        restarts — holders build a fresh one."""
        return self._closed

    def _ensure_started(self) -> None:
        if self._closed:
            raise PoolDispatchError(
                "the worker pool has been shut down; create a new one")
        if self._threads is None:
            self._threads = ThreadPoolExecutor(
                max_workers=self.workers, thread_name_prefix="repro-pool")

    def shutdown(self) -> None:
        """Stop and join the pool threads (idempotent); the pool is
        unusable afterwards (:attr:`closed`)."""
        self._closed = True
        threads, self._threads = self._threads, None
        if threads is not None:
            threads.shutdown(wait=True, cancel_futures=True)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown()

    # -- dispatch machinery --------------------------------------------
    def _kernel_backend(self):
        """The backend every chunk of a dispatch runs under: the pool's
        pinned backend, else whatever is active on the coordinator now
        (resolved, so pool threads never re-decide)."""
        if self.kernel_backend:
            return kernels.resolve_backend(self.kernel_backend)
        return kernels.active_backend()

    @staticmethod
    def _run_chunk(kind: str, run: ChunkRunner, tasks: Sequence,
                   backend, should_stop: Callable[[], bool]
                   ) -> Tuple[dict, float]:
        """One chunk on a pool thread (inside the dispatch's context
        copy): returns its result dict and busy thread-CPU seconds."""
        started = time.thread_time()
        with profiler.thread_sampled(), \
                trace.span("task", kind=kind, tasks=len(tasks),
                           thread=threading.current_thread().name):
            faults.maybe_raise("worker.task",
                               f"injected failure in a {kind!r} task")
            kernels.set_kernel_spans(True)
            try:
                with kernels.activate(backend):
                    results = run(tasks, should_stop)
            finally:
                kernels.set_kernel_spans(False)
        return ({"results": results,
                 "timed_out": len(results) < len(tasks)},
                time.thread_time() - started)

    def _dispatch(self, kind: str, run: ChunkRunner, tasks: Sequence,
                  budget=None) -> Tuple[Dict, bool]:
        """Run ``tasks`` in contiguous chunks across the pool threads;
        returns the merged ``{key: value}`` results and whether the
        budget cut the dispatch short.

        A chunk that raises does not stop the others: the dispatch
        waits for every chunk, then raises :class:`WorkerTaskError`
        carrying the completed chunks' results.  A coordinator-side
        interrupt stops every chunk at its next task boundary."""
        self._ensure_started()
        started = time.perf_counter()
        backend = self._kernel_backend()
        abort = threading.Event()

        def should_stop() -> bool:
            return abort.is_set() or (budget is not None and budget.hit())

        chunks = [tasks[start:stop] for start, stop in _chunk_slices(
            len(tasks), self.n_chunks_per_dispatch)]
        with trace.span("pool-dispatch", kind=kind, chunks=len(chunks)):
            # one context copy per chunk, taken inside the span, so
            # each chunk's spans parent onto this dispatch
            futures = [self._threads.submit(
                contextvars.copy_context().run, self._run_chunk, kind,
                run, chunk, backend, should_stop) for chunk in chunks]
            try:
                wait(futures)
            except BaseException:
                abort.set()
                for future in futures:
                    future.cancel()
                raise
            done = [future.result() for future in futures
                    if future.exception() is None]
            failed = [future.exception() for future in futures
                      if future.exception() is not None]
            if failed:
                error = failed[0]
                raise WorkerTaskError(
                    "a parallel task failed on a pool thread:\n"
                    + "".join(traceback.format_exception(
                        type(error), error, error.__traceback__)),
                    partial_results=[result for result, _ in done])
        wall = time.perf_counter() - started
        busy = [seconds for _, seconds in done]
        # the coordinator-observed overhead: everything the dispatch
        # spent beyond its busiest chunk's kernel time
        queue_wait = max(0.0, wall - (max(busy) if busy else 0.0))
        self.dispatches.append({
            "kind": kind,
            "n_tasks": len(tasks),
            "n_chunks": len(chunks),
            "chunk_busy_seconds": busy,
            "wall_seconds": wall,
            "queue_wait_seconds": queue_wait,
        })
        if len(self.dispatches) > MAX_DISPATCH_RECORDS:
            del self.dispatches[:len(self.dispatches)
                                - MAX_DISPATCH_RECORDS]
        _DISPATCHES.inc(kind=kind)
        _DISPATCH_SECONDS.observe(wall, kind=kind)
        _QUEUE_WAIT_SECONDS.observe(queue_wait)
        account = accounting.current()
        if account is not None:
            account.add_pool_chunks(len(chunks), sum(busy))
        results: Dict = {}
        timed_out = False
        for result, _ in done:
            results.update(result["results"])
            timed_out |= result["timed_out"]
        return results, timed_out

    # -- level operations ----------------------------------------------
    def run_products(self, parents: Dict[int, StrippedPartition],
                     triples: Sequence[Tuple[int, int, int]],
                     budget=None
                     ) -> Tuple[Dict[int, StrippedPartition], bool]:
        """Compute ``Π_left · Π_right`` for every ``(child, left,
        right)`` triple, sharded across threads.  Returns the products
        plus a flag set when the cooperative ``budget`` cut chunks
        short (the dict then covers a subset of the triples)."""
        # contiguous chunks of (left, right)-sorted tasks keep each
        # parent's derived probe table (row_to_class) mostly inside one
        # chunk, so few threads race to build the same table
        triples = sorted(triples, key=lambda t: (t[1], t[2]))

        def run(chunk, should_stop):
            products: Dict[int, StrippedPartition] = {}
            for child, left, right in chunk:
                if should_stop():
                    break
                products[child] = parents[left].product(parents[right])
            return products

        return self._dispatch("products", run, triples, budget)

    def run_scans(self, contexts: Dict[Hashable, StrippedPartition],
                  tasks: Sequence[ScanTask], budget=None
                  ) -> Tuple[Dict[Hashable, bool], bool]:
        """Validation scans over known context partitions.

        ``tasks`` are ``(key, context_key, mode, a, b)`` with a mode
        :func:`repro.core.validation.scan_verdict` accepts; returns
        per-key verdicts plus a flag set when the cooperative budget cut
        chunks short (verdicts then cover a prefix of each chunk).
        Tasks are grouped by context before chunking so a context's
        derived state is mostly built by one thread."""
        columns = self._relation.ranks
        tasks = sorted(tasks, key=lambda t: (repr(t[1]), repr(t[0])))

        def run(chunk, should_stop):
            verdicts: Dict[Hashable, bool] = {}
            for key, context_key, mode, a, b in chunk:
                if should_stop():
                    break
                verdicts[key] = _scan_verdict(mode, columns, a, b,
                                              contexts[context_key])
            return verdicts

        return self._dispatch("scans", run, tasks, budget)

    def _thread_cache(self, relation: EncodedRelation) -> PartitionCache:
        """This thread's partition cache over ``relation``."""
        local = self._local
        if getattr(local, "relation", None) is not relation:
            local.relation = relation
            local.cache = PartitionCache(
                relation, max_entries=VALIDATION_CACHE_ENTRIES)
        return local.cache

    def run_validations(self, tasks: Sequence[Tuple[Hashable, int, str,
                                                    int, int]],
                        budget=None
                        ) -> Tuple[Dict[Hashable, bool], bool]:
        """Ad-hoc context validation (the hybrid escalation waves):
        ``(key, context_mask, mode, a, b)`` tasks; each thread derives
        context partitions from its own :class:`PartitionCache`."""
        relation = self._relation

        def run(chunk, should_stop):
            cache = self._thread_cache(relation)
            verdicts: Dict[Hashable, bool] = {}
            for key, mask, mode, a, b in chunk:
                if should_stop():
                    break
                context = None if mode == "pointwise" else cache.get(mask)
                verdicts[key] = _scan_verdict(mode, relation.ranks, a, b,
                                              context)
            return verdicts

        return self._dispatch("validations", run, list(tasks), budget)

    def run_class_scan(self, mode: str, a: int, b: int,
                       partition: StrippedPartition, budget=None
                       ) -> Tuple[bool, bool]:
        """One big scan sharded by context class (the single-dependency
        path behind ``check``/``violations`` and incremental
        revalidation).  Classes are split into contiguous chunks of
        near-equal grouped rows; each chunk is a valid stripped
        partition in its own right, so threads run the stock kernels.
        Returns ``(verdict, timed_out)``."""
        offsets = partition.offsets
        n_chunks = max(1, min(self.workers * 2, partition.n_classes))
        targets = np.linspace(0, len(partition.rows), n_chunks + 1)
        bounds = np.unique(np.searchsorted(offsets, targets[1:-1]))
        class_bounds = [0, *[int(b) for b in bounds], partition.n_classes]
        contexts: Dict[Hashable, StrippedPartition] = {}
        tasks: List[ScanTask] = []
        for index in range(len(class_bounds) - 1):
            lo, hi = class_bounds[index], class_bounds[index + 1]
            if lo >= hi:
                continue
            contexts[index] = StrippedPartition.from_flat(
                partition.rows[offsets[lo]:offsets[hi]],
                offsets[lo:hi + 1] - offsets[lo], partition.n_rows)
            tasks.append((index, index, mode, a, b))
        if not tasks:
            return True, False
        verdicts, timed_out = self.run_scans(contexts, tasks, budget)
        return all(verdicts.values()), timed_out

    # -- reporting ------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        """Aggregate dispatch telemetry (see also :attr:`dispatches`)."""
        busy = [s for d in self.dispatches
                for s in d["chunk_busy_seconds"]]
        return {
            "workers": self.workers,
            "n_dispatches": len(self.dispatches),
            "n_tasks": sum(d["n_tasks"] for d in self.dispatches),
            "n_chunks": sum(d["n_chunks"] for d in self.dispatches),
            "busy_seconds": sum(busy),
            "wall_seconds": sum(d["wall_seconds"]
                                for d in self.dispatches),
            "queue_wait_seconds": sum(
                d["queue_wait_seconds"] for d in self.dispatches),
        }
