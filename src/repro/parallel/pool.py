"""A thread pool for lattice-level execution, and the batch loops it runs.

FASTOD's level-wise sweep visits each lattice node independently within
a level: partition products and validation scans have no cross-node
dependencies (Algorithm 1).  :class:`WorkerPool` shards a level's node
work across a few threads that share the coordinator's memory.  The
compiled kernels (ctypes calls) and NumPy's sorts release the GIL, so
the heavy part of every task runs in parallel, while partitions, rank
columns and results are handed over by reference — nothing is copied
or serialized.

The three batch loops — :func:`product_loop`, :func:`scan_loop` and
:func:`validation_loop` — live here once.  The serial executor runs a
loop inline over a whole batch, each pool chunk runs it over its slice,
and a dispatch whose chunk failed re-runs it inline on the unfinished
tasks.  Every loop checks ``should_stop()`` before each task.

Determinism: pool threads run the exact same loops on the same inputs,
and the coordinator merges chunk results in chunk order — so a
parallel run's partitions and verdicts are byte-identical to
``workers=1``.

The pool holds no relation: each dispatch brings the partitions and
rank columns (or, for validations, the relation) its tasks read, so one
pool serves any number of relations in turn.  Each chunk runs inside a
:mod:`contextvars` copy taken within the ``pool-dispatch`` span, so

* it dispatches to the coordinator's kernel backend
  (:func:`repro.kernels.activate` rides the context);
* its ``task`` span and per-kernel leaf spans land in the caller's
  trace buffer under that span, and the job's sampling profiler
  samples the thread while the chunk runs;
* it stops cooperatively: the chunk checks the dispatch's
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
from functools import partial
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from repro import faults, kernels
from repro.errors import ConfigError, ReproError
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

#: ``(key, context_key, mode, a, b)`` — a scan against a known context
#: partition.  Modes: ``"swap"``, ``"const"``, ``"swap_desc"``
#: (descending right column), ``"pointwise"`` (``a`` is an LHS bitmask,
#: ``b`` a target attribute; the context is ignored).
ScanTask = Tuple[Hashable, Hashable, str, int, int]

#: ``(key, context_mask, mode, a, b)`` — a scan whose context partition
#: the loop derives from a :class:`PartitionCache`.
ValidationTask = Tuple[Hashable, int, str, int, int]

#: A batch loop bound to its inputs: ``run(tasks, should_stop) ->
#: {key: value}``, stopping before the first task at which
#: ``should_stop()`` is True.
BatchLoop = Callable[[Sequence, Callable[[], bool]], Dict]


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
            raise ConfigError(
                f"REPRO_WORKERS must be an integer, got {raw!r}") from None
    return max(1, int(workers))


def _chunk_slices(n_items: int, n_chunks: int) -> List[Tuple[int, int]]:
    """Contiguous, balanced ``[start, stop)`` slices covering ``n_items``."""
    n_chunks = max(1, min(n_chunks, n_items))
    bounds = np.linspace(0, n_items, n_chunks + 1).astype(int)
    return [(int(bounds[i]), int(bounds[i + 1]))
            for i in range(n_chunks) if bounds[i] < bounds[i + 1]]


def scan_verdict(mode: str, columns: Sequence[np.ndarray], a: int,
                 b: int, context: Optional[StrippedPartition]) -> bool:
    """:func:`repro.core.validation.scan_verdict`, imported on use
    (validation imports this package's siblings indirectly)."""
    from repro.core.validation import scan_verdict as verdict

    return verdict(mode, columns, a, b, context)


def product_loop(parents: Dict[int, StrippedPartition], tasks: Sequence,
                 should_stop: Callable[[], bool]
                 ) -> Dict[int, StrippedPartition]:
    """``Π_left · Π_right`` for each
    :class:`~repro.engine.tasks.ProductTask`, keyed by child mask."""
    products: Dict[int, StrippedPartition] = {}
    for task in tasks:
        if should_stop():
            break
        products[task.child] = parents[task.left].product(
            parents[task.right])
    return products


def scan_loop(columns: Sequence[np.ndarray],
              contexts: Dict[Hashable, StrippedPartition],
              tasks: Sequence[ScanTask], should_stop: Callable[[], bool]
              ) -> Dict[Hashable, bool]:
    """One verdict per :data:`ScanTask` over the given rank columns."""
    verdicts: Dict[Hashable, bool] = {}
    for key, context_key, mode, a, b in tasks:
        if should_stop():
            break
        verdicts[key] = scan_verdict(mode, columns, a, b,
                                     contexts.get(context_key))
    return verdicts


def validation_loop(relation: EncodedRelation, cache: PartitionCache,
                    tasks: Sequence[ValidationTask],
                    should_stop: Callable[[], bool]
                    ) -> Dict[Hashable, bool]:
    """One verdict per :data:`ValidationTask`, deriving each context
    partition from ``cache``."""
    verdicts: Dict[Hashable, bool] = {}
    for key, mask, mode, a, b in tasks:
        if should_stop():
            break
        context = None if mode == "pointwise" else cache.get(mask)
        verdicts[key] = scan_verdict(mode, relation.ranks, a, b, context)
    return verdicts


class WorkerPool:
    """A persistent thread pool for lattice-level batches.

    ``with WorkerPool(workers=4) as pool: ...`` — or call
    :meth:`shutdown` explicitly.  One set of threads serves every level
    of a discovery run, and every run or service job that reuses the
    pool.
    """

    def __init__(self, workers: int,
                 n_chunks_per_dispatch: Optional[int] = None):
        if workers < 1:
            raise ValueError("workers must be a positive integer")
        self.workers = workers
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
    @staticmethod
    def _run_chunk(kind: str, run: BatchLoop, tasks: Sequence,
                   should_stop: Callable[[], bool]) -> Tuple[dict, float]:
        """One chunk on a pool thread (inside the dispatch's context
        copy): returns its result dict and busy thread-CPU seconds."""
        started = time.thread_time()
        with profiler.thread_sampled(), \
                trace.span("task", kind=kind, tasks=len(tasks),
                           thread=threading.current_thread().name):
            faults.maybe_raise("worker.task",
                               f"injected failure in a {kind!r} task")
            # the flag lives in this chunk's context copy only
            kernels.set_kernel_spans(True)
            results = run(tasks, should_stop)
        return ({"results": results,
                 "timed_out": len(results) < len(tasks)},
                time.thread_time() - started)

    def _dispatch(self, kind: str, run: BatchLoop, tasks: Sequence,
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
                run, chunk, should_stop) for chunk in chunks]
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
                     tasks: Sequence, budget=None
                     ) -> Tuple[Dict[int, StrippedPartition], bool]:
        """:func:`product_loop` over
        :class:`~repro.engine.tasks.ProductTask` records, sharded
        across threads.  Returns the products plus a flag set when the
        cooperative ``budget`` cut chunks short (the dict then covers a
        subset of the tasks)."""
        # contiguous chunks of (left, right)-sorted tasks keep each
        # parent's derived probe table (row_to_class) mostly inside one
        # chunk, so few threads race to build the same table
        tasks = sorted(tasks, key=lambda task: (task.left, task.right))
        return self._dispatch("products", partial(product_loop, parents),
                              tasks, budget)

    def run_scans(self, contexts: Dict[Hashable, StrippedPartition],
                  tasks: Sequence[ScanTask],
                  columns: Sequence[np.ndarray], budget=None
                  ) -> Tuple[Dict[Hashable, bool], bool]:
        """:func:`scan_loop` over ``columns`` (a relation's rank
        columns); returns per-key verdicts plus a flag set when the
        cooperative budget cut chunks short (verdicts then cover a
        prefix of each chunk).  Tasks are grouped by context before
        chunking so a context's derived state is mostly built by one
        thread."""
        tasks = sorted(tasks, key=lambda t: (repr(t[1]), repr(t[0])))
        return self._dispatch("scans",
                              partial(scan_loop, columns, contexts),
                              tasks, budget)

    def _thread_cache(self, relation: EncodedRelation) -> PartitionCache:
        """This thread's partition cache over ``relation``."""
        local = self._local
        if getattr(local, "relation", None) is not relation:
            local.relation = relation
            local.cache = PartitionCache(
                relation, max_entries=VALIDATION_CACHE_ENTRIES)
        return local.cache

    def run_validations(self, tasks: Sequence[ValidationTask],
                        relation: EncodedRelation, budget=None
                        ) -> Tuple[Dict[Hashable, bool], bool]:
        """:func:`validation_loop` over ``relation`` (the hybrid
        escalation waves); each thread derives context partitions from
        its own :class:`PartitionCache`."""

        def run(chunk, should_stop):
            return validation_loop(relation, self._thread_cache(relation),
                                   chunk, should_stop)

        return self._dispatch("validations", run, list(tasks), budget)

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
