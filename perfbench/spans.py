"""Span recorder for the traced benchmark run.

The traced run wraps the public entry points of each layer of the
program (``relation``, ``engine``, ``kernels``, ``partitions``,
``parallel``, ``incremental``, ``deltalog``, ``server``) from here, so
the program itself is not edited.  A span carries a name, start, end,
parent and a few counts; spans stay in memory and are written out as
JSON when the process under test ends.  :func:`layer_metrics` turns a
span list into the per-layer metrics ``run.py`` prints.

Processes under test in untraced runs never call :func:`install`.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
import time
from typing import Callable, Dict, List, Optional

LAYERS = ("relation", "engine", "kernels", "partitions", "parallel",
          "incremental", "deltalog", "server")

#: per-layer metrics read from service replies rather than spans; 0 on
#: workloads that send no requests
REQUEST_METRICS = ("server.queue_wait_ms", "server.job_run_ms",
                   "server.read_p50_ms", "server.read_p99_ms",
                   "server.validate_p50_ms", "server.delta_p50_ms",
                   "server.delta_p90_ms")


class Recorder:
    """Collects spans from every thread of one process."""

    def __init__(self):
        self.spans: List[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, function: Callable, name: str,
             prepare: Optional[Callable] = None,
             note: Optional[Callable] = None) -> Callable:
        """``function`` wrapped in a span called ``name``.

        A call made while a span of the same name is open on this
        thread is not recorded: its time belongs to the outer span
        (``PoolExecutor.run_scans`` falling back to
        ``SerialExecutor.run_scans`` is one scan batch, not two).
        ``prepare(args, kwargs)`` runs before the call and
        ``note(state, args, kwargs, out)`` after it; ``note`` returns
        the span's counts.
        """
        recorder = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            stack = recorder._stack()
            if any(open_name == name for _, open_name in stack):
                return function(*args, **kwargs)
            span_id = next(recorder._ids)
            parent = stack[-1][0] if stack else None
            state = prepare(args, kwargs) if prepare else None
            stack.append((span_id, name))
            started = time.perf_counter()
            try:
                out = function(*args, **kwargs)
            finally:
                ended = time.perf_counter()
                stack.pop()
            attrs = note(state, args, kwargs, out) if note else None
            with recorder._lock:
                recorder.spans.append({
                    "id": span_id, "parent": parent, "name": name,
                    "start": started, "end": ended,
                    "thread": threading.get_ident(),
                    "attrs": attrs or {}})
            return out

        return traced

    def dump(self, path: str, extra: Optional[dict] = None) -> None:
        with self._lock:
            payload = {"spans": list(self.spans), **(extra or {})}
        tmp = f"{path}.tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        os.replace(tmp, path)


def _patch_function(module, attribute: str, wrapped: Callable) -> None:
    """Replace a module-level function everywhere it was imported by
    name (``from repro.relation.csvio import read_csv_text`` binds a
    second reference in the importing module)."""
    original = getattr(module, attribute)
    for other in list(sys.modules.values()):
        if (other is not None
                and getattr(other, attribute, None) is original):
            setattr(other, attribute, wrapped)


def _count_tasks(_state, args, _kwargs, _out) -> dict:
    # args: (self, parents or contexts, tasks, ...)
    return {"tasks": len(args[2])}


def install(recorder: Recorder) -> None:
    """Wrap every traced entry point of the program."""
    import repro.kernels as kernels
    from repro.core.fastod import FastOD
    from repro.deltalog.log import DeltaLog
    from repro.engine.executors import PoolExecutor, SerialExecutor
    from repro.incremental.engine import IncrementalFastOD
    from repro.parallel.pool import WorkerPool
    from repro.partitions.cache import PartitionCache
    from repro.partitions.partition import StrippedPartition
    from repro.relation import csvio
    from repro.relation.table import Relation
    from repro.server.catalog import DatasetCatalog
    from repro.server.http import ODService
    from repro.server.jobs import JobScheduler
    from repro.server.store import ResultStore

    wrap = recorder.wrap

    # relation
    for attribute in ("read_csv", "read_csv_text"):
        _patch_function(csvio, attribute,
                        wrap(getattr(csvio, attribute), "relation.read_csv"))
    Relation.encode = wrap(Relation.encode, "relation.encode")

    # engine
    def note_levels(_state, _args, _kwargs, out) -> dict:
        return {"levels": len(out.level_stats),
                "retries": int((out.executor_stats or {})
                               .get("retries", 0))}

    FastOD.run = wrap(FastOD.run, "engine.run", note=note_levels)

    def note_scans(_state, args, _kwargs, _out) -> dict:
        # scan task: (key, context mask, mode, a, b)
        tasks = args[2]
        return {"tasks": len(tasks),
                "pairs": sorted({(task[1], task[3]) for task in tasks})}

    for executor in (SerialExecutor, PoolExecutor):
        executor.run_products = wrap(executor.run_products,
                                     "engine.products", note=_count_tasks)
        executor.run_scans = wrap(executor.run_scans, "engine.scans",
                                  note=note_scans)

    # kernels: (dispatcher, span name, index of the row-id argument)
    for attribute, kernel, rows_arg in (
            ("partition_product", "product", 1),
            ("swap_flags", "swap", 2),
            ("split_mismatch", "split", 1),
            ("densify", "densify", 0)):
        def note_rows(_state, args, _kwargs, _out, _index=rows_arg):
            return {"rows": int(len(args[_index]))}

        _patch_function(kernels, attribute,
                        wrap(getattr(kernels, attribute),
                             f"kernels.{kernel}", note=note_rows))

    # partitions
    StrippedPartition.product = wrap(StrippedPartition.product,
                                     "partitions.product")

    def before_lookup(args, _kwargs):
        return args[0].hits

    def note_lookup(hits_before, args, _kwargs, _out) -> dict:
        return {"hit": int(args[0].hits > hits_before)}

    PartitionCache.get = wrap(PartitionCache.get, "partitions.cache",
                              prepare=before_lookup, note=note_lookup)
    PartitionCache.peek = wrap(PartitionCache.peek, "partitions.cache",
                               prepare=before_lookup, note=note_lookup)

    # parallel
    WorkerPool.__init__ = wrap(WorkerPool.__init__, "parallel.boot")
    WorkerPool._ensure_started = wrap(WorkerPool._ensure_started,
                                      "parallel.boot")
    WorkerPool.run_products = wrap(WorkerPool.run_products,
                                   "parallel.dispatch", note=_count_tasks)
    WorkerPool.run_scans = wrap(WorkerPool.run_scans, "parallel.dispatch",
                                note=_count_tasks)

    def before_shutdown(args, _kwargs):
        pool = args[0]
        return None if pool.closed else pool.stats()

    def note_shutdown(stats, _args, _kwargs, _out) -> dict:
        if stats is None:
            return {}
        return {"workers": stats["workers"],
                "worker_cpu_s": stats["busy_seconds"]}

    WorkerPool.shutdown = wrap(WorkerPool.shutdown, "parallel.shutdown",
                               prepare=before_shutdown, note=note_shutdown)

    # incremental
    IncrementalFastOD.__init__ = wrap(IncrementalFastOD.__init__,
                                      "incremental.build")

    def note_delta(_state, _args, _kwargs, out) -> dict:
        return {"retraversed": int(bool(out.retraversed))}

    IncrementalFastOD.apply_delta = wrap(IncrementalFastOD.apply_delta,
                                         "incremental.apply_delta",
                                         note=note_delta)

    # deltalog: log bytes written per byte of the user's weighted ops
    def before_append(args, _kwargs):
        path = args[0].path
        return os.path.getsize(path) if os.path.exists(path) else 0

    def note_append(size_before, args, _kwargs, _out) -> dict:
        ops = args[1].to_dict()["ops"]
        return {"log_bytes": os.path.getsize(args[0].path) - size_before,
                "user_bytes": len(json.dumps(ops, separators=(",", ":")))}

    DeltaLog.append = wrap(DeltaLog.append, "deltalog.append",
                           prepare=before_append, note=note_append)

    # server.  Request spans bound the server-side handling of one
    # request and belong to no layer: the handler thread mostly waits
    # there for the runner thread's job span.
    for attribute in ("register", "submit", "delta"):
        setattr(ODService, attribute,
                wrap(getattr(ODService, attribute), "service.request"))
    for attribute in ("_run_discover", "_run_validate", "_run_delta"):
        setattr(JobScheduler, attribute,
                wrap(getattr(JobScheduler, attribute), "server.job"))
    JobScheduler.submit = wrap(JobScheduler.submit, "server.submit")

    def note_store_get(_state, _args, _kwargs, out) -> dict:
        return {"hit": int(out is not None)}

    ResultStore.get = wrap(ResultStore.get, "server.store_get",
                           note=note_store_get)
    ResultStore.put = wrap(ResultStore.put, "server.store_put")
    DatasetCatalog.get = wrap(DatasetCatalog.get, "server.catalog_get")


# ----------------------------------------------------------------------
# analysis (runs in run.py, not in the process under test)
# ----------------------------------------------------------------------
def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(spans: List[dict], n_ops: int) -> Dict[str, float]:
    """Per-layer metrics from one traced process's spans.

    Times and counts are per workload operation (``n_ops``): per cold
    discover on the discover workloads, per timed request on
    ``service-mix``.  Ratios are taken over the whole span list.
    """
    totals: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    attrs: Dict[str, float] = {}
    child_time: Dict[int, float] = {}
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] = (
                child_time.get(span["parent"], 0.0)
                + span["end"] - span["start"])
    self_time = {layer: 0.0 for layer in LAYERS}
    for span in spans:
        name = span["name"]
        duration = span["end"] - span["start"]
        totals[name] = totals.get(name, 0.0) + duration
        calls[name] = calls.get(name, 0) + 1
        for key, value in span["attrs"].items():
            if key != "pairs":
                attrs[f"{name}:{key}"] = attrs.get(f"{name}:{key}", 0) + value
        layer = name.split(".")[0]
        if layer in self_time:
            self_time[layer] += duration - child_time.get(span["id"], 0.0)

    def total(name: str) -> float:
        return totals.get(name, 0.0)

    def count(name: str) -> int:
        return calls.get(name, 0)

    def attr(name: str, key: str) -> float:
        return attrs.get(f"{name}:{key}", 0)

    per_op = 1.0 / max(n_ops, 1)
    run_s = total("engine.run")
    products_s = total("engine.products")
    scans_s = total("engine.scans")
    dispatch_s = total("parallel.dispatch")
    workers = max((span["attrs"].get("workers", 0) for span in spans
                   if span["name"] == "parallel.shutdown"), default=0)
    worker_cpu = attr("parallel.shutdown", "worker_cpu_s")
    scan_tasks = attr("engine.scans", "tasks")
    scan_pairs = {tuple(pair) for span in spans
                  if span["name"] == "engine.scans"
                  for pair in span["attrs"]["pairs"]}
    swap_calls = count("kernels.swap")
    out = {
        "relation.read_csv_s": total("relation.read_csv") * per_op,
        "relation.encode_s": total("relation.encode") * per_op,
        "engine.run_s": run_s * per_op,
        "engine.planner_self_s": (run_s - products_s - scans_s) * per_op,
        "engine.levels": attr("engine.run", "levels") * per_op,
        "engine.products_s": products_s * per_op,
        "engine.products.tasks": attr("engine.products", "tasks") * per_op,
        "engine.scans_s": scans_s * per_op,
        "engine.scans.tasks": scan_tasks * per_op,
        "engine.scans.tasks_per_context_attr": _ratio(scan_tasks,
                                                      len(scan_pairs)),
        "kernels.swap.rows_per_call": _ratio(attr("kernels.swap", "rows"),
                                             swap_calls),
        "partitions.product_s": total("partitions.product") * per_op,
        "partitions.product.calls": count("partitions.product") * per_op,
        "partitions.cache_hit_ratio": _ratio(attr("partitions.cache",
                                                  "hit"),
                                             count("partitions.cache")),
        "parallel.boot_s": total("parallel.boot") * per_op,
        "parallel.dispatch_s": dispatch_s * per_op,
        "parallel.tasks": attr("parallel.dispatch", "tasks") * per_op,
        "parallel.retries": attr("engine.run", "retries") * per_op,
        "parallel.worker_cpu_s": worker_cpu * per_op,
        "parallel.utilization": _ratio(worker_cpu, workers * dispatch_s),
        "incremental.apply_delta_s": (total("incremental.apply_delta")
                                      * per_op),
        "incremental.retraversed_ratio": _ratio(
            attr("incremental.apply_delta", "retraversed"),
            count("incremental.apply_delta")),
        "deltalog.append_s": total("deltalog.append") * per_op,
        "deltalog.bytes_per_user_byte": _ratio(
            attr("deltalog.append", "log_bytes"),
            attr("deltalog.append", "user_bytes")),
        "server.submit_s": total("server.submit") * per_op,
        "server.store_get_s": total("server.store_get") * per_op,
        "server.store_hit_ratio": _ratio(attr("server.store_get", "hit"),
                                         count("server.store_get")),
        "server.store_put_s": total("server.store_put") * per_op,
        "server.catalog_get_s": total("server.catalog_get") * per_op,
    }
    for kernel in ("product", "swap", "split", "densify"):
        out[f"kernels.{kernel}_s"] = total(f"kernels.{kernel}") * per_op
        out[f"kernels.{kernel}.calls"] = count(f"kernels.{kernel}") * per_op
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_time[layer] * per_op
    return out


def root_seconds(spans: List[dict]) -> float:
    """Summed duration of the spans with no recorded parent."""
    return sum(span["end"] - span["start"] for span in spans
               if span["parent"] is None)


def request_seconds(spans: List[dict]) -> float:
    """Summed duration of the server-side request spans."""
    return sum(span["end"] - span["start"] for span in spans
               if span["name"] == "service.request")
