"""Observability under injected faults.

A task that fails on a pool thread must not take the job's timeline
down with it: the failed task and dispatch spans close tagged with the
error (not dropped), the serial re-run's spans follow, and every
exported span keeps a resolvable parent."""

from __future__ import annotations

import pytest

from repro import faults
from repro.core.fastod import FastOD, FastODConfig
from repro.datasets import make_dataset
from repro.engine import DeadlineBudget, PoolExecutor
from repro.engine.executors import SerialExecutor
from repro.faults import FaultPlan
from repro.obs import trace
from repro.partitions.partition import StrippedPartition


@pytest.fixture(scope="module")
def relation():
    return make_dataset("flight", n_rows=300, n_attrs=5, seed=6)


def one_shot(site: str, **kwargs) -> FaultPlan:
    return FaultPlan(seed=0, rates={site: 1.0}, limits={site: 1},
                     **kwargs)


def traced_chaos_run(relation, site):
    config = FastODConfig(workers=2, parallel_min_grouped_rows=0)
    buffer = trace.TraceBuffer()
    with faults.injected(one_shot(site)):
        with trace.collect(buffer):
            result = FastOD(relation, config).run()
    return result, buffer.export()


def assert_timeline_intact(spans):
    """Every span resolves to the root through exported parents, and
    intervals are sane — nothing half-written by a crashed dispatch."""
    assert spans
    ids = {s["id"] for s in spans}
    names = {s["name"] for s in spans}
    assert "job" not in names           # engine-level run, no service
    assert "level" in names
    assert "pool-dispatch" in names
    for span in spans:
        assert span["parent"] == 0 or span["parent"] in ids
        assert span["end"] >= span["start"]
        assert span["seconds"] >= 0.0


class TestCrashKeepsTimeline:
    def test_task_fault_mid_run(self, relation):
        result, spans = traced_chaos_run(relation, "worker.task")
        clean = FastOD(relation, FastODConfig(workers=1)).run()
        assert sorted(map(str, result.ocds)) == sorted(
            map(str, clean.ocds))
        assert_timeline_intact(spans)

    def test_failed_dispatch_span_is_tagged(self, relation):
        encoded = relation.encode()
        contexts = {1 << a: StrippedPartition.for_attribute(encoded, a)
                    for a in range(encoded.arity)}
        tasks = [((a, b), 1 << a, "swap", a, b)
                 for a in range(encoded.arity)
                 for b in range(encoded.arity) if a != b]
        budget = DeadlineBudget.unlimited()
        clean, _ = SerialExecutor(encoded).run_scans(
            dict(contexts), list(tasks), budget)
        buffer = trace.TraceBuffer()
        with faults.injected(one_shot("worker.task")):
            with PoolExecutor(encoded, 2, min_grouped_rows=0) as ex:
                with trace.collect(buffer):
                    verdicts, _ = ex.run_scans(
                        dict(contexts), list(tasks), budget)
        assert verdicts == clean
        spans = buffer.export()
        ids = {s["id"] for s in spans}
        dispatches = [s for s in spans if s["name"] == "pool-dispatch"]
        assert [s.get("error") for s in dispatches] == ["WorkerTaskError"]
        assert [s.get("error") for s in spans if s["name"] == "task"
                ].count("FaultInjected") == 1
        for span in spans:
            assert span["parent"] == 0 or span["parent"] in ids
            assert span["end"] >= span["start"]
