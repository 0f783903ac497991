"""Task-failure recovery at the executor layer.

One injected task failure on a pool thread must cost a retry, never an
answer: the chunks that finished are kept, the unfinished tasks of the
batch re-run on the serial path, the executor is marked degraded, and
the merged results are byte-identical to a clean run.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro import faults
from repro.core.fastod import FastOD, FastODConfig
from repro.datasets import make_dataset
from repro.engine import DeadlineBudget, PoolExecutor, ProductTask
from repro.engine.executors import SerialExecutor
from repro.faults import FaultPlan
from repro.parallel.pool import WorkerPool, WorkerTaskError
from repro.partitions.partition import StrippedPartition


@pytest.fixture(scope="module")
def relation():
    return make_dataset("flight", n_rows=300, n_attrs=5, seed=6)


@pytest.fixture(scope="module")
def encoded(relation):
    return relation.encode()


def singleton_partitions(encoded):
    return {1 << a: StrippedPartition.for_attribute(encoded, a)
            for a in range(encoded.arity)}


def scan_tasks(encoded):
    return [((a, b), 1 << a, "swap", a, b)
            for a in range(encoded.arity)
            for b in range(encoded.arity) if a != b]


def one_shot(site: str, **kwargs) -> FaultPlan:
    """A plan that fires ``site`` exactly once."""
    return FaultPlan(seed=0, rates={site: 1.0}, limits={site: 1},
                     **kwargs)


def canonical(result_dict):
    """A discovery result with its timing/telemetry noise stripped —
    what "byte-identical" means across serial and chaotic runs."""
    stripped = dict(result_dict)
    for key in ("elapsed_seconds", "executor", "cache", "timings"):
        stripped.pop(key, None)
    stripped["levels"] = [
        {k: v for k, v in level.items()
         if k not in ("seconds", "peak_partition_bytes")}
        for level in stripped.get("levels", ())]
    return stripped


class TestExecutorRecovery:
    """PoolExecutor dispatch batches survive injected task failures."""

    def test_worker_task_fault_quarantines_to_serial(self, encoded):
        contexts = singleton_partitions(encoded)
        tasks = scan_tasks(encoded)
        budget = DeadlineBudget.unlimited()
        clean, _ = SerialExecutor(encoded).run_scans(
            dict(contexts), list(tasks), budget)
        with faults.injected(one_shot("worker.task")) as plan:
            with PoolExecutor(encoded, 2, min_grouped_rows=0) as ex:
                verdicts, timed_out = ex.run_scans(
                    dict(contexts), list(tasks), budget)
                stats = ex.telemetry.snapshot()
        assert plan.fired == {"worker.task": 1}
        assert not timed_out
        assert verdicts == clean
        assert stats["retries"] == 1
        assert stats["degraded"] is True
        # the failed chunk's tasks, and only those, ran serially
        scans = stats["phases"]["scans"]
        assert scans["tasks"] == len(tasks)
        assert 0 < scans["serial_tasks"] < len(tasks)

    def test_worker_task_fault_products_byte_identical(self, encoded):
        parents = singleton_partitions(encoded)
        tasks = [ProductTask((1 << a) | (1 << b), 1 << a, 1 << b)
                 for a in range(encoded.arity)
                 for b in range(a + 1, encoded.arity)]
        budget = DeadlineBudget.unlimited()
        clean, _ = SerialExecutor(encoded).run_products(
            dict(parents), list(tasks), budget)
        with faults.injected(one_shot("worker.task")):
            with PoolExecutor(encoded, 2, min_grouped_rows=0) as ex:
                products, timed_out = ex.run_products(
                    dict(parents), list(tasks), budget)
                stats = ex.telemetry.snapshot()
        assert not timed_out
        assert products.keys() == clean.keys()
        for child, partition in clean.items():
            assert np.array_equal(partition.rows, products[child].rows)
            assert np.array_equal(partition.offsets,
                                  products[child].offsets)
        assert stats["retries"] == 1
        assert stats["degraded"] is True

    def test_crash_with_cancelled_budget_returns_promptly(self,
                                                          encoded):
        """The cancel-races-failure corner: a revoked budget plus a
        failing task must neither hang nor answer wrongly — the batch
        either drains as timed out or completes."""
        contexts = singleton_partitions(encoded)
        tasks = scan_tasks(encoded)
        budget = DeadlineBudget(3600.0)
        budget.cancel()
        with faults.injected(one_shot("worker.task")):
            with PoolExecutor(encoded, 2, min_grouped_rows=0) as ex:
                verdicts, timed_out = ex.run_scans(
                    dict(contexts), list(tasks), budget)
        assert timed_out or len(verdicts) == len(tasks)


class TestWorkerPoolTaskFailure:
    """The raw pool contract: a failed chunk raises a typed error that
    carries the other chunks' results, and the pool stays usable."""

    def test_task_fault_reports_partials(self, encoded):
        contexts = singleton_partitions(encoded)
        tasks = scan_tasks(encoded)
        with WorkerPool(encoded, 2) as pool:
            with faults.injected(one_shot("worker.task")):
                with pytest.raises(WorkerTaskError) as caught:
                    pool.run_scans(contexts, tasks)
            partials = caught.value.partial_results
            assert len(partials) == pool.n_chunks_per_dispatch - 1
            for chunk in partials:
                assert chunk["results"] and not chunk["timed_out"]
            assert not pool.closed
            verdicts, _ = pool.run_scans(contexts, tasks)
        assert len(verdicts) == len(tasks)


class TestSeedMatrix:
    """The CI chaos job sweeps ``REPRO_FAULT_SEED``; whatever mix of
    faults a seed produces, discovery must return the clean answer."""

    def test_mixed_faults_byte_identical(self, relation):
        seed = int(os.environ.get("REPRO_FAULT_SEED", "0"))
        clean = canonical(FastOD(relation,
                                 FastODConfig()).run().to_dict())
        plan = FaultPlan(seed=seed, rates={"worker.task": 0.25})
        config = FastODConfig(workers=2, parallel_min_grouped_rows=0)
        with faults.injected(plan):
            chaotic = canonical(
                FastOD(relation, config).run().to_dict())
        assert chaotic == clean, (
            f"seed {seed} diverged; fired: {plan.log}")
