"""Executors: serial/pool equivalence, gating, telemetry."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.validation import (
    dominance_holds_ranks,
    is_compatible_in_classes,
    is_constant_in_classes,
)
from repro.datasets import employees, make_dataset
from repro.engine import (
    DeadlineBudget,
    PoolExecutor,
    ProductTask,
    SerialExecutor,
    make_executor,
)
from repro.kernels import thresholds
from repro.parallel.pool import WorkerPool
from repro.partitions.cache import PartitionCache
from repro.partitions.partition import StrippedPartition


@pytest.fixture()
def no_row_floor(monkeypatch):
    """Let mask-derived validations dispatch on a 200-row relation."""
    monkeypatch.setattr(thresholds, "PARALLEL_MIN_ROWS", 0)


@pytest.fixture(scope="module")
def encoded():
    return make_dataset("flight", n_rows=200, n_attrs=5,
                        seed=21).encode()


def all_mask_tasks(encoded, mode):
    arity = encoded.arity
    tasks = []
    for mask in range(1 << arity):
        for a in range(arity):
            if mask & (1 << a):
                continue
            for b in range(arity):
                if b <= a or mask & (1 << b):
                    continue
                tasks.append(((mask, a, b), mask, mode, a, b))
    return tasks


class TestMakeExecutor:
    def test_serial_by_default(self, encoded, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        executor = make_executor(encoded)
        assert type(executor) is SerialExecutor

    def test_env_opts_into_pool(self, encoded, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        executor = make_executor(encoded)
        assert isinstance(executor, PoolExecutor)
        assert executor.workers == 3
        executor.close()

    def test_explicit_workers_beat_injected_pool(self, encoded):
        with WorkerPool(2) as pool:
            executor = make_executor(encoded, workers=4, pool=pool)
            assert isinstance(executor, PoolExecutor)
            assert executor.workers == 4
            executor.close()
            assert not pool.closed   # injected pools are the caller's

    def test_one_worker_is_serial_even_with_pool(self, encoded):
        with WorkerPool(2) as pool:
            executor = make_executor(encoded, workers=1, pool=pool)
            assert type(executor) is SerialExecutor


class TestSerialPoolEquivalence:
    @pytest.mark.parametrize("mode", ["const", "swap", "swap_desc"])
    def test_validations_agree(self, encoded, mode, no_row_floor):
        tasks = all_mask_tasks(encoded, mode)
        budget = DeadlineBudget.unlimited()
        serial, _ = SerialExecutor(encoded).run_validations(
            tasks, budget)
        pooled_executor = PoolExecutor(encoded, 2)
        try:
            pooled, _ = pooled_executor.run_validations(tasks, budget)
        finally:
            pooled_executor.close()
        assert serial == pooled
        assert len(serial) == len(tasks)

    def test_pointwise_validations_agree(self, encoded, no_row_floor):
        arity = encoded.arity
        tasks = []
        for lhs_mask in range(1, 1 << arity):
            for target in range(arity):
                if lhs_mask & (1 << target):
                    continue
                tasks.append(((lhs_mask, target), 0, "pointwise",
                              lhs_mask, target))
        budget = DeadlineBudget.unlimited()
        serial, _ = SerialExecutor(encoded).run_validations(
            tasks, budget)
        pooled_executor = PoolExecutor(encoded, 2)
        try:
            pooled, _ = pooled_executor.run_validations(tasks, budget)
        finally:
            pooled_executor.close()
        assert serial == pooled
        assert any(serial.values()) and not all(serial.values())

    def test_products_agree(self, encoded):
        cache = PartitionCache(encoded)
        parents = {1 << a: cache.get(1 << a)
                   for a in range(encoded.arity)}
        tasks = [ProductTask((1 << a) | (1 << b), 1 << a, 1 << b)
                 for a in range(encoded.arity)
                 for b in range(a + 1, encoded.arity)]
        budget = DeadlineBudget.unlimited()
        serial, timed = SerialExecutor(encoded).run_products(
            parents, tasks, budget)
        assert not timed
        pooled_executor = PoolExecutor(encoded, 2, min_grouped_rows=0)
        try:
            pooled, timed = pooled_executor.run_products(
                parents, tasks, budget)
        finally:
            pooled_executor.close()
        assert not timed
        assert set(serial) == set(pooled)
        for mask in serial:
            assert np.array_equal(serial[mask].rows, pooled[mask].rows)
            assert np.array_equal(serial[mask].offsets,
                                  pooled[mask].offsets)


class TestKernelModes:
    """The serial kernels the modes map onto (oracle checks)."""

    def test_swap_desc_is_negated_right_column(self, encoded):
        context = StrippedPartition.single_class(encoded.n_rows)
        a, b = 0, 1
        budget = DeadlineBudget.unlimited()
        verdicts, _ = SerialExecutor(encoded).run_validations(
            [(0, 0, "swap_desc", a, b)], budget)
        assert verdicts[0] == is_compatible_in_classes(
            encoded.column(a), -encoded.column(b), context)

    def test_const_matches_kernel(self, encoded):
        cache = PartitionCache(encoded)
        budget = DeadlineBudget.unlimited()
        verdicts, _ = SerialExecutor(encoded).run_validations(
            [(0, 0b110, "const", 0, 0)], budget)
        assert verdicts[0] == is_constant_in_classes(
            encoded.column(0), cache.get(0b110))

    def test_pointwise_matches_public_validator(self):
        from repro.extensions import PointwiseOD, pointwise_od_holds

        relation = employees()
        encoded = relation.encode()
        names = encoded.names
        for lhs_mask in range(1, 1 << min(encoded.arity, 4)):
            lhs = [names[i] for i in range(encoded.arity)
                   if lhs_mask & (1 << i)]
            for target in range(encoded.arity):
                if lhs_mask & (1 << target):
                    continue
                od = PointwiseOD(frozenset(lhs),
                                 frozenset({names[target]}))
                assert dominance_holds_ranks(
                    encoded.ranks, lhs_mask, target) \
                    == pointwise_od_holds(relation, od), str(od)


class TestTelemetry:
    def test_serial_counts_tasks(self, encoded):
        executor = SerialExecutor(encoded)
        budget = DeadlineBudget.unlimited()
        executor.run_validations(all_mask_tasks(encoded, "swap")[:5],
                                 budget, phase="wave")
        snap = executor.telemetry.snapshot()
        assert snap["backend"] == "serial"
        assert snap["phases"]["wave"]["tasks"] == 5
        assert snap["phases"]["wave"]["serial_tasks"] == 5
        assert snap["phases"]["wave"]["pool_tasks"] == 0

    def test_pool_records_split(self, encoded, no_row_floor):
        executor = PoolExecutor(encoded, 2)
        budget = DeadlineBudget.unlimited()
        try:
            executor.run_validations(
                all_mask_tasks(encoded, "swap")[:6], budget,
                phase="wave")
            # a single-task batch falls back to the serial twin
            executor.run_validations(
                all_mask_tasks(encoded, "swap")[:1], budget,
                phase="wave")
        finally:
            executor.close()
        snap = executor.telemetry.snapshot()
        assert snap["backend"] == "pool"
        assert snap["workers"] == 2
        assert snap["phases"]["wave"]["pool_tasks"] == 6
        assert snap["phases"]["wave"]["serial_tasks"] == 1
        assert snap["phases"]["wave"]["tasks"] == 7
        assert snap["phases"]["wave"]["dispatches"] == 2

    def test_subthreshold_batches_stay_serial(self, encoded,
                                              monkeypatch):
        monkeypatch.setattr(thresholds, "PARALLEL_MIN_ROWS",
                            encoded.n_rows + 1)
        executor = PoolExecutor(encoded, 2)
        budget = DeadlineBudget.unlimited()
        try:
            executor.run_validations(
                all_mask_tasks(encoded, "swap")[:6], budget,
                phase="wave")
        finally:
            executor.close()
        snap = executor.telemetry.snapshot()
        assert snap["phases"]["wave"]["pool_tasks"] == 0
        assert snap["phases"]["wave"]["serial_tasks"] == 6
