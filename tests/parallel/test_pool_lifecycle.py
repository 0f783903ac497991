"""WorkerPool operations and lifecycle: results match the serial
kernels, one pool serves any relation a dispatch brings, and shutdown —
however it is reached — stops every pool thread."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.core.validation import is_compatible_in_classes
from repro.datasets import make_dataset
from repro.engine import ProductTask
from repro.parallel.pool import WorkerPool
from repro.partitions.partition import StrippedPartition


@pytest.fixture()
def encoded():
    return make_dataset("flight", n_rows=300, n_attrs=5, seed=6).encode()


def pool_threads():
    return {thread for thread in threading.enumerate()
            if thread.name.startswith("repro-pool")}


def singleton_partitions(encoded):
    return {1 << a: StrippedPartition.for_attribute(encoded, a)
            for a in range(encoded.arity)}


class TestPoolOperations:
    def test_products_match_serial(self, encoded):
        parents = singleton_partitions(encoded)
        tasks = [ProductTask((1 << a) | (1 << b), 1 << a, 1 << b)
                 for a in range(encoded.arity)
                 for b in range(a + 1, encoded.arity)]
        with WorkerPool(2) as pool:
            products, timed_out = pool.run_products(parents, tasks)
            assert not timed_out
            for task in tasks:
                serial = parents[task.left].product(parents[task.right])
                pooled = products[task.child]
                assert np.array_equal(serial.rows, pooled.rows)
                assert np.array_equal(serial.offsets, pooled.offsets)

    def test_scans_match_serial(self, encoded):
        parents = singleton_partitions(encoded)
        tasks = [((a, b), 1 << a, "swap", a, b)
                 for a in range(encoded.arity)
                 for b in range(encoded.arity) if a != b]
        with WorkerPool(2) as pool:
            verdicts, timed_out = pool.run_scans(parents, tasks,
                                                 encoded.ranks)
        assert not timed_out
        for (a, b), verdict in verdicts.items():
            expected = is_compatible_in_classes(
                encoded.column(a), encoded.column(b), parents[1 << a])
            assert verdict == expected

    def test_validations_match_serial(self, encoded):
        from repro.partitions.cache import PartitionCache

        cache = PartitionCache(encoded)
        tasks = [((mask, a, b), mask, "swap", a, b)
                 for mask in (1, 2, 3, 6)
                 for a, b in ((3, 4),)]
        with WorkerPool(2) as pool:
            verdicts, _ = pool.run_validations(tasks, encoded)
        for (mask, a, b), verdict in verdicts.items():
            assert verdict == is_compatible_in_classes(
                encoded.column(a), encoded.column(b), cache.get(mask))

    def test_one_pool_serves_two_relations(self, encoded):
        bigger = make_dataset("flight", n_rows=450, n_attrs=5,
                              seed=7).encode()
        with WorkerPool(2) as pool:
            for relation in (encoded, bigger, encoded):
                parents = singleton_partitions(relation)
                verdicts, _ = pool.run_scans(
                    parents, [((0,), 1, "swap", 0, 1)], relation.ranks)
                assert verdicts[(0,)] == is_compatible_in_classes(
                    relation.column(0), relation.column(1), parents[1])
                verdicts, _ = pool.run_validations(
                    [(0, 0b100, "swap", 0, 1)], relation)
                assert verdicts[0] == is_compatible_in_classes(
                    relation.column(0), relation.column(1),
                    StrippedPartition.for_attribute(relation, 2))


class TestShutdownHygiene:
    def test_shutdown_is_idempotent(self, encoded):
        pool = WorkerPool(2)
        pool.shutdown()
        pool.shutdown()
        assert pool.closed

    def test_keyboard_interrupt_in_with_block_cleans_up(self, encoded):
        before = pool_threads()
        with pytest.raises(KeyboardInterrupt):
            with WorkerPool(2) as pool:
                pool.run_scans(singleton_partitions(encoded),
                               [((0,), 1, "swap", 0, 1)], encoded.ranks)
                assert pool_threads() - before
                raise KeyboardInterrupt()
        assert pool.closed
        assert pool_threads() <= before

    def test_worker_task_error_propagates_traceback(self, encoded):
        from repro.parallel.pool import WorkerTaskError

        parents = singleton_partitions(encoded)
        with WorkerPool(2) as pool:
            with pytest.raises(WorkerTaskError, match="IndexError"):
                # column index out of range explodes on a pool thread
                pool.run_scans(parents, [((0,), 1, "swap", 0, 99)],
                               encoded.ranks)

    def test_finalizer_cleans_up_unclosed_pool(self, encoded):
        import gc

        before = pool_threads()
        pool = WorkerPool(2)
        pool.run_scans(singleton_partitions(encoded),
                       [((0,), 1, "swap", 0, 1)], encoded.ranks)
        started = pool_threads() - before
        assert started
        del pool
        gc.collect()
        for thread in started:
            thread.join(timeout=10.0)
        assert not any(thread.is_alive() for thread in started)
