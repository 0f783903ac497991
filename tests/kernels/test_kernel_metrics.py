"""Per-kernel observability: call/seconds counters by backend."""

from __future__ import annotations

import numpy as np
import pytest

from repro import kernels
from repro.obs import metrics

VALUES = np.array([5, 2, 5, 9], dtype=np.int64)


def _calls(backend):
    return metrics.REGISTRY.value(
        "repro_kernel_calls_total", kernel="densify", backend=backend)


def _seconds(backend):
    return metrics.REGISTRY.value(
        "repro_kernel_seconds_total", kernel="densify", backend=backend)


def test_dispatch_bills_calls_and_seconds_by_backend():
    with kernels.activate("reference"):
        calls_before = _calls("reference")
        seconds_before = _seconds("reference")
        kernels.densify(VALUES)
        kernels.densify(VALUES)
    assert _calls("reference") == calls_before + 2
    assert _seconds("reference") >= seconds_before


def test_all_four_kernel_families_bill():
    from repro.partitions.partition import partition_from_columns
    from tests.conftest import make_relation

    encoded = make_relation(
        3, [(i % 3, i % 2, i % 4) for i in range(40)]).encode()
    context = partition_from_columns(encoded, [0])
    registry = metrics.REGISTRY
    before = {
        kernel: registry.value("repro_kernel_calls_total",
                               kernel=kernel, backend="reference")
        for kernel in ("product", "swap", "split", "densify")
    }
    with kernels.activate("reference"):
        kernels.partition_product(
            context.row_to_class(), context.rows, context.offsets,
            context.class_ids(), context.n_classes)
        kernels.swap_flags(
            encoded.column(1), encoded.column(2), context.rows,
            context.offsets, context.class_ids())
        kernels.split_mismatch(
            encoded.column(1), context.rows, context.offsets,
            context.class_sizes)
        kernels.densify(VALUES)
    for kernel in before:
        assert registry.value(
            "repro_kernel_calls_total", kernel=kernel,
            backend="reference") == before[kernel] + 1, kernel


def test_compiled_backend_bills_its_own_label():
    if not kernels.compiled_available():
        pytest.skip("no C toolchain; compiled backend unavailable")
    before = _calls("compiled")
    with kernels.activate("compiled"):
        kernels.densify(VALUES)
    assert _calls("compiled") == before + 1


def test_billing_short_circuits_when_registry_disabled():
    metrics.set_enabled(False)
    try:
        before = _calls("reference")
        with kernels.activate("reference"):
            kernels.densify(VALUES)  # still computes...
        assert _calls("reference") == before  # ...but bills nothing
    finally:
        metrics.set_enabled(True)


def _calls_by_backend():
    """Kernel calls billed so far, summed over kernels, per backend."""
    return {backend: sum(
        metrics.REGISTRY.value("repro_kernel_calls_total", kernel=kernel,
                               backend=backend)
        for kernel in ("product", "swap", "split", "densify"))
        for backend in ("reference", "compiled")}


@pytest.fixture
def compiled_default(monkeypatch):
    """The process default is the compiled backend (restored after)."""
    if not kernels.compiled_available():
        pytest.skip("no C toolchain; compiled backend unavailable")
    monkeypatch.setattr(kernels, "_default", None)
    kernels.set_default_backend("compiled")


def test_pool_threads_bill_the_configured_backend(compiled_default):
    """Pool threads inherit the run's backend through the context."""
    import threading

    from repro.core.fastod import FastOD, FastODConfig
    from repro.datasets import make_dataset

    relation = make_dataset("flight", n_rows=400, n_attrs=5, seed=3)
    threads = set()
    original = kernels.swap_flags

    def spy(*args):
        threads.add(threading.current_thread().name)
        return original(*args)

    before = _calls_by_backend()
    try:
        kernels.swap_flags = spy
        result = FastOD(relation, FastODConfig(
            workers=2, parallel_min_grouped_rows=0,
            kernel_backend="reference")).run()
    finally:
        kernels.swap_flags = original
    after = _calls_by_backend()
    assert any(name.startswith("repro-pool") for name in threads)
    assert result.executor_stats["phases"]["ocd-scan"]["pool_tasks"] > 0
    assert after["compiled"] == before["compiled"]
    assert after["reference"] > before["reference"]


def test_incremental_engine_bills_the_configured_backend(
        compiled_default):
    from repro.core.fastod import FastODConfig
    from repro.datasets import make_dataset
    from repro.deltalog import DeltaBatch
    from repro.incremental import IncrementalFastOD

    relation = make_dataset("flight", n_rows=300, n_attrs=5, seed=2)
    batch = list(make_dataset("flight", n_rows=40, n_attrs=5,
                              seed=100).rows())
    before = _calls_by_backend()
    engine = IncrementalFastOD(
        relation, FastODConfig(kernel_backend="reference"))
    built = _calls_by_backend()
    engine.append(batch)
    appended = _calls_by_backend()
    engine.apply_delta(DeltaBatch.from_request(
        {"deletes": [list(relation.row(0))]}, relation.arity))
    after = _calls_by_backend()
    assert after["compiled"] == before["compiled"]
    assert before["reference"] < built["reference"] \
        < appended["reference"] < after["reference"]
