"""Incremental OD monitor: agrees with batch re-validation."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.od import CanonicalFD
from repro.core.parser import parse
from repro.core.validation import CanonicalValidator
from repro.errors import SchemaError
from repro.relation.table import Relation
from repro.violations import ODMonitor
from tests.conftest import make_relation


class TestFdMonitoring:
    def test_accepts_consistent(self):
        monitor = ODMonitor(["k", "v"], ["{k}: [] -> v"])
        assert monitor.insert((1, "a")) is None
        assert monitor.insert((2, "b")) is None
        assert monitor.insert((1, "a")) is None
        assert monitor.n_accepted == 3

    def test_rejects_split(self):
        monitor = ODMonitor(["k", "v"], ["{k}: [] -> v"])
        monitor.insert((1, "a"))
        rejected = monitor.insert((1, "b"))
        assert rejected is not None
        assert rejected.od == CanonicalFD({"k"}, "v")
        assert "constant" in rejected.reason

    def test_rejected_rows_not_folded_in(self):
        monitor = ODMonitor(["k", "v"], ["{k}: [] -> v"])
        monitor.insert((1, "a"))
        monitor.insert((1, "b"))           # rejected
        assert monitor.insert((1, "a")) is None  # 'a' is still the value

    def test_empty_context_constant(self):
        monitor = ODMonitor(["x"], ["{}: [] -> x"])
        assert monitor.insert((7,)) is None
        assert monitor.insert((8,)) is not None


class TestOcdMonitoring:
    def test_accepts_monotone(self):
        monitor = ODMonitor(["a", "b"], ["{}: a ~ b"])
        for row in [(1, 10), (3, 30), (2, 20), (3, 35)]:
            assert monitor.insert(row) is None

    def test_rejects_swap_below(self):
        monitor = ODMonitor(["a", "b"], ["{}: a ~ b"])
        monitor.insert((1, 10))
        rejected = monitor.insert((2, 5))
        assert rejected is not None
        assert "lower A-group" in rejected.reason

    def test_rejects_swap_above(self):
        monitor = ODMonitor(["a", "b"], ["{}: a ~ b"])
        monitor.insert((5, 50))
        rejected = monitor.insert((1, 60))
        assert rejected is not None
        assert "higher A-group" in rejected.reason

    def test_equal_a_widens_interval(self):
        monitor = ODMonitor(["a", "b"], ["{}: a ~ b"])
        assert monitor.insert((1, 10)) is None
        assert monitor.insert((1, 30)) is None   # same group, wider
        assert monitor.insert((2, 20)) is not None  # inside the gap

    def test_equal_b_boundaries_allowed(self):
        # swaps are strict: equal Bs across A groups are fine
        monitor = ODMonitor(["a", "b"], ["{}: a ~ b"])
        assert monitor.insert((1, 10)) is None
        assert monitor.insert((2, 10)) is None

    def test_contextual(self):
        monitor = ODMonitor(["g", "a", "b"], ["{g}: a ~ b"])
        assert monitor.insert((0, 1, 9)) is None
        assert monitor.insert((1, 2, 1)) is None   # other class: fresh
        assert monitor.insert((0, 2, 1)) is not None


class TestApi:
    def test_insert_many(self):
        monitor = ODMonitor(["a", "b"], ["{}: a ~ b"])
        rejections = monitor.insert_many(
            [(1, 1), (2, 2), (3, 1), (4, 4)])
        assert len(rejections) == 1
        assert monitor.n_accepted == 3
        assert monitor.violations == rejections

    def test_from_relation(self):
        relation = make_relation(2, [(1, 10), (2, 20)])
        monitor = ODMonitor.from_relation(relation, ["{}: c0 ~ c1"])
        assert monitor.insert((3, 15)) is not None

    def test_from_relation_rejects_dirty_seed(self):
        relation = make_relation(2, [(1, 20), (2, 10)])
        with pytest.raises(ValueError):
            ODMonitor.from_relation(relation, ["{}: c0 ~ c1"])

    def test_unknown_attribute(self):
        with pytest.raises(SchemaError):
            ODMonitor(["a"], ["{}: a ~ zzz"])

    def test_non_canonical_rejected(self):
        with pytest.raises(TypeError):
            ODMonitor(["a", "b"], [parse("[a] -> [b]")])

    def test_wrong_width(self):
        monitor = ODMonitor(["a", "b"], ["{}: a ~ b"])
        with pytest.raises(ValueError):
            monitor.insert((1,))

    def test_mixed_value_types(self):
        monitor = ODMonitor(["a", "b"], ["{}: a ~ b"])
        assert monitor.insert((1, None)) is None
        assert monitor.insert((2, "x")) is None   # None < str: fine
        assert monitor.insert((3, 5)) is not None  # number < str: swap


class TestDifferentialAgainstBatch:
    """The core guarantee: accept iff the accepted-so-far relation plus
    the new row still satisfies every dependency."""

    DEPS = ["{}: c0 ~ c1", "{c2}: [] -> c0", "{c2}: c0 ~ c1"]

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3),
                              st.integers(0, 1)),
                    max_size=15))
    def test_matches_batch_validation(self, rows):
        monitor = ODMonitor(["c0", "c1", "c2"], self.DEPS)
        accepted = []
        parsed = [parse(d) for d in self.DEPS]
        for row in rows:
            candidate = Relation.from_rows(
                ["c0", "c1", "c2"], accepted + [row])
            validator = CanonicalValidator(candidate.encode())
            expected_ok = all(validator.holds(d) for d in parsed)
            actually_ok = monitor.insert(row) is None
            assert actually_ok == expected_ok, (row, accepted)
            if actually_ok:
                accepted.append(row)

    def test_long_random_stream(self):
        rng = random.Random(11)
        monitor = ODMonitor(["c0", "c1", "c2"], self.DEPS)
        accepted = []
        parsed = [parse(d) for d in self.DEPS]
        for _ in range(200):
            row = (rng.randint(0, 5), rng.randint(0, 5),
                   rng.randint(0, 2))
            ok = monitor.insert(row) is None
            if ok:
                accepted.append(row)
        final = Relation.from_rows(["c0", "c1", "c2"], accepted)
        validator = CanonicalValidator(final.encode())
        assert all(validator.holds(d) for d in parsed)


class TestEdgeCases:
    """Unseen values, duplicates, interleaved context classes."""

    def test_unseen_values_between_existing(self):
        monitor = ODMonitor(["a", "b"], ["{}: a ~ b"])
        assert monitor.insert((10, 100)) is None
        assert monitor.insert((30, 300)) is None
        # values strictly between everything seen so far
        assert monitor.insert((20, 200)) is None
        # and one that lands between on A but swaps on B
        rejected = monitor.insert((25, 150))
        assert rejected is not None

    def test_unseen_value_types_mix(self):
        monitor = ODMonitor(["k", "v"], ["{k}: [] -> v"])
        assert monitor.insert((1, "x")) is None
        assert monitor.insert((None, 2.5)) is None     # unseen kinds
        assert monitor.insert(("key", True)) is None
        assert monitor.insert((1, "x")) is None
        assert monitor.insert((None, 2.5)) is None

    def test_duplicate_rows_always_accepted(self):
        monitor = ODMonitor(["a", "b", "c"],
                            ["{c}: [] -> a", "{c}: a ~ b"])
        row = (1, 2, 3)
        for _ in range(5):
            assert monitor.insert(row) is None
        assert monitor.n_accepted == 5

    def test_interleaved_context_classes(self):
        # two context classes fed alternately; each stays independent
        monitor = ODMonitor(["ctx", "a", "b"], ["{ctx}: a ~ b"])
        stream = [("x", 1, 10), ("y", 9, 90), ("x", 2, 20),
                  ("y", 8, 80), ("x", 3, 30), ("y", 7, 70)]
        for row in stream:
            assert monitor.insert(row) is None
        # a swap inside class "x" only; "y" keeps accepting
        assert monitor.insert(("x", 4, 5)) is not None
        assert monitor.insert(("y", 10, 95)) is None

    def test_interleaved_constancy_classes(self):
        monitor = ODMonitor(["ctx", "v"], ["{ctx}: [] -> v"])
        for row in [("x", 1), ("y", 2), ("x", 1), ("y", 2)]:
            assert monitor.insert(row) is None
        assert monitor.insert(("x", 2)) is not None
        assert monitor.insert(("y", 2)) is None


class TestReplayedBatchEquivalence:
    """Replaying any accepted stream through ViolationDetector agrees:
    a batch is violation-free iff the detector says the dependency
    holds on the concatenated relation."""

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2),
                              st.integers(0, 1)),
                    min_size=1, max_size=12),
           st.sampled_from(["{}: c0 ~ c1", "{c2}: [] -> c0",
                            "{c2}: c0 ~ c1", "{c1,c2}: [] -> c0"]))
    def test_monitor_iff_detector(self, rows, dependency):
        from repro.violations.detect import ViolationDetector

        monitor = ODMonitor(["c0", "c1", "c2"], [dependency])
        rejections = monitor.insert_many(rows)
        relation = Relation.from_rows(["c0", "c1", "c2"], rows)
        report = ViolationDetector(relation).check(
            dependency, max_witnesses=0, count_pairs=False)
        assert (not rejections) == report.holds
