"""Violation detection: witnesses are genuine, counts are exact."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.core.mapping import map_list_od
from repro.core.od import CanonicalFD, CanonicalOCD, ListOD
from repro.core.validation import (
    CanonicalValidator,
    Split,
    Swap,
    list_od_holds,
)
from repro.kernels import thresholds
from repro.obs import metrics
from repro.partitions.partition import StrippedPartition
from repro.violations import (
    ViolationDetector,
    check_dependency,
    count_split_pairs,
    count_swap_pairs,
)
from tests.conftest import make_relation, small_relations


class TestCountSplitPairs:
    def test_basic(self):
        column = np.array([1, 2, 2, 3])
        partition = StrippedPartition([[0, 1, 2, 3]], 4)
        # pairs differing on the column: C(4,2)=6 minus same-value (1)
        assert count_split_pairs(column, partition) == 5

    def test_no_splits(self):
        column = np.array([7, 7, 8])
        partition = StrippedPartition([[0, 1]], 3)
        assert count_split_pairs(column, partition) == 0

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                    min_size=0, max_size=10))
    def test_matches_quadratic_count(self, rows):
        relation = make_relation(2, rows)
        encoded = relation.encode()
        c0, c1 = encoded.column(0), encoded.column(1)
        partition = StrippedPartition.from_ranks(c0)
        expected = sum(
            1 for i in range(len(rows)) for j in range(i + 1, len(rows))
            if c0[i] == c0[j] and c1[i] != c1[j])
        assert count_split_pairs(c1, partition) == expected


class TestCountSwapPairs:
    def test_basic(self):
        a = np.array([0, 1, 2])
        b = np.array([2, 1, 0])
        partition = StrippedPartition([[0, 1, 2]], 3)
        assert count_swap_pairs(a, b, partition) == 3

    def test_equal_a_pairs_ignored(self):
        a = np.array([1, 1])
        b = np.array([9, 0])
        partition = StrippedPartition([[0, 1]], 2)
        assert count_swap_pairs(a, b, partition) == 0

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                    min_size=0, max_size=12))
    def test_matches_quadratic_count(self, pairs):
        a = np.array([p[0] for p in pairs], dtype=np.int64)
        b = np.array([p[1] for p in pairs], dtype=np.int64)
        partition = (StrippedPartition([list(range(len(pairs)))], len(pairs))
                     if len(pairs) >= 2 else StrippedPartition([], len(pairs)))
        expected = sum(
            1 for i in range(len(pairs)) for j in range(len(pairs))
            if a[i] < a[j] and b[i] > b[j])
        assert count_swap_pairs(a, b, partition) == expected


class TestDetector:
    def test_fd_report(self):
        relation = make_relation(2, [(1, 5), (1, 6), (2, 7)])
        report = check_dependency(relation, CanonicalFD({"c0"}, "c1"))
        assert not report.holds
        assert report.n_violating_pairs == 1
        witness = report.witnesses[0]
        assert relation.row(witness.row_s)[0] == \
            relation.row(witness.row_t)[0]

    def test_ocd_report(self):
        relation = make_relation(2, [(1, 2), (2, 1)])
        report = check_dependency(relation, CanonicalOCD(set(), "c0", "c1"))
        assert not report.holds
        assert report.n_violating_pairs == 1

    def test_string_dependency(self):
        relation = make_relation(2, [(1, 5), (2, 5)])
        report = check_dependency(relation, "{}: [] -> c1")
        assert report.holds

    def test_list_od_decomposed(self):
        relation = make_relation(2, [(1, 9), (1, 8), (2, 7)])
        report = check_dependency(relation, "[c0] -> [c1]")
        assert not report.holds
        assert report.parts  # Theorem 5 sub-reports present
        assert any(not part.holds for part in report.parts)

    def test_compatibility_dependency(self):
        relation = make_relation(2, [(1, 2), (2, 1)])
        report = check_dependency(relation, "[c0] ~ [c1]")
        assert not report.holds

    def test_trivial_dependency(self):
        relation = make_relation(1, [(1,), (2,)])
        assert check_dependency(relation, "{c0}: [] -> c0").holds

    def test_witness_limit(self):
        rows = [(i // 2, i) for i in range(20)]
        relation = make_relation(2, rows)
        report = ViolationDetector(relation).check(
            "{c0}: [] -> c1", max_witnesses=2)
        assert len(report.witnesses) == 2

    def test_unsupported_object(self):
        relation = make_relation(1, [(1,)])
        with pytest.raises(TypeError):
            ViolationDetector(relation).check(42)

    def test_report_str(self):
        relation = make_relation(2, [(1, 5), (1, 6)])
        report = check_dependency(relation, "{c0}: [] -> c1")
        text = str(report)
        assert "violated" in text and "split" in text

    @settings(max_examples=60, deadline=None)
    @given(small_relations(max_cols=3, max_rows=8, max_domain=2))
    def test_holds_agrees_with_validator(self, relation):
        """Detector, validator and the list-level oracle agree on FDs,
        OCDs and list ODs, and every witness is a genuine split or swap
        pair — under the stock scalar gates (these tiny inputs stay on
        the scalar paths) and with the gates at 0 (every check reaches
        the vectorized kernels)."""
        for gates in ("stock", "zero"):
            with pytest.MonkeyPatch.context() as patch:
                if gates == "zero":
                    patch.setattr(thresholds,
                                  "REFERENCE_SCALAR_THRESHOLD", 0)
                    patch.setattr(thresholds,
                                  "COMPILED_SCALAR_THRESHOLD", 0)
                self._check_agreement(relation)

    @staticmethod
    def _check_agreement(relation):
        detector = ViolationDetector(relation)
        validator = CanonicalValidator(relation)
        encoded = relation.encode()
        names = list(relation.names)

        def canonical(od):
            report = detector.check(od, max_witnesses=3)
            assert report.holds == validator.holds(od), od
            assert report.holds == (not report.witnesses), od
            assert_genuine(encoded, od, report.witnesses)
            return report

        for attribute in names:
            others = [n for n in names if n != attribute]
            for context in _subsets(others):
                canonical(CanonicalFD(frozenset(context), attribute))
        for left, right in itertools.combinations(names, 2):
            others = [n for n in names if n not in (left, right)]
            for context in _subsets(others):
                canonical(CanonicalOCD(frozenset(context), left, right))
        for lhs, rhs in itertools.permutations(
                [[n] for n in names] + [names[:2]], 2):
            od = ListOD(lhs, rhs)
            report = detector.check(od, max_witnesses=3)
            parts = map_list_od(od).all_ods
            assert report.holds == list_od_holds(relation, od), od
            assert report.holds == all(validator.holds(p) for p in parts)
            assert report.holds == (not report.witnesses), od
            for part, sub_report in zip(parts, report.parts):
                assert sub_report.dependency == str(part)
                assert_genuine(encoded, part, sub_report.witnesses)


def _subsets(names):
    return [combo for size in range(len(names) + 1)
            for combo in itertools.combinations(names, size)]


def assert_genuine(encoded, od, witnesses):
    """Each witness is a real violating pair (Definitions 4 and 5)."""
    column = {name: encoded.column(i)
              for i, name in enumerate(encoded.names)}
    for witness in witnesses:
        s, t = witness.row_s, witness.row_t
        for name in od.context:
            assert column[name][s] == column[name][t], (od, witness)
        if isinstance(od, CanonicalFD):
            assert isinstance(witness, Split)
            attr = column[od.attribute]
            assert attr[s] != attr[t], (od, witness)
        else:
            assert isinstance(witness, Swap)
            left, right = column[od.left], column[od.right]
            assert left[s] < left[t] and right[t] < right[s], \
                (od, witness)


class TestOneKernelPassPerCheck:
    """A held part costs one kernel pass, and a validate-style check
    (``max_witnesses=0``) never collects witnesses.  200 rows in one
    context class sit above the reference scalar gate."""

    @staticmethod
    def _calls(kernel):
        return metrics.REGISTRY.value("repro_kernel_calls_total",
                                      kernel=kernel, backend="reference")

    def test_held_ocd_and_violated_fd(self):
        relation = make_relation(
            2, [(i % 50, 2 * (i % 50)) for i in range(200)])
        detector = ViolationDetector(relation)
        with kernels.activate("reference"):
            before = self._calls("swap")
            assert detector.check("{}: c0 ~ c1").holds
            assert self._calls("swap") == before + 1
            before = self._calls("split")
            report = detector.check("{}: [] -> c0", max_witnesses=0,
                                    count_pairs=False)
            assert not report.holds and not report.witnesses
            assert self._calls("split") == before + 1
