"""Tests for Kendall's tau, cross-validated against scipy."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as scipy_stats

from repro.core import RankedList
from repro.stats.kendall import kendall_from_lists, kendall_tau
from tests.oracles.stats import kendall_tau_reference

paired = st.lists(
    st.tuples(
        st.floats(min_value=-50, max_value=50, allow_nan=False),
        st.floats(min_value=-50, max_value=50, allow_nan=False),
    ),
    min_size=3, max_size=30,
)

#: Small integer ranges force heavy ties in x, y, and jointly — the
#: cases where Knight's tie adjustments can drift from the definition.
tied_paired = st.lists(
    st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
    min_size=0, max_size=60,
)


class TestKendallTau:
    def test_perfect_agreement(self):
        assert kendall_tau([1, 2, 3], [10, 20, 30]) == pytest.approx(1.0)

    def test_perfect_disagreement(self):
        assert kendall_tau([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)

    def test_constant_is_nan(self):
        assert math.isnan(kendall_tau([1, 1, 1], [1, 2, 3]))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            kendall_tau([1], [1, 2])

    def test_ties_match_scipy(self):
        x = [1, 2, 2, 3, 3, 3]
        y = [1, 3, 2, 4, 4, 5]
        expected = scipy_stats.kendalltau(x, y).statistic
        assert kendall_tau(x, y) == pytest.approx(float(expected))

    @given(paired)
    @settings(max_examples=50)
    def test_matches_scipy(self, pairs):
        x = [p[0] for p in pairs]
        y = [p[1] for p in pairs]
        ours = kendall_tau(x, y)
        theirs = scipy_stats.kendalltau(x, y).statistic
        if math.isnan(ours) or (isinstance(theirs, float) and math.isnan(theirs)):
            assert math.isnan(ours) == math.isnan(float(theirs))
        else:
            assert ours == pytest.approx(float(theirs), abs=1e-9)

    @given(paired)
    @settings(max_examples=30)
    def test_bounded(self, pairs):
        tau = kendall_tau([p[0] for p in pairs], [p[1] for p in pairs])
        if not math.isnan(tau):
            assert -1.0 - 1e-9 <= tau <= 1.0 + 1e-9


class TestKnightMatchesReference:
    """kendall_tau is Knight's O(n log n); the quadratic definition stays
    as kendall_tau_reference and the two must agree *bitwise* — every
    intermediate in both is an exact integer count."""

    @given(paired)
    @settings(max_examples=100)
    def test_float_inputs_exact(self, pairs):
        x = [p[0] for p in pairs]
        y = [p[1] for p in pairs]
        fast = kendall_tau(x, y)
        ref = kendall_tau_reference(x, y)
        assert (math.isnan(fast) and math.isnan(ref)) or fast == ref

    @given(tied_paired)
    @settings(max_examples=100)
    def test_tie_heavy_inputs_exact(self, pairs):
        x = [p[0] for p in pairs]
        y = [p[1] for p in pairs]
        fast = kendall_tau(x, y)
        ref = kendall_tau_reference(x, y)
        assert (math.isnan(fast) and math.isnan(ref)) or fast == ref

    def test_constant_inputs_nan_in_both(self):
        for x, y in (
            ([2, 2, 2], [1, 2, 3]),
            ([1, 2, 3], [7, 7, 7]),
            ([5, 5], [5, 5]),
            ([], []),
            ([1], [1]),
        ):
            assert math.isnan(kendall_tau(x, y))
            assert math.isnan(kendall_tau_reference(x, y))

    def test_length_mismatch_in_both(self):
        with pytest.raises(ValueError):
            kendall_tau_reference([1], [1, 2])
        with pytest.raises(ValueError):
            kendall_tau([1], [1, 2])

    def test_above_merge_cutoff(self):
        # _sort_and_count brute-forces blocks of <= 64; exercise the
        # recursive merge with sizes straddling the cutoff.
        import numpy as np

        rng = np.random.default_rng(11)
        for n in (65, 128, 129, 513):
            x = rng.integers(0, 12, size=n).tolist()
            y = rng.integers(0, 12, size=n).tolist()
            assert kendall_tau(x, y) == kendall_tau_reference(x, y)

    def test_large_input_matches_scipy(self):
        import numpy as np

        rng = np.random.default_rng(3)
        x = rng.integers(0, 40, size=4000)
        y = x + rng.integers(0, 25, size=4000)
        expected = scipy_stats.kendalltau(x, y).statistic
        assert kendall_tau(x.tolist(), y.tolist()) == pytest.approx(
            float(expected), abs=1e-12
        )


class TestKendallFromLists:
    def test_identical_lists(self):
        a = RankedList(["x", "y", "z"])
        assert kendall_from_lists(a, a) == pytest.approx(1.0)

    def test_tau_does_not_exceed_rho_magnitude_ordering(self):
        # Not a theorem, but for our moderately shuffled lists tau is
        # typically below rho; just sanity-check both are positive for
        # similar lists.
        from repro.stats.spearman import spearman_from_lists
        a = RankedList([f"s{i}" for i in range(30)])
        shuffled = list(a.sites)
        shuffled[0], shuffled[3] = shuffled[3], shuffled[0]
        shuffled[10], shuffled[15] = shuffled[15], shuffled[10]
        b = RankedList(shuffled)
        assert kendall_from_lists(a, b) > 0.8
        assert spearman_from_lists(a, b) > 0.8

    def test_disjoint_nan(self):
        assert math.isnan(kendall_from_lists(RankedList(["a"]), RankedList(["b"])))
