"""Tests for Fisher's exact test: the scalar oracle cross-validated
against scipy, and the margin-shared, windowed kernel against the
oracles (a few ulp from the scalar one, bitwise equal to the
one-table-at-a-time kernel)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as scipy_stats

from repro.stats.fisher import (
    _EXP_UNDERFLOW,
    _log_factorials,
    _log_pmf,
    _windows,
    fisher_exact_batch,
    normalized_difference,
    proportion_test_batch,
)
from tests.oracles.stats import (
    fisher_exact,
    fisher_exact_batch_reference,
    hypergeom_logpmf,
    proportion_test,
)

counts = st.integers(min_value=0, max_value=120)

#: np.exp may differ from math.exp in the last ulp; everything else is
#: bit-identical, so batched p-values sit within a few ulp of the
#: scalar reference.
BATCH_RTOL = 1e-12


class TestFisherExact:
    def test_known_table(self):
        ours = fisher_exact(((8, 2), (1, 5)))
        theirs = scipy_stats.fisher_exact([[8, 2], [1, 5]])[1]
        assert ours == pytest.approx(theirs, rel=1e-9)

    def test_independent_table_p_one(self):
        assert fisher_exact(((5, 5), (5, 5))) == pytest.approx(1.0)

    def test_empty_table(self):
        assert fisher_exact(((0, 0), (0, 0))) == 1.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            fisher_exact(((-1, 2), (3, 4)))

    @given(counts, counts, counts, counts)
    @settings(max_examples=80, deadline=None)
    def test_matches_scipy(self, a, b, c, d):
        ours = fisher_exact(((a, b), (c, d)))
        theirs = scipy_stats.fisher_exact([[a, b], [c, d]])[1]
        assert ours == pytest.approx(theirs, rel=1e-7, abs=1e-12)

    @given(counts, counts, counts, counts)
    @settings(max_examples=40, deadline=None)
    def test_p_value_in_unit_interval(self, a, b, c, d):
        assert 0.0 <= fisher_exact(((a, b), (c, d))) <= 1.0


class TestHypergeomLogpmf:
    def test_matches_scipy(self):
        ours = hypergeom_logpmf(3, 20, 7, 12)
        theirs = scipy_stats.hypergeom.logpmf(3, 20, 7, 12)
        assert ours == pytest.approx(float(theirs))

    def test_impossible_outcome(self):
        assert hypergeom_logpmf(10, 10, 2, 3) == float("-inf")


class TestLogFactorialTable:
    def test_entries_match_lgamma(self):
        table = _log_factorials(200)
        for i in (0, 1, 2, 50, 199, 200):
            assert table[i] == math.lgamma(i + 1)
        grown = _log_factorials(len(table) + 1_000)
        assert grown.tolist() == [math.lgamma(i + 1) for i in range(len(grown))]

    def test_grows_on_demand(self):
        small = _log_factorials(10)
        big = _log_factorials(len(small) + 500)
        assert len(big) >= len(small) + 501
        assert np.array_equal(big[: len(small)], small)


class TestFisherBatch:
    @given(st.lists(st.tuples(counts, counts, counts, counts), min_size=1, max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_matches_scalar_reference(self, tables):
        batch = fisher_exact_batch([((a, b), (c, d)) for a, b, c, d in tables])
        scalar = [fisher_exact(((a, b), (c, d))) for a, b, c, d in tables]
        assert batch.shape == (len(tables),)
        np.testing.assert_allclose(batch, scalar, rtol=BATCH_RTOL, atol=0.0)

    @given(st.lists(st.tuples(counts, counts, counts, counts), min_size=1, max_size=30))
    @settings(max_examples=40, deadline=None)
    def test_same_significance_decisions(self, tables):
        batch = fisher_exact_batch([(a, b, c, d) for a, b, c, d in tables])
        scalar = [fisher_exact(((a, b), (c, d))) for a, b, c, d in tables]
        for alpha in (0.05, 0.01, 0.001):
            assert [p <= alpha for p in batch] == [p <= alpha for p in scalar]

    def test_flat_and_nested_shapes_agree(self):
        nested = fisher_exact_batch([((8, 2), (1, 5)), ((3, 3), (3, 3))])
        flat = fisher_exact_batch([(8, 2, 1, 5), (3, 3, 3, 3)])
        assert np.array_equal(nested, flat)

    def test_zero_margin_tables(self):
        # Degenerate margins collapse the support to one term; both
        # paths return exactly 1.0.
        tables = [(0, 0, 0, 0), (0, 5, 0, 7), (4, 0, 6, 0), (0, 0, 3, 9)]
        batch = fisher_exact_batch(tables)
        scalar = [fisher_exact(((a, b), (c, d))) for a, b, c, d in tables]
        assert batch.tolist() == scalar

    def test_duplicates_memoized_to_identical_values(self):
        tables = [(8, 2, 1, 5)] * 5 + [(1, 9, 9, 1)] + [(8, 2, 1, 5)]
        batch = fisher_exact_batch(tables)
        assert len(set(batch[[0, 1, 2, 3, 4, 6]].tolist())) == 1
        assert batch[5] != batch[0]

    def test_empty_input(self):
        out = fisher_exact_batch(np.empty((0, 4), dtype=int))
        assert out.shape == (0,)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            fisher_exact_batch([(1, -2, 3, 4)])

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError):
            fisher_exact_batch([(1, 2, 3)])


def _table(total: int, row1: int, col1: int, a: int) -> tuple[int, int, int, int]:
    return (a, row1 - a, col1 - a, total - row1 - col1 + a)


@st.composite
def margins_and_a(draw, max_total=400):
    """A margin and an observed ``a`` anywhere on its support, drawn
    with weight on the support's ends."""
    total = draw(st.integers(min_value=0, max_value=max_total))
    row1 = draw(st.integers(min_value=0, max_value=total))
    col1 = draw(st.integers(min_value=0, max_value=total))
    lo, hi = max(0, row1 + col1 - total), min(row1, col1)
    a = draw(st.one_of(st.just(lo), st.just(hi), st.integers(lo, hi)))
    return _table(total, row1, col1, a)


class TestWindowedKernel:
    """The margin-shared, windowed kernel against the one-table-at-a-time
    oracle: bitwise, not within a tolerance."""

    @given(st.lists(margins_and_a(), min_size=1, max_size=30))
    @settings(max_examples=150, deadline=None)
    def test_bitwise_equal_to_one_table_kernel(self, tables):
        got = fisher_exact_batch(tables)
        want = fisher_exact_batch_reference(tables)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("effective_n,examples", [
        (2, 40), (1_000, 40), (100_000, 25), (1_000_000, 6),
    ])
    def test_proportion_grid_bitwise(self, effective_n, examples):
        # Shares like the Figure 4 grid's: most near zero, some exactly
        # zero or one, and margins shared between tables.
        shares = st.one_of(
            st.sampled_from([0.0, 1.0, 0.5]),
            st.floats(min_value=0.0, max_value=0.05),
            st.floats(min_value=0.0, max_value=1.0),
        )

        @given(st.lists(shares, min_size=2, max_size=12), st.data())
        @settings(max_examples=examples, deadline=None)
        def check(column, data):
            counts = [math.floor(x * effective_n + 0.5) for x in column]
            pairs = data.draw(st.lists(
                st.tuples(st.sampled_from(counts), st.sampled_from(counts)),
                min_size=1, max_size=12,
            ))
            tables = [(a, effective_n - a, b, effective_n - b) for a, b in pairs]
            got = fisher_exact_batch(tables)
            assert got.tobytes() == fisher_exact_batch_reference(tables).tobytes()

        check()

    def test_degenerate_margins(self):
        # total == 0, col1 == 0, row1 == 0 and a full column.
        tables = [(0, 0, 0, 0), (0, 5, 0, 7), (0, 0, 3, 9), (4, 0, 6, 0)]
        got = fisher_exact_batch(tables)
        assert got.tolist() == [1.0, 1.0, 1.0, 1.0]
        assert got.tobytes() == fisher_exact_batch_reference(tables).tobytes()

    @pytest.mark.parametrize("total,row1,col1", [
        (30, 10, 12), (200_000, 100_000, 100_000), (2_000_000, 1_000_000, 40_000),
    ])
    def test_a_at_both_ends_of_the_support(self, total, row1, col1):
        lo, hi = max(0, row1 + col1 - total), min(row1, col1)
        tables = [_table(total, row1, col1, a) for a in (lo, hi)]
        got = fisher_exact_batch(tables)
        assert got.tobytes() == fisher_exact_batch_reference(tables).tobytes()

    def test_a_outside_the_window_gives_zero(self):
        # a == 0 against 50% in the other column: the observed table's
        # log-pmf is about -69,000, far left of the non-zero window.
        n = 100_000
        tables = [(0, n, n // 2, n - n // 2), (n, 0, n // 2, n - n // 2)]
        got = fisher_exact_batch(tables)
        assert got.tolist() == [0.0, 0.0]
        assert got.tobytes() == fisher_exact_batch_reference(tables).tobytes()

    def test_exp_is_zero_below_the_cutoff(self):
        below = np.concatenate([
            np.linspace(_EXP_UNDERFLOW - 60.0, _EXP_UNDERFLOW, 100_001),
            [np.nextafter(_EXP_UNDERFLOW, -np.inf), -1e6, -np.inf],
        ])
        assert not np.any(np.exp(below))
        for value in below[::997]:
            assert np.exp(np.float64(value)) == 0.0

    @given(st.lists(margins_and_a(max_total=5_000), min_size=1, max_size=10))
    @settings(max_examples=60, deadline=None)
    def test_window_holds_every_non_zero_term(self, tables):
        arr = np.asarray(tables, dtype=np.int64)
        a, b, c, d = arr.T
        total, row1, col1 = a + b + c + d, a + b, a + c
        lf = _log_factorials(int(total.max()))
        first, last = _windows(lf, total, row1, col1)
        for t, r, k1, f, l in zip(total, row1, col1, first, last):
            lo, hi = max(0, r + k1 - t), min(r, k1)
            k = np.arange(lo, hi + 1)
            logp = _log_pmf(lf, k, t, r, k1)
            outside = (k < f) | (k > l)
            assert lo <= f <= l <= hi
            assert not np.any(np.exp(logp[outside]))
            assert logp[f - lo] >= _EXP_UNDERFLOW and logp[l - lo] >= _EXP_UNDERFLOW


class TestProportionTest:
    def test_equal_shares_not_significant(self):
        result = proportion_test(0.10, 0.10)
        assert result.p_value == pytest.approx(1.0)
        assert not result.significant()

    def test_large_gap_significant(self):
        result = proportion_test(0.20, 0.05, effective_n=10_000)
        assert result.significant(0.05)
        assert result.difference == pytest.approx(0.15)

    def test_power_grows_with_effective_n(self):
        small = proportion_test(0.012, 0.010, effective_n=1_000)
        large = proportion_test(0.012, 0.010, effective_n=1_000_000)
        assert large.p_value < small.p_value

    def test_share_bounds(self):
        with pytest.raises(ValueError):
            proportion_test(1.2, 0.5)
        with pytest.raises(ValueError):
            proportion_test(0.5, -0.1)


class TestHalfUpRounding:
    """share * effective_n must round half UP, not half-to-even.

    The old ``round(share * effective_n)`` used banker's rounding, so an
    exact-half product flipped its count (and potentially significance)
    on the parity of the neighbouring integer."""

    def test_exact_half_rounds_up(self):
        # 0.25 * 2 = 0.5 exactly (both powers of two): half-up gives
        # count 1, banker's rounding would give 0.
        result = proportion_test(0.25, 0.75, effective_n=2)
        assert result.p_value == fisher_exact(((1, 1), (2, 0)))
        assert result.p_value != fisher_exact(((0, 2), (2, 0)))

    def test_exact_half_single_trial(self):
        # 0.5 * 1 = 0.5: round() gives 0, half-up gives 1.
        result = proportion_test(0.5, 0.0, effective_n=1)
        assert result.p_value == fisher_exact(((1, 0), (0, 1)))

    def test_batch_uses_same_rounding(self):
        scalar = proportion_test(0.25, 0.75, effective_n=2)
        [batch] = proportion_test_batch([0.25], [0.75], effective_n=2)
        assert batch.p_value == pytest.approx(scalar.p_value, rel=BATCH_RTOL)


class TestProportionTestBatch:
    shares = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)

    @given(st.lists(st.tuples(shares, shares), min_size=1, max_size=25))
    @settings(max_examples=50, deadline=None)
    def test_matches_scalar_reference(self, pairs):
        effective_n = 500
        a = [p[0] for p in pairs]
        b = [p[1] for p in pairs]
        batch = proportion_test_batch(a, b, effective_n)
        assert len(batch) == len(pairs)
        for result, (sa, sb) in zip(batch, pairs):
            scalar = proportion_test(sa, sb, effective_n)
            assert result.p_value == pytest.approx(scalar.p_value, rel=BATCH_RTOL)
            assert result.proportion_a == sa
            assert result.proportion_b == sb
            assert result.difference == scalar.difference

    def test_repeated_zero_cells_price_once(self):
        # The Figure 4 grid is full of (0.0, 0.0) cells; they must all
        # come back as the same (non-significant) result.
        batch = proportion_test_batch([0.0] * 10, [0.0] * 10)
        assert all(r.p_value == batch[0].p_value for r in batch)
        assert not batch[0].significant()

    def test_validation(self):
        with pytest.raises(ValueError):
            proportion_test_batch([0.1, 0.2], [0.1])
        with pytest.raises(ValueError):
            proportion_test_batch([1.5], [0.1])
        with pytest.raises(ValueError):
            proportion_test_batch([[0.1]], [[0.1]])
        with pytest.raises(ValueError):
            proportion_test_batch([0.1], [0.1], effective_n=0)


class TestNormalizedDifference:
    def test_sign_convention(self):
        # Positive = Android-leaning, negative = Windows-leaning.
        assert normalized_difference(0.2, 0.1) > 0
        assert normalized_difference(0.1, 0.2) < 0

    def test_bounds(self):
        assert normalized_difference(1.0, 0.0) == 1.0
        assert normalized_difference(0.0, 1.0) == -1.0
        assert normalized_difference(0.0, 0.0) == 0.0

    def test_formula(self):
        assert normalized_difference(0.3, 0.1) == pytest.approx((0.3 - 0.1) / 0.3)

    @given(
        st.floats(min_value=0, max_value=10, allow_nan=False),
        st.floats(min_value=0, max_value=10, allow_nan=False),
    )
    @settings(max_examples=60)
    def test_always_in_minus_one_one(self, a, w):
        assert -1.0 <= normalized_difference(a, w) <= 1.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            normalized_difference(-0.1, 0.2)
