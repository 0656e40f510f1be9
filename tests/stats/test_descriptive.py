"""Tests for descriptive statistics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stats.descriptive import Quartiles, mean, median, quantile, quartiles, rankdata
from tests.oracles.stats import rankdata_reference

floats = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    min_size=1, max_size=60,
)

#: Few distinct values force long tie runs; NaN, infinities and both
#: zeros exercise the comparisons the tie groups are built from.
tie_heavy = st.lists(
    st.one_of(
        st.integers(-3, 3).map(float),
        st.sampled_from([0.0, -0.0, float("nan"), float("inf"), -float("inf")]),
        st.floats(allow_nan=True, allow_infinity=True),
    ),
    min_size=0, max_size=80,
)


class TestMedianQuantile:
    def test_median_odd(self):
        assert median([3, 1, 2]) == 2

    def test_median_even_averages(self):
        assert median([1, 2, 3, 4]) == 2.5

    def test_median_empty_raises(self):
        with pytest.raises(ValueError):
            median([])

    def test_quantile_endpoints(self):
        data = [5, 1, 9, 3]
        assert quantile(data, 0.0) == 1
        assert quantile(data, 1.0) == 9

    def test_quantile_interpolates(self):
        assert quantile([0, 10], 0.25) == 2.5

    def test_quantile_range_check(self):
        with pytest.raises(ValueError):
            quantile([1], 1.5)

    @given(floats)
    @settings(max_examples=60)
    def test_median_matches_numpy(self, data):
        assert median(data) == pytest.approx(float(np.median(data)), rel=1e-9, abs=1e-9)

    @given(floats, st.floats(min_value=0, max_value=1))
    @settings(max_examples=60)
    def test_quantile_matches_numpy(self, data, q):
        assert quantile(data, q) == pytest.approx(
            float(np.quantile(data, q)), rel=1e-9, abs=1e-6
        )


class TestQuartiles:
    def test_ordering(self):
        q = quartiles(range(101))
        assert q.q25 <= q.median <= q.q75
        assert q.median == 50
        assert q.iqr == q.q75 - q.q25

    def test_contains(self):
        q = Quartiles(1.0, 2.0, 3.0)
        assert 2.5 in q
        assert 0.5 not in q


class TestRankdata:
    def test_simple_ranks(self):
        assert list(rankdata([10, 30, 20])) == [1, 3, 2]

    def test_ties_get_average_rank(self):
        assert list(rankdata([1, 2, 2, 3])) == [1, 2.5, 2.5, 4]

    def test_all_tied(self):
        assert list(rankdata([5, 5, 5])) == [2, 2, 2]

    @given(floats)
    @settings(max_examples=60)
    def test_ranks_sum_is_invariant(self, data):
        n = len(data)
        assert float(rankdata(data).sum()) == pytest.approx(n * (n + 1) / 2)

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            rankdata(np.zeros((2, 2)))

    @pytest.mark.parametrize("data", [
        [], [7.0], [float("nan")], [0.0, -0.0, 0.0],
        [float("nan"), 1.0, float("nan"), 1.0], [2.0, 2.0, 1.0, 1.0, 1.0],
    ])
    def test_edge_cases_match_the_oracle_bitwise(self, data):
        got, want = rankdata(data), rankdata_reference(data)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @given(tie_heavy)
    @settings(max_examples=300, deadline=None)
    def test_matches_the_oracle_bitwise(self, data):
        got, want = rankdata(data), rankdata_reference(data)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


class TestMean:
    def test_mean(self):
        assert mean([1, 2, 3]) == 2

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            mean([])
