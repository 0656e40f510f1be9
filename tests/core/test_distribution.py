"""Unit and property tests for TrafficDistribution."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import PchipInterpolator

from repro.core import TrafficDistribution
from repro.core.distribution import (
    concentration_table,
    hermite_coefficients,
    pchip_slopes,
    piecewise_cubic,
)
from repro.core.errors import DistributionError
from repro.world.profiles import TRAFFIC_ANCHORS

#: The Windows page-loads anchors from Section 4.1.2.
ANCHORS = ((1, 0.17), (6, 0.25), (100, 0.397), (10_000, 0.70), (1_000_000, 0.955))


@pytest.fixture
def dist() -> TrafficDistribution:
    return TrafficDistribution(ANCHORS)


class TestConstruction:
    def test_requires_rank_one(self):
        with pytest.raises(DistributionError):
            TrafficDistribution([(2, 0.1), (10, 0.5)])

    def test_requires_increasing_shares(self):
        with pytest.raises(DistributionError):
            TrafficDistribution([(1, 0.5), (10, 0.4)])

    def test_requires_increasing_ranks(self):
        with pytest.raises(DistributionError):
            TrafficDistribution([(1, 0.1), (1, 0.2)])

    def test_requires_at_least_two_anchors(self):
        with pytest.raises(DistributionError):
            TrafficDistribution([(1, 0.2)])

    def test_share_bounds(self):
        with pytest.raises(DistributionError):
            TrafficDistribution([(1, 0.0), (10, 0.5)])
        with pytest.raises(DistributionError):
            TrafficDistribution([(1, 0.5), (10, 1.5)])

    def test_total_sites_must_cover_anchors(self):
        with pytest.raises(DistributionError):
            TrafficDistribution([(1, 0.1), (100, 0.5)], total_sites=50)


class TestEvaluation:
    def test_anchors_are_interpolated_exactly(self, dist):
        for rank, share in ANCHORS:
            assert dist.cumulative_share(rank) == pytest.approx(share, abs=1e-9)

    def test_cumulative_share_monotone(self, dist):
        ranks = np.unique(np.logspace(0, 6, 200).astype(int))
        shares = dist.cumulative_shares(ranks.astype(float))
        assert np.all(np.diff(shares) >= -1e-12)

    def test_share_of_rank_positive_and_decreasing_at_head(self, dist):
        shares = [dist.share_of_rank(r) for r in range(1, 50)]
        assert all(s >= 0 for s in shares)
        assert shares[0] > shares[10] > shares[40]

    def test_rank_below_one_rejected(self, dist):
        with pytest.raises(DistributionError):
            dist.cumulative_share(0.5)

    def test_weights_sum_to_cumulative(self, dist):
        w = dist.weights(10_000)
        assert w.sum() == pytest.approx(dist.cumulative_share(10_000), rel=1e-6)
        assert np.all(w >= 0)

    def test_normalized_weights_sum_to_one(self, dist):
        w = dist.normalized_weights(500)
        assert w.sum() == pytest.approx(1.0)

    def test_sites_for_share_matches_paper_quotes(self, dist):
        # 25 % of Windows page loads are served by only six sites.
        assert dist.sites_for_share(0.25) == 6
        assert dist.sites_for_share(0.17) == 1

    def test_sites_for_share_monotone(self, dist):
        previous = 0
        for share in (0.1, 0.2, 0.4, 0.7, 0.9):
            n = dist.sites_for_share(share)
            assert n >= previous
            previous = n

    def test_roundtrip_serialisation(self, dist):
        again = TrafficDistribution.from_dict(dist.to_dict())
        for rank in (1, 10, 999, 123_456):
            assert again.cumulative_share(rank) == pytest.approx(
                dist.cumulative_share(rank)
            )

    def test_concentration_table(self, dist):
        table = concentration_table(dist, [1, 100])
        assert table[0] == (1, pytest.approx(0.17))
        assert table[1][1] == pytest.approx(0.397)


@st.composite
def anchor_sets(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    ranks = sorted(draw(st.sets(
        st.integers(min_value=2, max_value=999_999), min_size=n - 1, max_size=n - 1,
    )))
    shares = sorted(draw(st.lists(
        st.floats(min_value=0.01, max_value=0.99, allow_nan=False),
        min_size=n, max_size=n, unique=True,
    )))
    return tuple([(1, shares[0])] + list(zip(ranks, shares[1:])))


class TestProperties:
    @given(anchor_sets())
    @settings(max_examples=40)
    def test_weights_always_non_negative(self, anchors):
        dist = TrafficDistribution(anchors)
        w = dist.weights(2_000)
        assert np.all(w >= 0)

    @given(anchor_sets(), st.integers(min_value=1, max_value=999_999))
    @settings(max_examples=40)
    def test_cumulative_in_unit_interval(self, anchors, rank):
        dist = TrafficDistribution(anchors)
        assert 0.0 <= dist.cumulative_share(rank) <= 1.0


# -- the numpy PCHIP against scipy, bit for bit ---------------------------------------


def assert_bitwise_pchip(x, y, at) -> None:
    """The port equals ``PchipInterpolator(x, y, extrapolate=False)`` at
    every point, compared as raw bits (so -0.0 != 0.0 and no tolerance)."""
    x, y, at = (np.asarray(a, dtype=float) for a in (x, y, at))
    expected = PchipInterpolator(x, y, extrapolate=False)(at)
    got = piecewise_cubic(x, hermite_coefficients(x, y, pchip_slopes(x, y)), at)
    np.testing.assert_array_equal(got.view(np.int64), expected.view(np.int64))


def with_interior(x, fractions=np.linspace(0.0, 1.0, 97)) -> np.ndarray:
    """Every breakpoint plus evenly spread points between the ends."""
    x = np.asarray(x, dtype=float)
    inner = np.minimum(x[0] + fractions * (x[-1] - x[0]), x[-1])
    return np.concatenate((x, inner))


#: Repeated values, so drawn shares tie and segments go flat.
TIED_SHARES = (0.1, 0.25, 0.5)


@st.composite
def pchip_cases(draw):
    """Knots at log10 of distinct ranks (as TrafficDistribution builds
    them) with shares that may be non-monotone, tied or flat."""
    n = draw(st.integers(min_value=2, max_value=8))
    ranks = sorted(draw(st.sets(
        st.integers(min_value=2, max_value=1_000_000), min_size=n - 1, max_size=n - 1,
    )))
    x = np.log10(np.asarray([1] + ranks, dtype=float))
    y = draw(st.lists(
        st.one_of(st.sampled_from(TIED_SHARES),
                  st.floats(min_value=-1.0, max_value=1.0, allow_subnormal=False)),
        min_size=n, max_size=n,
    ))
    if draw(st.booleans()):
        y = sorted(y)
    fractions = draw(st.lists(st.floats(min_value=0.0, max_value=1.0),
                              min_size=1, max_size=50))
    return x, np.asarray(y), with_interior(x, np.asarray(fractions))


class TestPchipParity:
    @given(pchip_cases())
    @settings(max_examples=300, deadline=None)
    def test_matches_scipy_bitwise(self, case):
        assert_bitwise_pchip(*case)

    def test_two_knots_interpolate_linearly(self):
        x, y = np.array([0.0, 2.0]), np.array([0.25, 0.75])
        np.testing.assert_array_equal(pchip_slopes(x, y), [0.25, 0.25])
        assert_bitwise_pchip(x, y, with_interior(x))

    def test_three_knots(self):
        x = np.log10([1.0, 7.0, 100.0])
        assert_bitwise_pchip(x, [0.2, 0.5, 0.6], with_interior(x))

    def test_non_monotone_shares_zero_the_slope_at_turns(self):
        x = np.log10([1.0, 10.0, 100.0, 1_000.0, 10_000.0])
        y = np.array([0.1, 0.5, 0.2, 0.4, 0.3])
        np.testing.assert_array_equal(pchip_slopes(x, y)[1:-1], 0.0)
        assert_bitwise_pchip(x, y, with_interior(x))

    def test_flat_segment_and_tied_shares(self):
        x = np.log10([1.0, 5.0, 50.0, 500.0, 5_000.0])
        y = np.array([0.1, 0.3, 0.3, 0.3, 0.6])
        np.testing.assert_array_equal(pchip_slopes(x, y)[1:-1], 0.0)
        assert_bitwise_pchip(x, y, with_interior(x))

    @pytest.mark.parametrize("key", sorted(TRAFFIC_ANCHORS, key=str))
    def test_shipped_curves(self, key):
        anchors = TRAFFIC_ANCHORS[key]
        x = np.log10([float(r) for r, _ in anchors])
        y = np.array([float(s) for _, s in anchors])
        assert_bitwise_pchip(x, y, with_interior(x))
        # The curve object evaluates the same bits at every integer rank
        # up to 10K and at each anchor rank.
        ranks = np.concatenate((np.arange(1.0, 10_001.0),
                                [float(r) for r, _ in anchors]))
        expected = np.clip(
            PchipInterpolator(x, y, extrapolate=False)(np.log10(ranks)), 0.0, 1.0)
        got = TrafficDistribution(anchors).cumulative_shares(ranks)
        np.testing.assert_array_equal(got.view(np.int64), expected.view(np.int64))
