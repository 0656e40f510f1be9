"""Tests for endemicity scoring (Sections 5.1–5.2)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.endemicity import (
    ALL_SHAPES,
    MISSING_RANK,
    PopularityCurve,
    category_split,
    classify_shape,
    curve_shapes,
    exclusivity_fraction,
    popularity_curves,
    relative_distances,
    score_endemicity,
)
from repro.core import Metric, Platform, RankedList, REFERENCE_MONTH
from tests.oracles.endemicity import (
    curve_relative_distance,
    curve_score,
    curve_shape,
    score_endemicity_reference,
)


@pytest.fixture(scope="module")
def lists(reference_dataset):
    return reference_dataset.select(
        Platform.WINDOWS, Metric.PAGE_LOADS, REFERENCE_MONTH
    )


@pytest.fixture(scope="module")
def endemicity(lists):
    return score_endemicity(lists, eligible_rank=200)


class TestPopularityCurve:
    def test_score_zero_for_uniform_ranks(self):
        curve = PopularityCurve("x", tuple([7] * 45))
        assert curve.endemicity_score() == pytest.approx(0.0)

    def test_score_formula(self):
        curve = PopularityCurve("x", (1, 10, 100))
        assert curve.endemicity_score() == pytest.approx(
            math.log10(10) + math.log10(100)
        )

    def test_upper_bound_at_180_scale(self):
        # Best rank 1, absent everywhere else, 45 countries:
        # 44 * log10(10001) ≈ 176 — the paper's "0–180" scale.
        curve = PopularityCurve("x", tuple([1] + [MISSING_RANK] * 44))
        assert curve.upper_bound() == pytest.approx(44 * math.log10(MISSING_RANK))
        assert curve.endemicity_score() == pytest.approx(curve.upper_bound())
        assert 170 < curve.upper_bound() < 180

    def test_distance_from_bound_zero_for_pure_endemic(self):
        curve = PopularityCurve("x", tuple([5] + [MISSING_RANK] * 44))
        assert curve.distance_from_bound() == pytest.approx(0.0)

    def test_global_site_far_from_bound(self):
        flat = PopularityCurve("g", tuple([3] * 45))
        assert flat.distance_from_bound() == pytest.approx(flat.upper_bound())

    def test_ranks_must_be_sorted(self):
        with pytest.raises(ValueError):
            PopularityCurve("x", (10, 5))

    def test_values_are_negative_log10(self):
        curve = PopularityCurve("x", (1, 100))
        assert list(curve.values()) == [0.0, -2.0]


class TestShapeClassification:
    def test_flat_global(self):
        # Present everywhere within one decade of rank: google-like.
        curve = PopularityCurve("g", tuple(sorted(3 + i // 5 for i in range(45))))
        assert classify_shape(curve) == "global-flat"

    def test_global_slope(self):
        ranks = tuple(sorted(int(10 ** (1 + 2.5 * i / 44)) for i in range(45)))
        assert classify_shape(PopularityCurve("g", ranks)) == "global-slope"

    def test_single_country(self):
        curve = PopularityCurve("n", tuple([4] + [MISSING_RANK] * 44))
        assert classify_shape(curve) == "single-country"

    def test_multi_regional_plateau(self):
        # Strong in 6 countries (hbomax pattern), absent elsewhere.
        curve = PopularityCurve(
            "h", tuple(sorted([50, 60, 70, 80, 90, 100] + [MISSING_RANK] * 39))
        )
        assert classify_shape(curve) == "multi-regional"

    def test_mostly_global(self):
        ranks = tuple(sorted([100] * 40 + [MISSING_RANK] * 5))
        assert classify_shape(PopularityCurve("m", ranks)) == "mostly-global"

    def test_scattered_tail(self):
        ranks = tuple(sorted([9000] * 10 + [MISSING_RANK] * 35))
        assert classify_shape(PopularityCurve("s", ranks)) == "scattered-tail"

    def test_all_curves_classify_into_known_shapes(self, endemicity):
        for curve in endemicity.curves[:500]:
            assert classify_shape(curve) in ALL_SHAPES


class TestScoring:
    def test_scores_non_negative_and_bounded(self, endemicity):
        assert np.all(endemicity.scores >= -1e-9)
        upper = 44 * math.log10(MISSING_RANK)
        assert np.all(endemicity.scores <= upper + 1e-9)

    def test_partition(self, endemicity):
        assert endemicity.global_sites | endemicity.national_sites == {
            c.site for c in endemicity.curves
        }
        assert not endemicity.global_sites & endemicity.national_sites

    def test_small_global_fraction(self, endemicity):
        # Paper Table 2: ~2 % of scored sites are globally popular.
        assert 0.003 <= endemicity.global_fraction <= 0.12

    def test_known_anchor_sites_classified_global(self, endemicity, generator):
        for name in ("google", "facebook", "twitter", "wikipedia"):
            assert generator.universe.canonical_of(name) in endemicity.global_sites, name

    def test_known_national_sites_classified_national(self, endemicity, generator):
        for name in ("naver", "bbc", "globo", "allegro"):
            canonical = generator.universe.canonical_of(name)
            if any(c.site == canonical for c in endemicity.curves):
                assert canonical in endemicity.national_sites, name

    def test_empty_input_raises(self):
        with pytest.raises(ValueError):
            score_endemicity({}, eligible_rank=100)


class TestExclusivity:
    def test_exclusivity_near_paper_value(self, lists):
        fraction, population = exclusivity_fraction(lists, head_rank=150)
        # Paper: 53.9 % of top-1K sites appear in no other country's
        # top-10K; band kept generous for the small universe.
        assert 0.30 <= fraction <= 0.75
        assert population > 1_000

    def test_population_grows_with_head_depth(self, lists):
        # Deeper heads admit more sites into the scored population.  Note
        # that the exclusive *fraction* is not monotone in depth: each
        # country's handful of endemic champions dominates the tiny
        # top-10 union, while shared sites are counted only once.
        _, shallow_pop = exclusivity_fraction(lists, head_rank=20)
        _, deep_pop = exclusivity_fraction(lists, head_rank=500)
        assert deep_pop > shallow_pop


class TestCategorySplit:
    def test_split_shapes(self, endemicity, labels):
        global_shares, national_shares = category_split(endemicity, labels)
        if global_shares:
            assert sum(global_shares.values()) == pytest.approx(1.0)
        assert sum(national_shares.values()) == pytest.approx(1.0)

    def test_global_sites_skew_to_global_categories(self, endemicity, labels):
        global_shares, national_shares = category_split(endemicity, labels)
        # Technology + Pornography + Gaming + Chat should be better
        # represented among global sites than national ones.
        global_mass = sum(
            global_shares.get(c, 0.0)
            for c in ("Technology", "Pornography", "Gaming", "Chat & Messaging",
                      "Photography", "Search Engines", "Social Networks")
        )
        national_mass = sum(
            national_shares.get(c, 0.0)
            for c in ("Technology", "Pornography", "Gaming", "Chat & Messaging",
                      "Photography", "Search Engines", "Social Networks")
        )
        assert global_mass > national_mass

    def test_national_sites_skew_to_local_categories(self, endemicity, labels):
        global_shares, national_shares = category_split(endemicity, labels)
        national_mass = sum(
            national_shares.get(c, 0.0)
            for c in ("Educational Institutions", "Government & Politics",
                      "Economy & Finance", "News & Media")
        )
        global_mass = sum(
            global_shares.get(c, 0.0)
            for c in ("Educational Institutions", "Government & Politics",
                      "Economy & Finance", "News & Media")
        )
        assert national_mass > global_mass


class TestPopularityCurvesBuilder:
    def test_curve_per_eligible_site(self, lists):
        curves = popularity_curves(lists, eligible_rank=50)
        eligible = set()
        for ranked in lists.values():
            eligible.update(ranked.top(50).sites)
        assert {c.site for c in curves} == eligible

    def test_curves_have_45_entries(self, lists):
        curves = popularity_curves(lists, eligible_rank=50)
        assert all(c.n_countries == 45 for c in curves)


def assert_matches_reference(result, reference):
    """Site order, scores, distances, mask and shapes, bit for bit."""
    assert result.sites.tolist() == reference.sites
    assert result.scores.tobytes() == reference.scores.tobytes()
    assert result.outliers.mask.tobytes() == reference.global_mask.tobytes()
    assert result.global_mask.tobytes() == reference.global_mask.tobytes()
    distances = relative_distances(result.ranks, result.scores)
    assert distances.tobytes() == reference.distances.tobytes()
    assert curve_shapes(result.ranks).tolist() == reference.shapes


#: 1–6 countries, each ranking a random subset of a 40-site pool.
country_lists = st.dictionaries(
    st.sampled_from(["AA", "BB", "CC", "DD", "EE", "FF"]),
    st.lists(st.integers(0, 39), min_size=1, max_size=40, unique=True),
    min_size=1,
)


class TestReferenceParity:
    """The rank-matrix scorer against the per-curve oracle."""

    @pytest.mark.parametrize("eligible_rank", [50, 200, 1_000])
    def test_reference_dataset(self, lists, eligible_rank):
        assert_matches_reference(
            score_endemicity(lists, eligible_rank=eligible_rank),
            score_endemicity_reference(lists, eligible_rank=eligible_rank),
        )

    @given(country_lists, st.integers(1, 12))
    @settings(max_examples=150, deadline=None)
    def test_random_lists(self, raw, eligible_rank):
        lists = {
            country: RankedList(f"site{i:02d}.example" for i in order)
            for country, order in raw.items()
        }
        assert_matches_reference(
            score_endemicity(lists, eligible_rank=eligible_rank),
            score_endemicity_reference(lists, eligible_rank=eligible_rank),
        )

    @pytest.mark.parametrize("ranks", [
        (1,), (3, 3), (1, 10, 100, MISSING_RANK), (4, 900, 2_000, 5_000),
        (2, 12_000, 20_000), tuple([7] * 44 + [15_000]),
        tuple([MISSING_RANK] * 3),
    ])
    def test_single_curve_methods(self, ranks):
        curve = PopularityCurve("x", ranks)
        assert curve.endemicity_score() == curve_score(ranks)
        assert curve.relative_distance() == curve_relative_distance(ranks)
        assert classify_shape(curve) == curve_shape(ranks)

    def test_curves_are_built_on_demand(self, endemicity):
        curves = endemicity.curves
        assert curves is endemicity.curves
        assert [c.site for c in curves] == endemicity.sites.tolist()
        assert all(c.ranks == tuple(row)
                   for c, row in zip(curves, endemicity.ranks.tolist()))

    def test_rejects_non_positive_ranks(self):
        with pytest.raises(ValueError, match="positive"):
            PopularityCurve("x", (0, 5))
