"""Tests for the CrUX-style public export."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    Metric,
    Platform,
    REFERENCE_MONTH,
    RankedList,
    TrafficDistribution,
)
from repro.core.vocab import SiteVocabulary
from repro.export.crux import (
    CRUX_BUCKETS,
    bucket_of,
    coarsen_list,
    export_crux,
    global_ranking,
)
from tests.oracles.crux import global_ranking_reference

#: TN, DO, NZ and BO share one install-base weight, as do KR and IT, so
#: sites at equal positions in those countries tie exactly.
TIE_COUNTRIES = ("TN", "DO", "NZ", "BO", "KR", "IT", "US")
SITES = tuple(f"s{i}.example" for i in range(10))
SMALL_DIST = TrafficDistribution(((1, 0.3), (5, 0.6), (20, 0.8)), total_sites=50)

country_lists = st.dictionaries(
    st.sampled_from(TIE_COUNTRIES),
    st.lists(st.sampled_from(SITES), min_size=1, max_size=len(SITES),
             unique=True),
    min_size=1,
)


class TestBuckets:
    @pytest.mark.parametrize("rank,expected", [
        (1, 1_000), (1_000, 1_000), (1_001, 5_000), (5_000, 5_000),
        (9_999, 10_000), (10_001, 50_000), (2_000_000, 1_000_000),
    ])
    def test_bucket_of(self, rank, expected):
        assert bucket_of(rank) == expected

    def test_rank_validation(self):
        with pytest.raises(ValueError):
            bucket_of(0)

    def test_coarsen_list(self):
        ranked = RankedList([f"s{i}" for i in range(1_200)])
        coarse = coarsen_list(ranked)
        assert coarse["s0"] == 1_000
        assert coarse["s999"] == 1_000
        assert coarse["s1000"] == 5_000

    def test_coarsening_loses_order_within_bucket(self):
        ranked = RankedList(["a", "b", "c"])
        coarse = coarsen_list(ranked)
        assert coarse["a"] == coarse["b"] == coarse["c"] == 1_000


class TestGlobalRanking:
    def test_shared_head_dominates(self, reference_dataset):
        lists = reference_dataset.select(
            Platform.WINDOWS, Metric.PAGE_LOADS, REFERENCE_MONTH
        )
        dist = reference_dataset.distribution(Platform.WINDOWS, Metric.PAGE_LOADS)
        ranking = global_ranking(lists, dist)
        # google leads every country, so it must lead the aggregate.
        assert ranking[1] == "google"
        # The union of all lists is ranked.
        union = set()
        for ranked in lists.values():
            union.update(ranked.sites)
        assert len(ranking) == len(union)

    def test_bigger_markets_weigh_more(self, reference_dataset):
        lists = reference_dataset.select(
            Platform.WINDOWS, Metric.PAGE_LOADS, REFERENCE_MONTH,
            countries=("US", "NZ"),
        )
        dist = reference_dataset.distribution(Platform.WINDOWS, Metric.PAGE_LOADS)
        ranking = global_ranking(lists, dist)
        us_second = lists["US"][2]
        nz_second = lists["NZ"][2]
        if us_second != nz_second:
            assert ranking.rank_of(us_second) < ranking.rank_of(nz_second)

    @settings(max_examples=200, deadline=None)
    @given(country_lists, st.permutations(SITES))
    def test_matches_the_per_site_reference(self, lists, id_order):
        lists = {country: RankedList(sites) for country, sites in lists.items()}
        want = global_ranking_reference(lists, SMALL_DIST)
        assert global_ranking(lists, SMALL_DIST) == want
        # Over a shared vocabulary whose ids are not in name order, ties
        # still rank by name.
        vocab = SiteVocabulary(id_order)
        assert global_ranking(lists, SMALL_DIST, vocab) == want

    def test_ties_rank_by_name(self):
        # Equal weights, mirrored positions: every pair of scores ties.
        lists = {"TN": RankedList(["b.example", "zz.example"]),
                 "DO": RankedList(["a.example", "b.example"]),
                 "NZ": RankedList(["zz.example", "a.example"])}
        ranking = global_ranking(lists, SMALL_DIST)
        assert ranking.sites == ("a.example", "b.example", "zz.example")
        assert ranking == global_ranking_reference(lists, SMALL_DIST)

    def test_reference_dataset_matches_the_reference(self, reference_dataset):
        lists = reference_dataset.select(
            Platform.WINDOWS, Metric.PAGE_LOADS, REFERENCE_MONTH
        )
        dist = reference_dataset.distribution(Platform.WINDOWS, Metric.PAGE_LOADS)
        assert global_ranking(lists, dist) == global_ranking_reference(lists, dist)

    def test_empty_input(self):
        from repro.core import TrafficDistribution
        dist = TrafficDistribution([(1, 0.1), (10, 0.5)], total_sites=10)
        with pytest.raises(ValueError):
            global_ranking({}, dist)


class TestExport:
    def test_export_structure(self, reference_dataset):
        export = export_crux(
            reference_dataset, Platform.WINDOWS, REFERENCE_MONTH,
            countries=("US", "KR", "BR"),
        )
        assert export.countries() == ("BR", "KR", "US")
        assert export.metric is Metric.PAGE_LOADS
        # Every per-country bucket is a real CrUX magnitude.
        for buckets in export.per_country.values():
            assert set(buckets.values()) <= set(CRUX_BUCKETS)

    def test_top_sites_in_smallest_bucket(self, reference_dataset):
        export = export_crux(
            reference_dataset, Platform.WINDOWS, REFERENCE_MONTH,
            countries=("US", "KR"),
        )
        assert export.per_country["US"]["google"] == 1_000
        assert export.global_buckets["google"] == 1_000
        assert "naver.com" in export.sites_in_bucket(1_000, country="KR")

    def test_empty_slice_raises(self, reference_dataset):
        with pytest.raises(ValueError):
            export_crux(reference_dataset, Platform.WINDOWS, REFERENCE_MONTH,
                        countries=())
