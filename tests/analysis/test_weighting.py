"""Tests for the traffic-weighting helpers."""

import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.prevalence import prevalence_by_rank
from repro.analysis.weighting import (
    CategoryCodes,
    average_over_countries,
    count_by_category,
    per_site_share,
    share_by_category,
    weighted_volume_by_category,
)
from repro.core import (
    Breakdown,
    BrowsingDataset,
    Metric,
    Platform,
    REFERENCE_MONTH,
    RankedList,
)
from repro.core.vocab import SiteVocabulary
from repro.synth.traffic import global_distribution
from tests.oracles.weighting import (
    count_by_category_reference,
    prevalence_points_reference,
    prevalence_samples_reference,
    share_by_category_reference,
    weighted_volume_by_category_reference,
)

DIST = global_distribution(Platform.WINDOWS, Metric.PAGE_LOADS)
LABELS = {"g": "Search Engines", "y": "Video Streaming", "f": "Social Networks",
          "a": "Ecommerce", "n": "Video Streaming"}
RANKED = RankedList(["g", "y", "f", "a", "n", "x"])


class TestCounting:
    def test_count_by_category(self):
        counts = count_by_category(RANKED, LABELS)
        assert counts["Video Streaming"] == 2
        assert counts["Unknown"] == 1

    def test_count_with_top_n(self):
        counts = count_by_category(RANKED, LABELS, top_n=2)
        assert counts == {"Search Engines": 1, "Video Streaming": 1}

    def test_share_by_category_sums_to_one(self):
        shares = share_by_category(RANKED, LABELS)
        assert sum(shares.values()) == pytest.approx(1.0)

    def test_share_of_empty_list(self):
        assert share_by_category(RankedList([]), LABELS) == {}


class TestWeightedVolumes:
    def test_rank_one_dominates(self):
        volumes = weighted_volume_by_category(RANKED, LABELS, DIST)
        # Rank 1 holds 17 % of all traffic; no other single rank comes close.
        assert max(volumes, key=volumes.get) == "Search Engines"

    def test_normalised_sums_to_one(self):
        volumes = weighted_volume_by_category(RANKED, LABELS, DIST)
        assert sum(volumes.values()) == pytest.approx(1.0)

    def test_unnormalised_sums_to_cumulative(self):
        volumes = weighted_volume_by_category(RANKED, LABELS, DIST, normalize=False)
        assert sum(volumes.values()) == pytest.approx(
            DIST.cumulative_share(len(RANKED)), rel=1e-6
        )

    def test_weighted_differs_from_counting(self):
        counts = share_by_category(RANKED, LABELS)
        volumes = weighted_volume_by_category(RANKED, LABELS, DIST)
        # Video Streaming has 2 of 6 sites but far less than 2/6 of traffic.
        assert counts["Video Streaming"] > volumes["Video Streaming"]

    def test_empty_list(self):
        assert weighted_volume_by_category(RankedList([]), LABELS, DIST) == {}


class TestPerSiteShare:
    def test_shares_follow_rank(self):
        shares = per_site_share(RANKED, DIST)
        assert shares["g"] > shares["y"] > shares["x"]

    def test_rank_one_share(self):
        shares = per_site_share(RANKED, DIST)
        assert shares["g"] == pytest.approx(0.17)


class TestAveraging:
    def test_average_over_countries(self):
        per_country = {
            "US": {"Business": 0.4},
            "BR": {"Business": 0.2, "Sports": 0.2},
        }
        avg = average_over_countries(per_country)
        assert avg["Business"] == pytest.approx(0.3)
        # Missing categories count as zero.
        assert avg["Sports"] == pytest.approx(0.1)

    def test_empty_input(self):
        assert average_over_countries({}) == {}

    def test_explicit_categories(self):
        avg = average_over_countries({"US": {"A": 1.0}}, categories=("A", "B"))
        assert avg == {"A": 1.0, "B": 0.0}



# -- id-native counting vs the per-site string walks ---------------------------------

POOL = tuple(f"s{i}.example" for i in range(60))
CATEGORY_NAMES = ("Search Engines", "Video Streaming", "News & Media",
                  "Ecommerce", "Unknown")

site_lists = st.lists(st.sampled_from(POOL), unique=True, max_size=len(POOL))
label_maps = st.dictionaries(st.sampled_from(POOL), st.sampled_from(CATEGORY_NAMES))
top_ns = st.one_of(st.none(), st.integers(min_value=0, max_value=len(POOL) + 10))


def assert_same(got: dict, want: dict) -> None:
    """Equal values, bit for bit, in the same key order."""
    assert list(got) == list(want)
    assert [repr(v) for v in got.values()] == [repr(v) for v in want.values()]


class TestCodedParity:
    @given(site_lists, label_maps, top_ns)
    @settings(max_examples=120, deadline=None)
    def test_counts_and_shares(self, sites, labels, top_n):
        ranked = RankedList(sites)
        assert_same(count_by_category(ranked, labels, top_n),
                    count_by_category_reference(ranked, labels, top_n))
        assert_same(share_by_category(ranked, labels, top_n),
                    share_by_category_reference(ranked, labels, top_n))

    @given(site_lists, label_maps, top_ns, st.booleans())
    @settings(max_examples=120, deadline=None)
    def test_weighted_volumes(self, sites, labels, top_n, normalize):
        ranked = RankedList(sites)
        assert_same(
            weighted_volume_by_category(ranked, labels, DIST, top_n, normalize),
            weighted_volume_by_category_reference(ranked, labels, DIST, top_n, normalize),
        )

    @given(st.lists(site_lists, min_size=1, max_size=5), label_maps, top_ns)
    @settings(max_examples=80, deadline=None)
    def test_shared_codes_over_a_growing_vocabulary(self, lists, labels, top_n):
        # A text-codec dataset interns its lists on first use: the code
        # column is built before most of its sites have ids and must
        # extend as the vocabulary grows.
        vocab = SiteVocabulary()
        table = CategoryCodes(labels, vocab)
        table.column()
        for sites in lists:
            ranked = RankedList(sites)
            assert_same(
                weighted_volume_by_category(ranked, table, DIST, top_n),
                weighted_volume_by_category_reference(ranked, labels, DIST, top_n),
            )
            assert_same(count_by_category(ranked, table, top_n),
                        count_by_category_reference(ranked, labels, top_n))
        assert len(table.column()) == len(vocab)

    def test_sites_absent_from_labels_are_unknown(self):
        table = CategoryCodes({"a": "Ecommerce"}, SiteVocabulary(["z", "a"]))
        assert table.categories == ("Unknown", "Ecommerce")
        assert table.column().tolist() == [0, 1]
        ranked = RankedList(["z", "a", "q"])
        assert count_by_category(ranked, table) == {"Unknown": 2, "Ecommerce": 1}
        assert table.column().tolist() == [0, 1, 0]

    def test_negative_top_n_rejected(self):
        with pytest.raises(ValueError):
            count_by_category(RANKED, LABELS, top_n=-1)


class TestSharedCodesUnderThreads:
    def test_concurrent_lists_over_one_growing_vocabulary(self):
        # Tasks share one CategoryCodes; each thread interns new sites
        # (growing the vocabulary) while others extend the code column.
        labels = {f"site{i}": CATEGORY_NAMES[i % 4] for i in range(0, 4_000, 3)}
        table = CategoryCodes(labels, SiteVocabulary())
        lists = [RankedList(f"site{j}" for j in range(i, 4_000, 8)) for i in range(8)]
        failures: list[str] = []

        def work(ranked):
            for _ in range(20):
                got = count_by_category(ranked, table)
                if got != count_by_category_reference(ranked, labels):
                    failures.append(ranked.sites[0])

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(r,)) for r in lists]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        assert table.column().tolist() == [
            table.code(labels.get(name, "Unknown")) for name in table.vocab.names()
        ]


def _dataset(lists: list[list[str]]) -> BrowsingDataset:
    return BrowsingDataset(
        {Breakdown(country, Platform.WINDOWS, Metric.PAGE_LOADS, REFERENCE_MONTH):
         RankedList(sites)
         for country, sites in zip(("US", "BR", "JP", "FR", "KR"), lists)},
        {(Platform.WINDOWS, Metric.PAGE_LOADS): DIST},
    )


class TestPrevalenceParity:
    @given(
        st.lists(site_lists, min_size=1, max_size=5),
        label_maps,
        st.lists(st.sampled_from(CATEGORY_NAMES + ("Sports",)), unique=True,
                 min_size=1, max_size=4),
        st.lists(st.integers(min_value=1, max_value=len(POOL) + 20),
                 min_size=1, max_size=6),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_the_walk(self, lists, labels, categories, thresholds):
        dataset = _dataset(lists)
        curves = prevalence_by_rank(
            dataset, labels, Platform.WINDOWS, Metric.PAGE_LOADS, REFERENCE_MONTH,
            categories=tuple(categories), thresholds=tuple(thresholds),
        )
        samples = prevalence_samples_reference(
            dataset.select(Platform.WINDOWS, Metric.PAGE_LOADS, REFERENCE_MONTH),
            labels, tuple(categories), tuple(thresholds),
        )
        assert [c.category for c in curves] == categories
        for curve in curves:
            got = [(p.threshold, p.stats) for p in curve.points]
            want = prevalence_points_reference(samples, curve.category)
            assert repr(got) == repr(want)

    def test_non_positive_threshold_rejected(self):
        with pytest.raises(ValueError):
            prevalence_by_rank(
                _dataset([["s1.example"]]), {}, Platform.WINDOWS,
                Metric.PAGE_LOADS, REFERENCE_MONTH, thresholds=(0, 10),
            )
