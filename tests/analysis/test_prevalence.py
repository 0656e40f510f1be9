"""Tests for category prevalence by rank (Figure 3 / Section 4.2.3)."""

import pytest

from repro.analysis.prevalence import (
    head_tail_ratio,
    prevalence_by_rank,
)
from repro.core import (
    Breakdown,
    BrowsingDataset,
    Metric,
    Platform,
    REFERENCE_MONTH,
    RankedList,
    TrafficDistribution,
)

THRESHOLDS = (10, 30, 50, 100, 300, 1_000, 1_500)


def _one_list_dataset(sites: list[str]) -> BrowsingDataset:
    breakdown = Breakdown("US", Platform.WINDOWS, Metric.PAGE_LOADS,
                          REFERENCE_MONTH)
    dist = TrafficDistribution(((1, 0.3), (10, 0.8)), total_sites=10)
    return BrowsingDataset({breakdown: RankedList(sites)},
                           {(Platform.WINDOWS, Metric.PAGE_LOADS): dist})


def _medians(dataset: BrowsingDataset, labels, categories, thresholds):
    curves = prevalence_by_rank(
        dataset, labels, Platform.WINDOWS, Metric.PAGE_LOADS, REFERENCE_MONTH,
        categories=categories, thresholds=thresholds,
    )
    return {c.category: [(p.threshold, p.stats.median) for p in c.points]
            for c in curves}


@pytest.fixture(scope="module")
def curves(reference_dataset, labels):
    return {
        c.category: c
        for c in prevalence_by_rank(
            reference_dataset, labels, Platform.WINDOWS, Metric.PAGE_LOADS,
            REFERENCE_MONTH,
            categories=("Video Streaming", "News & Media", "Business",
                        "Technology", "Pornography", "Ecommerce"),
            thresholds=THRESHOLDS,
        )
    }


class TestStructure:
    def test_one_curve_per_category(self, curves):
        assert len(curves) == 6

    def test_points_cover_thresholds(self, curves):
        for curve in curves.values():
            assert tuple(p.threshold for p in curve.points) == THRESHOLDS

    def test_shares_are_fractions(self, curves):
        for curve in curves.values():
            for point in curve.points:
                assert 0.0 <= point.stats.q25 <= point.stats.median <= point.stats.q75 <= 1.0

    def test_missing_threshold_raises(self, curves):
        with pytest.raises(KeyError):
            curves["Business"].median_at(123)


class TestShortLists:
    def test_thresholds_past_the_end_use_the_whole_list(self):
        labels = {"a.example": "News & Media", "b.example": "Business",
                  "c.example": "News & Media"}
        dataset = _one_list_dataset(["a.example", "b.example", "c.example",
                                     "d.example"])
        medians = _medians(dataset, labels,
                           ("News & Media", "Business", "Unknown"), (2, 5, 10))
        assert medians == {
            "News & Media": [(2, 0.5), (5, 0.5), (10, 0.5)],
            "Business": [(2, 0.5), (5, 0.25), (10, 0.25)],
            "Unknown": [(2, 0.0), (5, 0.25), (10, 0.25)],
        }

    def test_an_empty_list_has_zero_share_everywhere(self):
        medians = _medians(_one_list_dataset([]), {}, ("Business", "Unknown"),
                           (1, 10))
        assert medians == {"Business": [(1, 0.0), (10, 0.0)],
                           "Unknown": [(1, 0.0), (10, 0.0)]}


class TestPaperShape:
    def test_business_rises_into_the_tail(self, curves):
        # Paper: Business rises from ~3 % of top-30 to ~8 % of top-10K.
        # The named Business anchors (office) sit in the head, so compare
        # from top-100 where they are diluted.
        business = curves["Business"]
        assert business.median_at(1_500) > business.median_at(100)
        assert head_tail_ratio(business, head=100, tail=1_500) < 1.0

    def test_news_peaks_near_the_head_then_declines(self, curves):
        news = curves["News & Media"]
        peak = max(p.stats.median for p in news.points if p.threshold <= 100)
        assert peak > news.median_at(1_500)

    def test_time_metric_video_streaming_head_heavy(self, reference_dataset, labels):
        curves_time = {
            c.category: c
            for c in prevalence_by_rank(
                reference_dataset, labels, Platform.WINDOWS, Metric.TIME_ON_PAGE,
                REFERENCE_MONTH, categories=("Video Streaming",),
                thresholds=THRESHOLDS,
            )
        }
        video = curves_time["Video Streaming"]
        assert head_tail_ratio(video, head=10, tail=1_500) > 1.5

    def test_adult_overrepresented_at_mobile_head(self, reference_dataset, labels):
        mobile = {
            c.category: c
            for c in prevalence_by_rank(
                reference_dataset, labels, Platform.ANDROID, Metric.PAGE_LOADS,
                REFERENCE_MONTH, categories=("Pornography",), thresholds=THRESHOLDS,
            )
        }
        desktop_curves = {
            c.category: c
            for c in prevalence_by_rank(
                reference_dataset, labels, Platform.WINDOWS, Metric.PAGE_LOADS,
                REFERENCE_MONTH, categories=("Pornography",), thresholds=THRESHOLDS,
            )
        }
        assert (
            mobile["Pornography"].median_at(50)
            > desktop_curves["Pornography"].median_at(50)
        )
