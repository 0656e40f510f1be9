"""Unit tests for BrowsingDataset."""

import pytest

from repro.core import (
    Breakdown,
    BrowsingDataset,
    Metric,
    Month,
    Platform,
    RankedList,
    TrafficDistribution,
)
from repro.core.errors import DatasetError, MissingBreakdownError

MONTH = Month(2022, 2)
DIST = TrafficDistribution([(1, 0.17), (100, 0.4), (10_000, 0.7)], total_sites=10_000)


def _mini_dataset() -> BrowsingDataset:
    lists = {
        Breakdown("US", Platform.WINDOWS, Metric.PAGE_LOADS, MONTH):
            RankedList(["google", "youtube", "amazon"]),
        Breakdown("BR", Platform.WINDOWS, Metric.PAGE_LOADS, MONTH):
            RankedList(["google", "globo", "youtube"]),
        Breakdown("US", Platform.ANDROID, Metric.PAGE_LOADS, MONTH):
            RankedList(["google", "facebook"]),
    }
    return BrowsingDataset(
        lists,
        {(Platform.WINDOWS, Metric.PAGE_LOADS): DIST},
        metadata={"seed": 1},
    )


class TestIndices:
    def test_countries_sorted(self):
        assert _mini_dataset().countries == ("BR", "US")

    def test_platforms_and_metrics(self):
        ds = _mini_dataset()
        assert set(ds.platforms) == {Platform.WINDOWS, Platform.ANDROID}
        assert ds.metrics == (Metric.PAGE_LOADS,)
        assert ds.months == (MONTH,)

    def test_len_counts_lists(self):
        assert len(_mini_dataset()) == 3

    def test_empty_dataset_rejected(self):
        with pytest.raises(DatasetError):
            BrowsingDataset({}, {})


class TestLookups:
    def test_get_returns_list(self):
        ds = _mini_dataset()
        assert ds.get("US", Platform.WINDOWS, Metric.PAGE_LOADS, MONTH)[1] == "google"

    def test_missing_breakdown_raises(self):
        ds = _mini_dataset()
        with pytest.raises(MissingBreakdownError):
            ds.get("US", Platform.WINDOWS, Metric.TIME_ON_PAGE, MONTH)

    def test_get_or_none(self):
        ds = _mini_dataset()
        assert ds.get_or_none("ZZ", Platform.WINDOWS, Metric.PAGE_LOADS, MONTH) is None

    def test_distribution_lookup(self):
        ds = _mini_dataset()
        assert ds.distribution(Platform.WINDOWS, Metric.PAGE_LOADS) is DIST
        with pytest.raises(DatasetError):
            ds.distribution(Platform.ANDROID, Metric.PAGE_LOADS)


class TestSlicing:
    def test_select_returns_per_country_lists(self):
        ds = _mini_dataset()
        lists = ds.select(Platform.WINDOWS, Metric.PAGE_LOADS, MONTH)
        assert set(lists) == {"US", "BR"}

    def test_select_omits_missing_countries(self):
        ds = _mini_dataset()
        lists = ds.select(Platform.ANDROID, Metric.PAGE_LOADS, MONTH)
        assert set(lists) == {"US"}

    def test_select_with_explicit_countries(self):
        ds = _mini_dataset()
        lists = ds.select(Platform.WINDOWS, Metric.PAGE_LOADS, MONTH, countries=("BR",))
        assert set(lists) == {"BR"}


class TestGeneratedDataset:
    def test_generated_dataset_has_45_countries(self, reference_dataset):
        assert len(reference_dataset.countries) == 45

    def test_every_breakdown_has_full_list(self, reference_dataset, generator):
        expected = generator.config.list_size
        for breakdown in reference_dataset.breakdowns():
            assert len(reference_dataset[breakdown]) == expected

    def test_metadata_records_seed(self, reference_dataset, generator):
        assert reference_dataset.metadata["seed"] == generator.config.seed
