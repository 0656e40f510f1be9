"""Tests for slice planning: dedupe, ordering, per-country partitioning."""

from repro.core import Breakdown, Metric, Month, Platform, REFERENCE_MONTH
from repro.engine import CountryWorkUnit, SlicePlan, SliceRequest


def _b(country, platform=Platform.WINDOWS, metric=Metric.PAGE_LOADS,
       month=REFERENCE_MONTH):
    return Breakdown(country, platform, metric, month)


class TestSlicePlan:
    def test_from_grid_defaults_cover_study_grid(self):
        plan = SlicePlan.from_grid()
        assert len(plan) == 45 * 2 * 2
        assert len(plan.countries) == 45

    def test_deduplicates_requests(self):
        plan = SlicePlan([_b("US"), _b("US"), _b("KR")])
        assert len(plan) == 2
        assert plan.breakdowns() == (_b("KR"), _b("US"))

    def test_order_is_canonical_regardless_of_input_order(self):
        forward = SlicePlan([_b("US"), _b("KR"), _b("BR")])
        backward = SlicePlan([_b("BR"), _b("KR"), _b("US")])
        assert forward == backward
        assert forward.breakdowns() == (_b("BR"), _b("KR"), _b("US"))

    def test_accepts_requests_and_breakdowns(self):
        plan = SlicePlan([SliceRequest(_b("US")), _b("KR")])
        assert {r.country for r in plan} == {"US", "KR"}

    def test_partition_shards_by_country(self):
        plan = SlicePlan.from_grid(
            countries=("US", "KR"),
            months=(Month(2021, 12), REFERENCE_MONTH),
        )
        units = plan.partition()
        assert [u.country for u in units] == ["KR", "US"]
        assert all(isinstance(u, CountryWorkUnit) for u in units)
        assert all(len(u) == 2 * 2 * 2 for u in units)
        regrouped = [b for unit in units for b in unit.breakdowns()]
        assert len(regrouped) == len(plan)
        assert set(regrouped) == set(plan.breakdowns())

    def test_request_properties(self):
        request = SliceRequest(_b("JP", Platform.ANDROID, Metric.TIME_ON_PAGE))
        assert request.country == "JP"
        assert request.platform is Platform.ANDROID
        assert request.metric is Metric.TIME_ON_PAGE
        assert request.month == REFERENCE_MONTH
        assert str(request) == "JP/android/time_on_page/2022-02"
