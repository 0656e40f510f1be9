"""Tests for study-set sampling strategies (Section 6)."""

import numpy as np
import pytest

from repro.analysis.sampling import (
    compare_strategies,
    country_coverage,
    coverage_report,
    global_study_set,
    hybrid_study_set,
)
from repro.core import Metric, Platform, REFERENCE_MONTH, RankedList

from tests.oracles.sampling import country_coverage_reference


@pytest.fixture(scope="module")
def lists(reference_dataset):
    return reference_dataset.select(
        Platform.WINDOWS, Metric.PAGE_LOADS, REFERENCE_MONTH
    )


@pytest.fixture(scope="module")
def dist(reference_dataset):
    return reference_dataset.distribution(Platform.WINDOWS, Metric.PAGE_LOADS)


class TestStudySets:
    def test_global_set_size(self, lists, dist):
        assert len(global_study_set(lists, dist, 500)) == 500

    def test_global_set_contains_the_head(self, lists, dist):
        study = global_study_set(lists, dist, 100)
        assert "google" in study
        assert "facebook.com" in study

    def test_hybrid_superset_of_country_heads(self, lists, dist):
        study = hybrid_study_set(lists, dist, 100, 50)
        for country in ("KR", "BR", "NG"):
            assert set(lists[country].top(50).sites) <= study

    def test_hybrid_larger_than_global_component(self, lists, dist):
        hybrid = hybrid_study_set(lists, dist, 100, 50)
        assert len(hybrid) > 100

    def test_n_validation(self, lists, dist):
        with pytest.raises(ValueError):
            global_study_set(lists, dist, 0)


class TestCoverage:
    def test_full_list_covers_everything(self, lists, dist):
        ranked = lists["US"]
        assert country_coverage(set(ranked.sites), ranked, dist) == pytest.approx(1.0)

    def test_empty_set_covers_nothing(self, lists, dist):
        assert country_coverage(set(), lists["US"], dist) == 0.0

    def test_head_heavy_coverage(self, lists, dist):
        # The top-10 sites alone cover a large share of modelled traffic
        # (the concentration result, re-expressed).
        ranked = lists["US"]
        head = set(ranked.top(10).sites)
        assert country_coverage(head, ranked, dist) > 0.3

    def test_empty_list(self, dist):
        assert country_coverage({"x"}, RankedList([]), dist) == 0.0

    def test_report_structure(self, lists, dist):
        study = global_study_set(lists, dist, 200)
        report = coverage_report("g200", study, lists, dist)
        assert len(report.per_country) == 45
        assert 0.0 <= report.minimum <= report.stats.median <= 1.0
        assert len(report.worst_countries) == 5


class TestCoverageParity:
    """The membership-mask sum equals the per-site walk, bit for bit."""

    def _check(self, study, ranked, dist):
        got = country_coverage(study, ranked, dist)
        want = country_coverage_reference(study, ranked, dist)
        assert got.hex() == want.hex()

    def test_empty_list(self, dist):
        self._check({"x"}, RankedList([]), dist)

    def test_no_overlap(self, lists, dist):
        self._check({"not-listed.example"}, lists["US"], dist)

    def test_full_overlap(self, lists, dist):
        ranked = lists["US"]
        self._check(set(ranked.sites), ranked, dist)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_study_set(self, lists, dist, seed):
        rng = np.random.default_rng(seed)
        pool = sorted({s for c in ("US", "KR", "BR") for s in lists[c].sites})
        study = set(rng.choice(pool, size=len(pool) // 3, replace=False).tolist())
        for country in ("US", "KR", "NG"):
            self._check(study, lists[country], dist)


class TestStrategyComparison:
    def test_hybrid_raises_worst_country_coverage(self, lists, dist):
        global_report, hybrid_report = compare_strategies(
            lists, dist, global_n=1_000,
            hybrid_global_n=200, hybrid_per_country_n=200,
        )
        assert hybrid_report.minimum > global_report.minimum

    def test_global_set_shortchanges_small_markets(self, lists, dist):
        global_report, _ = compare_strategies(
            lists, dist, global_n=1_000,
            hybrid_global_n=200, hybrid_per_country_n=200,
        )
        # The global ranking is install-base-weighted, so the worst
        # covered countries are small markets whose endemic sites never
        # enter it — the §6 bias toward populous countries.
        from repro.world.countries import COUNTRIES, get_country
        median_scale = sorted(c.web_scale for c in COUNTRIES)[len(COUNTRIES) // 2]
        for code in global_report.worst_countries:
            assert get_country(code).web_scale <= median_scale, code
