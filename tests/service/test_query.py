"""Tests for QueryService: coercion, caching, pipeline integration."""

import json
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core import Metric, Platform
from repro.pipeline import canonical_json
from repro.service import (
    BadRequest,
    NotFound,
    QueryService,
    render_payload,
)
from tests.service.conftest import moved


def body(payload_bytes: bytes) -> dict:
    return json.loads(payload_bytes)


class TestRenderPayload:
    def test_canonical_json_plus_newline(self):
        payload = {"b": 1, "a": [1, 2]}
        rendered = render_payload(payload)
        assert rendered == canonical_json(payload).encode() + b"\n"
        assert rendered == b'{"a":[1,2],"b":1}\n'


class TestRankings:
    def test_head_of_one_list(self, service):
        payload = body(service.rankings("US", top=5))
        assert payload["country"] == "US"
        assert payload["platform"] == "windows"
        assert payload["metric"] == "page_loads"
        assert payload["month"] == "2022-02"
        assert payload["top"] == 5
        assert len(payload["sites"]) == 5
        assert payload["total_sites"] >= 5

    def test_country_is_case_insensitive(self, service):
        assert service.rankings("us") == service.rankings("US")

    def test_top_clamps_to_list_length(self, service):
        payload = body(service.rankings("US", top=10_000_000))
        assert payload["top"] == payload["total_sites"]

    def test_unknown_country_404_with_choices(self, service):
        with pytest.raises(NotFound) as exc:
            service.rankings("ZZ")
        assert exc.value.status == 404
        assert exc.value.payload()["choices"] == list(service.dataset.countries)

    def test_bad_platform_400_with_choices(self, service):
        with pytest.raises(BadRequest) as exc:
            service.rankings("US", platform="amiga")
        assert exc.value.status == 400
        assert "windows" in exc.value.payload()["choices"]

    def test_absent_platform_404(self, service):
        with pytest.raises(NotFound):
            service.rankings("US", platform=Platform.LINUX)

    def test_bad_month_and_bad_top_are_400(self, service):
        with pytest.raises(BadRequest, match="month"):
            service.rankings("US", month="february")
        with pytest.raises(BadRequest, match="top"):
            service.rankings("US", top="lots")
        with pytest.raises(BadRequest, match="top"):
            service.rankings("US", top=0)

    def test_string_params_coerce(self, service):
        via_strings = service.rankings(
            "US", platform="android", metric="time_on_page", month="2022-02"
        )
        via_enums = service.rankings(
            "US", platform=Platform.ANDROID, metric=Metric.TIME_ON_PAGE
        )
        assert via_strings == via_enums


class TestSite:
    def test_rank_across_countries(self, service):
        top_site = body(service.rankings("US", top=1))["sites"][0]
        payload = body(service.site(top_site))
        assert payload["site"] == top_site
        assert set(payload["ranks"]) == set(service.dataset.countries)
        assert payload["ranks"]["US"] == 1
        assert payload["best"]["rank"] == 1
        assert 1 <= payload["countries_ranked"] <= 2

    def test_unranked_site_is_404(self, service):
        with pytest.raises(NotFound):
            service.site("no-such-site.invalid")

    def test_empty_site_is_400(self, service):
        with pytest.raises(BadRequest):
            service.site("")


class TestDistribution:
    def test_curve_shape(self, service):
        payload = body(service.distribution())
        assert payload["platform"] == "windows"
        assert payload["total_sites"] > 0
        assert payload["anchors"]
        shares = payload["cumulative_share"]
        assert shares["1"] <= shares["10"] <= 1.0


class TestAnalysis:
    def test_artifact_payload(self, service):
        payload = body(service.analysis("concentration"))
        assert payload["task"] == "concentration"
        assert payload["section"].startswith("§4.1")
        assert payload["result"]

    def test_unknown_task_404_lists_registry(self, service):
        with pytest.raises(NotFound) as exc:
            service.analysis("nope")
        assert "concentration" in exc.value.payload()["choices"]

    def test_second_call_skips_the_pipeline(self, service):
        before = service.metrics_snapshot()
        service.analysis("concentration")
        first = service.metrics_snapshot()
        assert moved(before, first)["counters"]["pipeline_runs"] == 1
        service.analysis("concentration")
        assert "counters" not in moved(first, service.metrics_snapshot())
        assert service.cache.hits == 1

    def test_warm_artifact_store_serves_cached(self, service_dataset, generator, tmp_path):
        store = tmp_path / "warm"
        first = QueryService(service_dataset, store=store, config=generator.config)
        cold = first.analysis("concentration")
        second = QueryService(service_dataset, store=store, config=generator.config)
        before = second.metrics_snapshot()
        warm = second.analysis("concentration")
        assert warm == cold  # byte-identical across cold and warm runs
        counters = moved(before, second.metrics_snapshot())["counters"]
        assert counters == {"pipeline_cached": 1, "pipeline_runs": 1}

    def test_catalogue(self, service):
        payload = body(service.analyses())
        names = [task["name"] for task in payload["tasks"]]
        assert names == sorted(names)
        assert "concentration" in names


class TestHealthAndMetrics:
    def test_healthz(self, service):
        payload = body(service.healthz())
        assert payload["status"] == "ok"
        assert payload["countries"] == 2
        assert payload["months"] == ["2022-02"]
        assert payload["lists"] == len(service.dataset)

    def test_metrics_accumulate(self, service):
        before = service.metrics_snapshot()
        service.rankings("US")
        service.rankings("US")
        with pytest.raises(NotFound):
            service.rankings("ZZ")
        payload = body(service.metrics_payload())
        assert payload["cache"]["hits"] == 1
        assert payload["cache"]["misses"] == 1  # ZZ fails before the cache probe
        assert payload["artifact_store"]["writes"] == 0
        # Requests are counted where responses are sent, by the HTTP
        # handler's span: direct calls move no endpoint.
        assert "endpoints" not in moved(before, payload)

    def test_errors_do_not_poison_the_cache(self, service):
        with pytest.raises(NotFound):
            service.rankings("ZZ")
        assert len(service.cache) == 0


class TestCachingSemantics:
    def test_identical_queries_are_byte_identical(self, service):
        first = service.rankings("KR", top=10)
        second = service.rankings("KR", top=10)
        assert first == second
        assert service.cache.hits == 1
        assert service.cache.misses == 1

    def test_distinct_params_get_distinct_entries(self, service):
        service.rankings("US", top=5)
        service.rankings("US", top=6)
        assert len(service.cache) == 2

    def test_concurrent_identical_requests_byte_identical(self, service):
        barrier = threading.Barrier(8)

        def fetch() -> bytes:
            barrier.wait()
            return service.rankings("US", top=25)

        with ThreadPoolExecutor(max_workers=8) as pool:
            bodies = [f.result() for f in [pool.submit(fetch) for _ in range(8)]]
        assert len(set(bodies)) == 1
        snap = service.cache.snapshot()
        assert snap["hits"] + snap["misses"] == 8

    def test_concurrent_analysis_runs_pipeline_once(self, service):
        before = service.metrics_snapshot()
        barrier = threading.Barrier(6)

        def fetch() -> bytes:
            barrier.wait()
            return service.analysis("concentration")

        with ThreadPoolExecutor(max_workers=6) as pool:
            bodies = [f.result() for f in [pool.submit(fetch) for _ in range(6)]]
        assert len(set(bodies)) == 1
        assert moved(before, service.metrics_snapshot())["counters"][
            "pipeline_runs"] == 1

    def test_cache_disabled_still_byte_identical(self, service_dataset, generator):
        service = QueryService(service_dataset, config=generator.config, cache=0)
        assert service.rankings("US") == service.rankings("US")
        assert len(service.cache) == 0


class TestSingleFlightLifecycle:
    """Flight locks are per-build scaffolding and must never accumulate."""

    def test_flights_empty_after_success(self, service):
        service.rankings("US")
        service.site(json.loads(service.rankings("US", top=1))["sites"][0])
        assert service._flights == {}

    def test_flights_empty_after_error(self, service):
        # The 404 is raised inside build(), i.e. while the flight lock
        # for this key is held — it must still be discarded.
        with pytest.raises(NotFound):
            service.site("no-such-site.invalid")
        assert service._flights == {}

    def test_flights_empty_after_mixed_sequence(self, service):
        service.rankings("US")
        with pytest.raises(NotFound):
            service.site("no-such-site.invalid")
        service.rankings("KR")
        with pytest.raises(NotFound):
            service.rankings("US", month="2021-12")
        assert service._flights == {}

    def test_hammering_an_erroring_key_stays_bounded(self, service):
        barrier = threading.Barrier(8)

        def hammer(i: int) -> None:
            barrier.wait()
            for _ in range(20):
                with pytest.raises(NotFound):
                    service.site(f"missing-{i % 2}.invalid")

        with ThreadPoolExecutor(max_workers=8) as pool:
            for f in [pool.submit(hammer, i) for i in range(8)]:
                f.result()
        assert service._flights == {}
        assert len(service.cache) == 0  # errors never cached either

    def test_erroring_key_can_still_single_flight_later(self, service):
        with pytest.raises(NotFound):
            service.site("no-such-site.invalid")
        # A later success on the same shape of call works normally.
        top = json.loads(service.rankings("US", top=1))["sites"][0]
        assert json.loads(service.site(top))["site"] == top
        assert service._flights == {}


class TestStorageBackends:
    def test_mapped_grid_materialises_on_query(self, generator, tmp_path):
        from repro.export.io import load_dataset, save_dataset

        grid = generator.generate(
            countries=("US", "FR"),
            platforms=(Platform.WINDOWS,),
            metrics=(Metric.PAGE_LOADS,),
        )
        save_dataset(grid, tmp_path / "col", format="columnar")
        service = QueryService(
            load_dataset(tmp_path / "col"), config=generator.config
        )
        assert service.dataset.pending == 2
        payload = body(service.rankings("FR", top=3))
        assert payload["country"] == "FR"
        assert service.dataset.pending == 1
        health = body(service.healthz())
        assert health["pending_slices"] == 1

    def test_healthz_reports_storage(self, service):
        assert body(service.healthz())["storage"] == "memory"

    def test_serves_a_mapped_columnar_dataset(
        self, service_dataset, generator, tmp_path
    ):
        from repro.export.io import save_dataset
        from repro.api import load

        save_dataset(service_dataset, tmp_path / "col", format="columnar")
        mapped = load(tmp_path / "col")
        service = QueryService(
            mapped, store=tmp_path / "artifacts", config=generator.config
        )
        health = body(service.healthz())
        assert health["storage"] == "columnar-mmap"
        assert health["pending_slices"] == len(service_dataset)
        payload = body(service.rankings("US", top=5))
        expected = service_dataset.get(
            "US", Platform.WINDOWS, Metric.PAGE_LOADS,
            service_dataset.months[-1],
        )
        assert tuple(payload["sites"]) == expected.top(5).sites
