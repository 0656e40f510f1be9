"""Tests for the HTTP layer: routing, errors, caching acceptance criteria."""

import json
import threading
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.service import ENDPOINTS, create_server
from tests.service.conftest import moved


@pytest.fixture()
def server(service):
    srv = create_server(service, "127.0.0.1", 0)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    yield srv
    srv.shutdown()
    srv.server_close()
    thread.join(timeout=5)


def fetch(server, path: str) -> tuple[int, bytes]:
    """GET ``path``; returns (status, body) for 2xx and 4xx/5xx alike."""
    try:
        with urllib.request.urlopen(server.url + path, timeout=10) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as error:
        return error.code, error.read()


def fetch_json(server, path: str) -> tuple[int, dict]:
    status, raw = fetch(server, path)
    return status, json.loads(raw)


class TestRouting:
    def test_index_lists_endpoints(self, server):
        status, payload = fetch_json(server, "/")
        assert status == 200
        assert payload["endpoints"] == list(ENDPOINTS)

    def test_healthz(self, server):
        status, payload = fetch_json(server, "/v1/healthz")
        assert status == 200
        assert payload["status"] == "ok"

    def test_rankings(self, server):
        status, payload = fetch_json(server, "/v1/rankings?country=KR&top=3")
        assert status == 200
        assert payload["country"] == "KR"
        assert len(payload["sites"]) == 3

    def test_rankings_full_params(self, server):
        status, payload = fetch_json(
            server,
            "/v1/rankings?country=us&platform=android"
            "&metric=time_on_page&month=2022-02&top=2",
        )
        assert status == 200
        assert payload["platform"] == "android"
        assert payload["metric"] == "time_on_page"

    def test_sites(self, server, service):
        top = json.loads(service.rankings("US", top=1))["sites"][0]
        status, payload = fetch_json(server, f"/v1/sites/{top}")
        assert status == 200
        assert payload["ranks"]["US"] == 1

    def test_distributions(self, server):
        status, payload = fetch_json(server, "/v1/distributions")
        assert status == 200
        assert payload["total_sites"] > 0

    def test_analyses_catalogue(self, server):
        status, payload = fetch_json(server, "/v1/analyses")
        assert status == 200
        assert any(t["name"] == "concentration" for t in payload["tasks"])

    def test_trailing_slash_is_tolerated(self, server):
        assert fetch(server, "/v1/healthz/")[0] == 200


class TestServerUrl:
    def test_loopback_bind_round_trips(self, server):
        host, port = server.server_address[:2]
        assert server.url == f"http://{host}:{port}"

    def test_wildcard_bind_substitutes_loopback(self, service):
        srv = create_server(service, "0.0.0.0", 0)
        try:
            port = srv.server_address[1]
            assert srv.url == f"http://127.0.0.1:{port}"
        finally:
            srv.server_close()

    def test_wildcard_url_is_connectable(self, service):
        srv = create_server(service, "0.0.0.0", 0)
        thread = threading.Thread(target=srv.serve_forever, daemon=True)
        thread.start()
        try:
            status, payload = fetch_json(srv, "/v1/healthz")
            assert status == 200
            assert payload["status"] == "ok"
        finally:
            srv.shutdown()
            srv.server_close()
            thread.join(timeout=5)


class TestSegmentDecoding:
    def test_encoded_slash_stays_one_site_segment(self, server):
        # %2F must not shatter the route: this is a site lookup that
        # finds nothing, not an unknown-endpoint 404.
        status, payload = fetch_json(server, "/v1/sites/foo%2Fbar")
        assert status == 404
        assert "foo/bar" in payload["message"]
        assert "not ranked" in payload["message"]

    def test_encoded_site_routes_and_decodes(self, server, service):
        top = json.loads(service.rankings("US", top=1))["sites"][0]
        encoded = f"%{ord(top[0]):02X}{top[1:]}"  # first char percent-encoded
        assert encoded != top
        status, payload = fetch_json(server, f"/v1/sites/{encoded}")
        assert status == 200
        assert payload["site"] == top

    def test_encoded_slash_in_task_name_is_one_segment(self, server):
        status, payload = fetch_json(server, "/v1/analyses/a%2Fb")
        assert status == 404
        assert "concentration" in payload["choices"]  # task 404, not route

    def test_literal_extra_segment_is_still_unknown_route(self, server):
        status, payload = fetch_json(server, "/v1/sites/a/b")
        assert status == 404
        assert payload["choices"] == list(ENDPOINTS)


class TestErrors:
    def test_unknown_country_is_404_with_choices(self, server):
        status, payload = fetch_json(server, "/v1/rankings?country=ZZ")
        assert status == 404
        assert payload["error"] == "not_found"
        assert payload["choices"] == ["KR", "US"]
        assert "Traceback" not in payload["message"]

    def test_missing_country_param_is_404(self, server):
        status, payload = fetch_json(server, "/v1/rankings")
        assert status == 404
        assert payload["choices"] == ["KR", "US"]

    def test_bad_platform_is_400(self, server):
        status, payload = fetch_json(server, "/v1/rankings?country=US&platform=amiga")
        assert status == 400
        assert payload["error"] == "bad_request"

    def test_unknown_task_is_404_with_registry(self, server):
        status, payload = fetch_json(server, "/v1/analyses/nope")
        assert status == 404
        assert "concentration" in payload["choices"]

    def test_unknown_route_is_404_with_endpoints(self, server, service):
        before = service.metrics_snapshot()
        status, payload = fetch_json(server, "/v2/everything")
        assert status == 404
        assert payload["choices"] == list(ENDPOINTS)
        delta = moved(before, service.metrics_snapshot())
        assert delta["endpoints"]["unknown"]["errors"] == 1

    def test_write_methods_are_405(self, server):
        request = urllib.request.Request(
            server.url + "/v1/healthz", data=b"{}", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as exc:
            urllib.request.urlopen(request, timeout=10)
        assert exc.value.code == 405
        assert json.loads(exc.value.read())["error"] == "method_not_allowed"


class TestAcceptance:
    """The ISSUE's acceptance criteria, asserted over the wire."""

    def test_second_request_served_from_lru_without_pipeline(
        self, server, service
    ):
        before = service.metrics_snapshot()
        first = fetch(server, "/v1/analyses/concentration")
        second = fetch(server, "/v1/analyses/concentration")
        assert first == second  # status and bytes
        _, metrics = fetch_json(server, "/v1/metrics")
        delta = moved(before, metrics)
        assert delta["counters"]["pipeline_runs"] == 1
        assert metrics["cache"]["hits"] == 1
        assert delta["endpoints"]["analysis"]["requests"] == 2

    def test_concurrent_identical_requests_byte_identical(self, server):
        barrier = threading.Barrier(8)

        def hit() -> tuple[int, bytes]:
            barrier.wait()
            return fetch(server, "/v1/rankings?country=US&top=20")

        with ThreadPoolExecutor(max_workers=8) as pool:
            results = [f.result() for f in [pool.submit(hit) for _ in range(8)]]
        statuses = {status for status, _ in results}
        bodies = {raw for _, raw in results}
        assert statuses == {200}
        assert len(bodies) == 1

    def test_metrics_track_latency_histograms(self, server, service):
        before = service.metrics_snapshot()
        fetch(server, "/v1/rankings?country=US")
        _, metrics = fetch_json(server, "/v1/metrics")
        rankings = moved(before, metrics)["endpoints"]["rankings"]
        assert rankings["latency"]["count"] == 1
        assert sum(rankings["latency"]["buckets"].values()) == 1
        assert rankings["requests"] == 1


class TestExactlyOnceMetrics:
    """Every response is observed exactly once, whatever path produced it."""

    def test_counters_equal_responses_sent(self, server, service):
        def total() -> int:
            return moved(before, service.metrics_snapshot()).get(
                "requests_total", 0)

        before = service.metrics_snapshot()
        responses = 0
        for path in (
            "/",                                  # index
            "/v1/healthz",                        # 200 via the service
            "/v1/rankings?country=US",            # 200 via the service
            "/v1/rankings",                       # 404 raised in the renderer
            "/v1/rankings?country=ZZ",            # 404 raised in the service
            "/v1/rankings?country=US&platform=x", # 400 raised in the service
            "/v2/everything",                     # 404 unknown route
            "/v1/sites/a/b",                      # 404 unknown route shape
        ):
            fetch(server, path)
            responses += 1
        request = urllib.request.Request(
            server.url + "/v1/healthz", data=b"{}", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError):
            urllib.request.urlopen(request, timeout=10)  # 405
        responses += 1

        assert total() == responses
        status, metrics = fetch_json(server, "/v1/metrics")
        responses += 1
        assert status == 200
        # The snapshot was taken before its own response went out.
        assert moved(before, metrics)["requests_total"] == responses - 1
        assert total() == responses

    def test_route_level_404_reaches_metrics(self, server, service):
        before = service.metrics_snapshot()
        fetch(server, "/v1/rankings")  # missing ?country — raised in _rankings
        stats = moved(before, service.metrics_snapshot())["endpoints"]["rankings"]
        assert stats == {**stats, "requests": 1, "errors": 1}

    def test_405_reaches_metrics(self, server, service):
        before = service.metrics_snapshot()
        request = urllib.request.Request(
            server.url + "/v1/metrics", data=b"{}", method="PUT"
        )
        with pytest.raises(urllib.error.HTTPError):
            urllib.request.urlopen(request, timeout=10)
        delta = moved(before, service.metrics_snapshot())
        stats = delta["endpoints"]["method_not_allowed"]
        assert stats == {**stats, "requests": 1, "errors": 1}
        assert delta["requests_total"] == 1


class TestTraceWiring:
    def test_metrics_trace_block_disabled_by_default(self, server):
        _, metrics = fetch_json(server, "/v1/metrics")
        assert metrics["trace"] == {"enabled": False}

    def test_requests_traced_when_tracer_installed(self, server):
        from repro.obs import Tracer, set_tracer

        tracer = Tracer()
        previous = set_tracer(tracer)
        try:
            fetch(server, "/v1/rankings?country=US&top=3")
            fetch(server, "/v2/everything")
            _, metrics = fetch_json(server, "/v1/metrics")
        finally:
            set_tracer(previous)

        assert metrics["trace"]["enabled"] is True
        assert metrics["trace"]["trace_id"] == tracer.trace_id
        # Each response is one span, closed before the response is
        # written: no other span stands for the request.
        spans = tracer.collector.snapshot()
        assert sorted(
            (s["name"], s["attrs"]["status_code"], s["status"])
            for s in spans
        ) == [("http.metrics", 200, "ok"), ("http.rankings", 200, "ok"),
              ("http.unknown", 404, "error")]
        unknown = next(s for s in spans if s["name"] == "http.unknown")
        assert unknown["error"].startswith("NotFound: unknown endpoint")
