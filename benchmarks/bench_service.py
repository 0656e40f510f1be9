"""Serving-layer benchmark: cold vs warm payload cache, HTTP throughput.

Stands a :class:`QueryService` (and its HTTP server) over the February
full-grid dataset and times three things:

* **cold vs warm query latency** — every country's rankings payload is
  rendered once (miss: dataset lookup + JSON render) and again (hit:
  LRU bytes); the analysis endpoint likewise pays one pipeline run cold
  and serves stored bytes warm.
* **byte identity** — warm responses are asserted equal to the cold
  render, and concurrent identical HTTP requests must agree.
* **threaded HTTP throughput** — a warm server is hammered by client
  threads over the loopback interface; requests/second is printed.

Latency ratios are printed but only direction is asserted (warm must
not lose to cold): absolute numbers are machine-dependent.
"""

from __future__ import annotations

import threading
import time
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.service import QueryService, create_server

from _bench_utils import print_comparison

CLIENT_THREADS = 8
REQUESTS_PER_THREAD = 50


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


@pytest.fixture(scope="module")
def service(engine, feb_dataset, tmp_path_factory) -> QueryService:
    store = tmp_path_factory.mktemp("service") / "artifacts"
    return QueryService(feb_dataset, store=store, config=engine.config)


def test_service_cold_vs_warm(benchmark, service):
    countries = service.dataset.countries

    def sweep() -> list[bytes]:
        return [service.rankings(country, top=50) for country in countries]

    cold_t, cold = _timed(
        lambda: benchmark.pedantic(sweep, rounds=1, iterations=1)
    )
    warm_t, warm = _timed(sweep)
    assert warm == cold, "warm payloads must be byte-identical to cold"
    assert service.cache.hits >= len(countries)

    runs = service.metrics_snapshot()["counters"]["pipeline_runs"]
    analysis_cold_t, analysis_cold = _timed(
        lambda: service.analysis("concentration")
    )
    analysis_warm_t, analysis_warm = _timed(
        lambda: service.analysis("concentration")
    )
    assert analysis_warm == analysis_cold
    assert service.metrics_snapshot()["counters"]["pipeline_runs"] == runs + 1

    per_cold = cold_t / len(countries) * 1000.0
    per_warm = warm_t / len(countries) * 1000.0
    speedup = cold_t / warm_t if warm_t > 0 else float("inf")
    print_comparison(
        [
            ("rankings cold (ms/req)", "-", f"{per_cold:.3f}",
             f"{len(countries)} countries, top 50"),
            ("rankings warm (ms/req)", "-", f"{per_warm:.3f}", "LRU bytes"),
            ("cold -> warm speedup", "> 1.0", f"{speedup:.1f}x", ""),
            ("analysis cold (ms)", "-", f"{analysis_cold_t * 1000.0:.1f}",
             "1 pipeline run"),
            ("analysis warm (ms)", "-", f"{analysis_warm_t * 1000.0:.1f}",
             "0 pipeline runs"),
            ("payloads", "byte-identical", "byte-identical",
             f"{len(cold)} rankings + 1 analysis"),
        ],
        "Serving layer — cold vs warm payload cache",
    )
    assert warm_t <= cold_t, "the payload cache should not lose to a rebuild"


def test_http_threaded_throughput(benchmark, service):
    server = create_server(service, "127.0.0.1", 0)
    server_thread = threading.Thread(target=server.serve_forever, daemon=True)
    server_thread.start()
    countries = service.dataset.countries[:CLIENT_THREADS]
    paths = [f"/v1/rankings?country={c}&top=50" for c in countries]

    def fetch(path: str) -> bytes:
        with urllib.request.urlopen(server.url + path, timeout=30) as response:
            assert response.status == 200
            return response.read()

    try:
        for path in paths:  # warm every payload outside the timing
            fetch(path)

        def storm() -> list[bytes]:
            def client(path: str) -> list[bytes]:
                return [fetch(path) for _ in range(REQUESTS_PER_THREAD)]

            with ThreadPoolExecutor(max_workers=CLIENT_THREADS) as pool:
                return [
                    body
                    for future in [pool.submit(client, p) for p in paths]
                    for body in future.result()
                ]

        elapsed, bodies = _timed(
            lambda: benchmark.pedantic(storm, rounds=1, iterations=1)
        )
    finally:
        server.shutdown()
        server.server_close()
        server_thread.join(timeout=10)

    total = CLIENT_THREADS * REQUESTS_PER_THREAD
    assert len(bodies) == total
    # Each path's responses must agree byte-for-byte across threads.
    assert len(set(bodies)) == len(paths)
    throughput = total / elapsed if elapsed > 0 else float("inf")
    print_comparison(
        [
            ("HTTP requests", "-", f"{total}",
             f"{CLIENT_THREADS} threads x {REQUESTS_PER_THREAD}"),
            ("wall clock (s)", "-", f"{elapsed:.2f}", "loopback, warm cache"),
            ("throughput (req/s)", "-", f"{throughput:.0f}", ""),
            ("responses per path", "byte-identical", "byte-identical",
             f"{len(paths)} distinct queries"),
        ],
        "Serving layer — threaded HTTP throughput",
    )
