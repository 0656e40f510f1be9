"""Span overhead on the warm serving path, against a <2% budget.

Instrumented code always runs ``with get_tracer().span(...)`` — there
is no "tracing off" branch — and every span, traced or not, closes
into the process-wide span aggregate that ``/v1/metrics`` renders.  So
the cost of *disabled* tracing is exactly the cost of one aggregating
span (what :data:`~repro.obs.NULL_TRACER` hands out: timed into the
aggregate, not collected) per span site.  This benchmark pins that
down three ways:

* **span primitive cost** — nanoseconds per aggregating span, measured
  over a tight loop (stable, unlike end-to-end A/B deltas that drown
  in network jitter);
* **budget check** — a warm HTTP rankings request crosses one span
  site (its ``http.rankings`` span, the one observation of the
  response); that span's cost must stay under 2% of the measured
  warm-request latency over loopback;
* **enabled-tracer ratio** — the same warm sweep with a real
  :class:`~repro.obs.Tracer` installed, printed for scale (enabled
  tracing buys collected spans, so it is allowed to cost more; only
  the disabled path has a hard budget).
"""

from __future__ import annotations

import threading
import time
import urllib.request

import pytest

from repro.obs import NULL_TRACER, Tracer, get_tracer, set_tracer
from repro.service import QueryService, create_server

from _bench_utils import print_comparison

#: Span sites a warm HTTP rankings request crosses (``http.rankings``);
#: the budget check charges one aggregating span for each.
SPANS_PER_REQUEST = 1

#: The acceptance bound: disabled tracing must stay under this share
#: of the warm-request latency.
OVERHEAD_BUDGET = 0.02

SPAN_LOOPS = 200_000
HTTP_SWEEPS = 5


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


@pytest.fixture(scope="module")
def service(engine, feb_dataset, tmp_path_factory) -> QueryService:
    store = tmp_path_factory.mktemp("obs") / "artifacts"
    return QueryService(feb_dataset, store=store, config=engine.config)


def test_disabled_tracing_overhead(benchmark, service):
    assert get_tracer() is NULL_TRACER  # the default: tracing off

    server = create_server(service, "127.0.0.1", 0)
    server_thread = threading.Thread(target=server.serve_forever, daemon=True)
    server_thread.start()
    paths = [
        f"/v1/rankings?country={c}&top=50" for c in service.dataset.countries
    ]

    def fetch(path: str) -> None:
        with urllib.request.urlopen(server.url + path, timeout=30) as response:
            assert response.status == 200
            response.read()

    def sweep() -> None:
        for path in paths:
            fetch(path)

    def warm_rounds() -> None:
        for _ in range(HTTP_SWEEPS):
            sweep()

    try:
        sweep()  # warm the payload cache outside the timing
        disabled_t, _ = _timed(
            lambda: benchmark.pedantic(warm_rounds, rounds=1, iterations=1)
        )

        tracer = Tracer()
        previous = set_tracer(tracer)
        try:
            enabled_t, _ = _timed(warm_rounds)
        finally:
            set_tracer(previous)
    finally:
        server.shutdown()
        server.server_close()
        server_thread.join(timeout=10)

    requests = HTTP_SWEEPS * len(paths)
    per_request = disabled_t / requests
    # Every traced request yields exactly its one span site.
    assert len(tracer.collector) == requests * SPANS_PER_REQUEST
    ratio = enabled_t / disabled_t if disabled_t > 0 else float("inf")

    def span_loop() -> None:
        for _ in range(SPAN_LOOPS):
            with get_tracer().span("bench.span"):
                pass

    span_t, _ = _timed(span_loop)
    per_span = span_t / SPAN_LOOPS
    share = (per_span * SPANS_PER_REQUEST) / per_request

    print_comparison(
        [
            ("warm HTTP request (us)", "-", f"{per_request * 1e6:.1f}",
             f"{requests} LRU-hit rankings over loopback"),
            ("aggregating span (ns)", "-", f"{per_span * 1e9:.0f}",
             f"{SPAN_LOOPS} untraced enters/exits"),
            ("disabled overhead/request", f"< {OVERHEAD_BUDGET:.0%}",
             f"{share:.3%}", f"{SPANS_PER_REQUEST} span sites"),
            ("enabled/disabled sweep", "-", f"{ratio:.2f}x",
             f"{len(tracer.collector)} real spans recorded"),
        ],
        "Observability — tracing overhead on the warm serving path",
    )
    assert share < OVERHEAD_BUDGET, (
        f"disabled tracing costs {share:.3%} of a warm request "
        f"(budget {OVERHEAD_BUDGET:.0%})"
    )
