"""Fleet serving benchmark: single-process vs pre-forked workers.

Saves a small columnar dataset and replays one seeded Zipf query mix
against one server process (a 1-worker fleet, which serves as
``repro serve`` does), then a 2-worker fleet, over it; prints
throughput and p99 latency and writes ``BENCH_fleet.json``.  Both
servers run in processes of their own, so neither shares a GIL with
the client.  The mix follows the paper's heavy-tailed attention
(Figure 1, §4.1): endpoints by :data:`MIX`, countries and head sites by
``1/rank^s`` with ``s`` fit to the dataset's traffic curve.

Zero errors, byte-identical payloads and no worker restarts are always
asserted; the fleet must beat one process with ``WORKERS + 1`` cores
and double it with 4 (a small container cannot express process
parallelism, and a speedup there would test the scheduler).
"""

from __future__ import annotations

import hashlib
import http.client
import itertools
import json
import math
import multiprocessing
import os
import random
import threading
import time
import urllib.request
from contextlib import contextmanager
from dataclasses import dataclass, field
from urllib.parse import quote, urlsplit

import pytest

import repro
from repro.fleet import FleetSupervisor
from repro.service.spec import ServeSpec, build_service

from _bench_utils import print_comparison, write_bench_json

WORKERS = 2
DURATION_S = 4.0
CONCURRENCY = 8
SEED = 2022
#: Requests in the seeded schedule; client threads stride through it.
SCHEDULE_LEN = 4096
#: Head sites of the top country that feed ``/v1/sites`` queries.
TOP_SITES = 100
#: Endpoint shares of the mix: rankings are the product surface, site
#: lookups second.
MIX = {"rankings": 0.55, "site": 0.25, "distribution": 0.08,
       "analyses": 0.07, "healthz": 0.05}


def _cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-linux
        return os.cpu_count() or 1


def zipf_exponent(anchors) -> float:
    """The Zipf exponent implied by cumulative (rank, share) anchors.

    Consecutive anchors give a mean density ``Δshare/Δrank`` at the
    span's geometric mid rank; the exponent is the negated
    least-squares slope of log(density) on log(rank), clamped to
    [0.3, 2.5].  Degenerate anchors fall back to 1.0.
    """
    points = [
        (math.log(math.sqrt(r1 * r2)), math.log((s2 - s1) / (r2 - r1)))
        for (r1, s1), (r2, s2) in zip(anchors, anchors[1:])
        if r2 > r1 and s2 > s1
    ]
    if len(points) < 2:
        return 1.0
    mean_x = sum(x for x, _ in points) / len(points)
    mean_y = sum(y for _, y in points) / len(points)
    var = sum((x - mean_x) ** 2 for x, _ in points)
    if var == 0:
        return 1.0
    cov = sum((x - mean_x) * (y - mean_y) for x, y in points)
    return min(2.5, max(0.3, -(cov / var)))


def build_schedule(service) -> list[str]:
    """The seeded Zipf-shaped request paths for ``service``'s dataset."""
    health = json.loads(service.healthz())
    pairs = [(p, m) for p in health["platforms"] for m in health["metrics"]]
    countries = list(service.dataset.countries)
    s = zipf_exponent(json.loads(service.distribution())["anchors"])
    sites = json.loads(service.rankings(countries[0], top=TOP_SITES))["sites"]
    paths: list[str] = []
    weights: list[float] = []

    def zipf(items):
        weight = [1.0 / rank ** s for rank in range(1, len(items) + 1)]
        return zip(items, weight), sum(weight)

    ranked, total = zipf(countries)
    for i, (country, weight) in enumerate(ranked):
        # The three head countries fan out across the slice grid.
        variants = [""] + (
            [f"&platform={p}&metric={m}" for p, m in pairs] if i < 3 else []
        )
        for variant in variants:
            paths.append(f"/v1/rankings?country={country}&top=50{variant}")
            weights.append(
                MIX["rankings"] * weight / (total * len(variants))
            )
    ranked, total = zipf(sites)
    for site, weight in ranked:
        paths.append(f"/v1/sites/{quote(site, safe='')}")
        weights.append(MIX["site"] * weight / total)
    for platform, metric in pairs:
        paths.append(f"/v1/distributions?platform={platform}&metric={metric}")
        weights.append(MIX["distribution"] / len(pairs))
    paths += ["/v1/analyses", "/v1/healthz"]
    weights += [MIX["analyses"], MIX["healthz"]]
    return random.Random(SEED).choices(paths, weights=weights, k=SCHEDULE_LEN)


@dataclass
class Tally:
    """Requests, errors and per-response latencies of one replay."""

    requests: int = 0
    errors: int = 0
    latencies_ms: list[float] = field(default_factory=list)
    seconds: float = 0.0

    def merge(self, other: "Tally") -> None:
        self.requests += other.requests
        self.errors += other.errors
        self.latencies_ms += other.latencies_ms

    @property
    def rps(self) -> float:
        return self.requests / self.seconds if self.seconds > 0 else 0.0

    @property
    def p99_ms(self) -> float:
        ordered = sorted(self.latencies_ms) or [0.0]
        return ordered[max(0, math.ceil(0.99 * len(ordered)) - 1)]


def _client(url, schedule, offset, stride, deadline, tally) -> None:
    """One client thread: a keep-alive connection, its slice of the schedule."""
    split = urlsplit(url)
    conn = http.client.HTTPConnection(split.hostname, split.port, timeout=10)
    at = offset
    while time.perf_counter() < deadline:
        path = schedule[at % len(schedule)]
        at += stride
        tally.requests += 1
        started = time.perf_counter()
        try:
            conn.request("GET", path)
            resp = conn.getresponse()
            body = resp.read()
        except (OSError, http.client.HTTPException):
            # A dead connection counts as an error; reconnect.
            tally.errors += 1
            conn.close()
            conn = http.client.HTTPConnection(split.hostname, split.port, timeout=10)
            continue
        tally.latencies_ms.append((time.perf_counter() - started) * 1000.0)
        if resp.status >= 400 or not body:
            tally.errors += 1
    conn.close()


def _threads(url, schedule, offsets, stride, deadline) -> Tally:
    tallies = [Tally() for _ in offsets]
    threads = [
        threading.Thread(
            target=_client,
            args=(url, schedule, offset, stride, deadline, tally),
            daemon=True,
        )
        for offset, tally in zip(offsets, tallies)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    total = Tally()
    for tally in tallies:
        total.merge(tally)
    return total


def replay(url, schedule, *, duration, concurrency, client_procs=1) -> Tally:
    """Drive ``schedule`` at ``url`` for ``duration`` seconds.

    ``concurrency`` threads stride through the one schedule, divided
    among ``client_procs`` forked processes whose tallies are merged.
    """
    started = time.perf_counter()
    deadline = started + duration
    if client_procs == 1:
        tally = _threads(url, schedule, range(concurrency), concurrency, deadline)
    else:
        ctx = multiprocessing.get_context("fork")
        queue = ctx.Queue()
        procs = [
            ctx.Process(
                target=lambda *args: queue.put(_threads(*args)),
                args=(url, schedule, range(index, concurrency, client_procs),
                      concurrency, deadline),
                daemon=True,
            )
            for index in range(client_procs)
        ]
        for proc in procs:
            proc.start()
        tally = Tally()
        for _ in procs:
            tally.merge(queue.get())
        for proc in procs:
            proc.join()
    tally.seconds = time.perf_counter() - started
    return tally


def _get(url: str) -> bytes:
    with urllib.request.urlopen(url, timeout=10) as resp:
        return resp.read()


@contextmanager
def fleet_server(data, workers: int, timeout: float = 60.0):
    """A ``workers``-process fleet over ``data``, yielded once all answer.

    The supervisor returns before its workers have loaded the dataset;
    timing from then would charge their start-up to the fleet.  A lone
    worker serves as ``repro serve`` does, with no ``fleet`` block.
    """
    supervisor = FleetSupervisor(
        ServeSpec(data=data, small=True), port=0, workers=workers
    ).start()
    deadline = time.monotonic() + timeout
    try:
        while True:
            try:
                metrics = json.loads(_get(supervisor.url + "/v1/metrics"))
                fleet = metrics.get("fleet", {"workers": [0], "unreachable": []})
                if len(fleet["workers"]) == workers and not fleet["unreachable"]:
                    break
            except OSError:
                pass
            assert time.monotonic() < deadline, f"fleet not ready in {timeout}s"
            time.sleep(0.05)
        yield supervisor
    finally:
        supervisor.stop()


def _served(url: str) -> int:
    """Requests the server has answered, not counting ``/v1/metrics``."""
    endpoints = json.loads(_get(url + "/v1/metrics"))["endpoints"]
    return sum(v["requests"] for k, v in endpoints.items() if k != "metrics")


@pytest.fixture(scope="module")
def columnar_data(tmp_path_factory):
    out = tmp_path_factory.mktemp("fleet-bench") / "data"
    repro.generate(
        small=True, countries=("US", "KR", "JP", "BR"),
        out=str(out), format="columnar",
    )
    return str(out)


@pytest.fixture(scope="module")
def service(columnar_data):
    """An in-process service over the dataset, for building the schedule."""
    return build_service(ServeSpec(data=columnar_data, small=True))


def test_zipf_fit(benchmark):
    """Anchors of an exact Zipf(1.0) curve fit back to about 1.0."""
    cumulative = list(itertools.accumulate(1.0 / r for r in range(1, 100_001)))
    anchors = [[r, cumulative[r - 1] / cumulative[-1]]
               for r in (1, 10, 100, 1_000, 10_000, 100_000)]
    fitted = benchmark(zipf_exponent, anchors)
    assert math.isclose(fitted, 1.0, abs_tol=0.15), fitted
    assert zipf_exponent([]) == 1.0
    assert zipf_exponent([[1, 0.5]]) == 1.0
    assert zipf_exponent([[1, 0.5], [1, 0.5]]) == 1.0


def test_schedule_is_seeded(service, benchmark):
    """The schedule is the same on every build, and the same traffic as
    the retired ``repro loadtest`` harness drew for this dataset and seed."""
    first = benchmark.pedantic(
        build_schedule, args=(service,), rounds=1, iterations=1
    )
    assert build_schedule(service) == first
    assert len(first) == SCHEDULE_LEN
    digest = hashlib.sha256("\n".join(first).encode()).hexdigest()
    assert digest == (
        "8519afc198139f9d45642f6b1be7837b4007955c1118066c99f54c5f8b6e55ff"
    )


@pytest.mark.skipif(not hasattr(os, "fork"), reason="forked clients need fork()")
def test_forked_client_counts_merge(columnar_data, service, benchmark):
    """Both forked clients' counts reach the merged tally."""
    with fleet_server(columnar_data, 1) as one:
        before = _served(one.url)
        tally = benchmark.pedantic(
            replay, args=(one.url, build_schedule(service)),
            kwargs={"duration": 0.5, "concurrency": 4, "client_procs": 2},
            rounds=1, iterations=1,
        )
        served = _served(one.url) - before
    assert tally.errors == 0
    assert tally.requests == served == len(tally.latencies_ms) > 0


@pytest.mark.skipif(not hasattr(os, "fork"), reason="fleet needs fork()")
def test_fleet_vs_single_process_throughput(columnar_data, service, benchmark):
    schedule = build_schedule(service)
    # -- single process ----------------------------------------------------------
    with fleet_server(columnar_data, 1) as one:
        single = replay(
            one.url, schedule, duration=DURATION_S, concurrency=CONCURRENCY
        )
        single_bytes = _get(one.url + "/v1/rankings?country=US&top=10")
    assert single.errors == 0, f"{single.errors} errors under single load"

    # -- fleet -------------------------------------------------------------------
    cores = _cores()
    client_procs = 2 if cores >= WORKERS + 1 else 1
    with fleet_server(columnar_data, WORKERS) as fleet_sup:
        fleet = benchmark.pedantic(
            replay, args=(fleet_sup.url, schedule),
            kwargs={"duration": DURATION_S, "concurrency": CONCURRENCY,
                    "client_procs": client_procs},
            rounds=1, iterations=1,
        )
        fleet_bytes = _get(fleet_sup.url + "/v1/rankings?country=US&top=10")
        fleet_block = json.loads(_get(fleet_sup.url + "/v1/metrics"))["fleet"]

    assert fleet.errors == 0, f"{fleet.errors} errors under fleet load"
    assert fleet_bytes == single_bytes, "fleet payloads must be byte-identical"
    assert fleet_block["size"] == WORKERS
    assert fleet_block["restarts_total"] == 0

    speedup = fleet.rps / max(single.rps, 1e-9)
    print_comparison([
        ("single rps", f"{single.rps:.0f}", "-"),
        (f"fleet({WORKERS}) rps", f"{fleet.rps:.0f}", f"{speedup:.2f}x"),
        ("single p99 ms", f"{single.p99_ms:.1f}", "-"),
        ("fleet p99 ms", f"{fleet.p99_ms:.1f}", "-"),
    ], "fleet serving: single process vs pre-forked")
    write_bench_json("fleet", {
        "workers": WORKERS,
        "client_procs": client_procs,
        "single": {"requests": single.requests, "rps": round(single.rps, 1)},
        "fleet": {"requests": fleet.requests, "rps": round(fleet.rps, 1)},
        "speedup": round(speedup, 3),
    })

    if cores < WORKERS + 1:
        print(f"\nonly {cores} core(s): speedup direction not asserted")
        return
    # Room for the workers *and* a client: the fleet must win, and with
    # two forked clients on 4 cores it must double one process.
    need = 2.0 if cores >= 4 else 1.0
    assert speedup > 1.0 and speedup >= need, (
        f"{WORKERS}-worker fleet reached {speedup:.2f}x of one process on "
        f"{cores} cores; {need:g}x required"
    )
