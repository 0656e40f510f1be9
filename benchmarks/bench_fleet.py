"""Fleet serving benchmark: single-process vs pre-forked workers.

Saves a small columnar dataset, serves it twice — one process, then a
``--workers``-style fleet — and replays the same seeded Zipf query mix
against both with :func:`repro.fleet.run_loadtest`.  Reports per-mode
throughput and latency percentiles and writes ``BENCH_fleet.json``
(the fleet run, with the single-process run attached as its baseline).

Assertions are directional and environment-aware: byte-identical
payloads and zero errors always; the fleet-beats-single throughput
check only applies when the machine actually has cores for the workers
to use (a 1-core container cannot express process parallelism, and
asserting a speedup there would test the scheduler, not the code).
"""

from __future__ import annotations

import os
import threading
import urllib.request

import pytest

import repro
from repro.fleet import SLO, run_loadtest

from _bench_utils import print_comparison, write_bench_json

WORKERS = 2
DURATION_S = 4.0
CONCURRENCY = 8
SEED = 2022


def _cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-linux
        return os.cpu_count() or 1


@pytest.fixture(scope="module")
def columnar_data(tmp_path_factory):
    out = tmp_path_factory.mktemp("fleet-bench") / "data"
    repro.generate(
        small=True, countries=("US", "KR", "JP", "BR"),
        out=str(out), format="columnar",
    )
    return str(out)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="fleet needs fork()")
def test_fleet_vs_single_process_throughput(columnar_data, benchmark):
    # -- single process ----------------------------------------------------------
    server = repro.serve(columnar_data, port=0, small=True, block=False)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        single = run_loadtest(
            server.url, duration=DURATION_S, concurrency=CONCURRENCY,
            seed=SEED, slo=SLO(error_rate=0.0),
        )
        with urllib.request.urlopen(
            server.url + "/v1/rankings?country=US&top=10", timeout=10
        ) as resp:
            single_bytes = resp.read()
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    assert single.ok, single.violations()

    # -- fleet -------------------------------------------------------------------
    # A single GIL-bound client saturates near one server process; fork the
    # load generator too once there are cores for it.
    client_procs = 2 if _cores() >= WORKERS + 1 else 1
    fleet_sup = repro.serve(
        columnar_data, port=0, workers=WORKERS, small=True, block=False
    )
    try:
        fleet = benchmark.pedantic(
            lambda: run_loadtest(
                fleet_sup.url, duration=DURATION_S, concurrency=CONCURRENCY,
                client_procs=client_procs, seed=SEED, slo=SLO(error_rate=0.0),
                baseline=single.to_payload(),
            ),
            rounds=1, iterations=1,
        )
        with urllib.request.urlopen(
            fleet_sup.url + "/v1/rankings?country=US&top=10", timeout=10
        ) as resp:
            fleet_bytes = resp.read()
    finally:
        fleet_sup.stop()

    assert fleet.errors == 0, f"{fleet.errors} errors under fleet load"
    assert fleet_bytes == single_bytes, "fleet payloads must be byte-identical"
    assert fleet.fleet is not None and fleet.fleet["size"] == WORKERS
    assert fleet.fleet["restarts_total"] == 0

    speedup = fleet.throughput_rps / max(single.throughput_rps, 1e-9)
    rows = [
        ("single rps", f"{single.throughput_rps:.0f}", "-"),
        (f"fleet({WORKERS}) rps", f"{fleet.throughput_rps:.0f}",
         f"{speedup:.2f}x"),
        ("single p99 ms", f"{single._overall()['p99_ms']:.1f}", "-"),
        ("fleet p99 ms", f"{fleet._overall()['p99_ms']:.1f}", "-"),
    ]
    print_comparison(rows, "fleet serving: single process vs pre-forked")

    write_bench_json("fleet", fleet.to_payload())

    cores = _cores()
    if cores >= WORKERS + 1:
        # Room for the workers *and* the client: the fleet must win.
        assert speedup > 1.0, (
            f"{WORKERS}-worker fleet did not beat one process "
            f"({speedup:.2f}x on {cores} cores)"
        )
    else:
        print(f"\nonly {cores} core(s): speedup direction not asserted")
