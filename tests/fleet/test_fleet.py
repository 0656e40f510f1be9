"""Integration tests: a real pre-forked fleet over a columnar dataset.

These fork actual worker processes around a shared listening socket and
drive them over HTTP, so they cover the properties that matter end to
end: byte-identity with single-process serving, local rendering,
merged metrics, crash restart, graceful stop + rebind, and mmap page
sharing.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

import repro
from repro.fleet import FleetSupervisor
from repro.fleet import worker as worker_module
from repro.service import ServeSpec, build_service, create_server

pytestmark = pytest.mark.skipif(
    not hasattr(os, "fork"), reason="fleet serving needs fork()"
)


def _get(url: str, timeout: float = 10.0) -> tuple[int, bytes]:
    """One GET on a fresh connection (4xx/5xx bodies returned, not raised)."""
    try:
        with urllib.request.urlopen(url, timeout=timeout) as resp:
            return resp.status, resp.read()
    except urllib.error.HTTPError as err:
        return err.code, err.read()


@pytest.fixture(scope="module")
def columnar_data(tmp_path_factory):
    out = tmp_path_factory.mktemp("fleet") / "data"
    repro.generate(
        small=True, countries=("US", "KR"), out=str(out), format="columnar"
    )
    return str(out)


@pytest.fixture(scope="module")
def fleet(columnar_data):
    supervisor = FleetSupervisor(
        ServeSpec(columnar_data, small=True, drain_timeout=5.0),
        port=0, workers=2,
    )
    supervisor.start()
    yield supervisor
    supervisor.stop()


@pytest.fixture(scope="module")
def reference_service(columnar_data):
    """Single-process ground truth over the same dataset."""
    return build_service(ServeSpec(columnar_data, small=True))


class TestByteIdentity:
    def test_fleet_payloads_match_single_process(self, fleet, reference_service):
        # healthz first: it reports pending (not yet materialised)
        # slices, so it must be compared before any rankings request
        # materialises a slice on one worker but not the other.
        cases = [
            ("/v1/healthz",
             lambda s: s.healthz()),
            ("/v1/analyses",
             lambda s: s.analyses()),
            ("/v1/distributions",
             lambda s: s.distribution()),
            ("/v1/rankings?country=US&top=5",
             lambda s: s.rankings("US", top=5)),
            ("/v1/rankings?country=KR&top=3&platform=android",
             lambda s: s.rankings("KR", top=3, platform="android")),
        ]
        for path, render in cases:
            status, body = _get(fleet.url + path)
            assert status == 200, (path, body)
            assert body == render(reference_service), path

    def test_repeated_requests_are_byte_identical(self, fleet):
        path = fleet.url + "/v1/rankings?country=US&top=10"
        bodies = {_get(path)[1] for _ in range(6)}
        assert len(bodies) == 1

    def test_errors_carry_choices(self, fleet):
        status, body = _get(fleet.url + "/v1/rankings?country=XX")
        assert status == 404
        payload = json.loads(body)
        assert set(payload["choices"]) == {"US", "KR"}


@pytest.fixture()
def single_process(columnar_data):
    """A single-process server over the same dataset, on a thread."""
    server = create_server(build_service(ServeSpec(columnar_data, small=True)),
                           port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


#: Paths whose head names an owned payload but whose shape matches no
#: route: every worker count answers them locally as ``unknown``.
MALFORMED = ("/v1/sites", "/v1/rankings/extra", "/v1/analyses/x/y")


class TestMalformedRoutes:
    def _requests(self, url: str) -> dict[str, int]:
        metrics = json.loads(_get(url + "/v1/metrics")[1])
        counts = {name: stats["requests"]
                  for name, stats in metrics["endpoints"].items()}
        counts["requests_total"] = metrics["requests_total"]
        # A 404 never reaches the payload cache, so its misses stay put.
        counts["cache_misses"] = metrics["cache"]["misses"]
        return counts

    def test_same_404_bytes_and_label_on_every_worker_count(
        self, fleet, single_process
    ):
        bodies: dict[str, set[bytes]] = {path: set() for path in MALFORMED}
        for url in (single_process.url, fleet.url):
            before = self._requests(url)
            for path in MALFORMED * 4:
                status, body = _get(url + path)
                assert status == 404, (url, path)
                bodies[path].add(body)
            after = self._requests(url)
            moved = {name: after[name] - before.get(name, 0)
                     for name in after if after[name] != before.get(name, 0)}
            # The metrics requests themselves (a fleet's fan-in adds
            # its peers' internal ones) move only their own label.
            polls = moved.pop("metrics")
            assert moved == {"unknown": 12,
                             "requests_total": 12 + polls}, (url, moved)
        for path, seen in bodies.items():
            assert len(seen) == 1, path
            assert json.loads(seen.pop())["error"] == "not_found"


class TestFleetMetrics:
    def _metrics(self, fleet) -> dict:
        return json.loads(_get(fleet.url + "/v1/metrics")[1])

    def test_merged_shape_and_fleet_block(self, fleet):
        _get(fleet.url + "/v1/rankings?country=US&top=5")
        merged = self._metrics(fleet)
        assert {"endpoints", "counters", "requests_total", "cache"} <= set(merged)
        block = merged["fleet"]
        assert block["size"] == 2
        assert block["worker"] in (0, 1)
        assert block["unreachable"] == []
        assert set(block["workers"]) == {"0", "1"}
        # Per-worker snapshots are the single-process shape, and the
        # merged totals are exactly their sum.
        for snap in block["workers"].values():
            assert "requests_total" in snap and "cache" in snap
        assert merged["requests_total"] == sum(
            snap["requests_total"] for snap in block["workers"].values()
        )

    def test_unique_payload_renders_at_most_once_per_worker(self, fleet):
        """10 hits on one fresh key cost <= 2 fleet-wide cache misses
        (one render per worker that accepts it), the rest are hits."""
        before = self._metrics(fleet)["cache"]
        path = fleet.url + "/v1/rankings?country=KR&top=7"
        bodies = {_get(path)[1] for _ in range(10)}
        assert len(bodies) == 1
        after = self._metrics(fleet)["cache"]
        misses = after["misses"] - before["misses"]
        hits = after["hits"] - before["hits"]
        assert 1 <= misses <= 2, (before, after)
        assert hits >= 10 - misses

    def test_every_request_renders_where_it_lands(self, fleet):
        """16 fresh keys are 16 requests and 16 renders fleet-wide: no
        worker forwards a request to another, so none is counted twice."""
        before = self._metrics(fleet)
        for top in range(11, 27):
            _get(fleet.url + f"/v1/rankings?country=US&top={top}")
        after = self._metrics(fleet)
        requests = (after["endpoints"]["rankings"]["requests"]
                    - before["endpoints"]["rankings"]["requests"])
        assert requests == 16
        assert "fleet_proxied" not in after["counters"]
        assert after["cache"]["misses"] - before["cache"]["misses"] == 16


@pytest.mark.skipif(sys.platform != "linux", reason="/proc maps inspection")
class TestPageSharing:
    def test_workers_mmap_the_same_columnar_file(self, fleet):
        """Every worker's address space maps lists.bin — the dataset is
        shared page cache, not N private copies."""
        pids = fleet.worker_pids()
        assert len(pids) == 2
        for pid in pids:
            maps = open(f"/proc/{pid}/maps").read()
            assert "lists.bin" in maps, f"worker {pid} did not mmap the dataset"


class TestLifecycle:
    def test_crashed_worker_restarts_and_serving_survives(self, columnar_data):
        with FleetSupervisor(
            ServeSpec(columnar_data, small=True, drain_timeout=5.0),
            port=0, workers=2, restart_backoff=0.05,
        ) as fleet:
            reference = _get(fleet.url + "/v1/rankings?country=US&top=4")[1]
            victim = fleet.worker_pids()[0]
            os.kill(victim, signal.SIGKILL)
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                pids = fleet.worker_pids()
                if len(pids) == 2 and victim not in pids:
                    break
                time.sleep(0.05)
            assert len(fleet.worker_pids()) == 2
            assert fleet.restarts.value >= 1
            status, body = _get(fleet.url + "/v1/rankings?country=US&top=4")
            assert status == 200 and body == reference
            merged = json.loads(_get(fleet.url + "/v1/metrics")[1])
            assert merged["fleet"]["restarts_total"] >= 1

    def test_graceful_stop_drains_and_port_rebinds(self, columnar_data):
        fleet = FleetSupervisor(
            ServeSpec(columnar_data, small=True, drain_timeout=5.0),
            port=0, workers=2,
        ).start()
        port = int(fleet.url.rsplit(":", 1)[1])
        assert _get(fleet.url + "/v1/healthz")[0] == 200
        started = time.monotonic()
        fleet.stop()
        assert time.monotonic() - started < fleet.spec.drain_timeout + 5
        # SIGTERM drain, not SIGKILL: every worker exited cleanly.
        assert [proc.exitcode for proc in fleet._procs] == [0, 0]
        fleet.stop()  # idempotent

        rebound = FleetSupervisor(
            ServeSpec(columnar_data, small=True, drain_timeout=5.0),
            port=port, workers=2,
        ).start()
        try:
            assert _get(rebound.url + "/v1/healthz")[0] == 200
        finally:
            rebound.stop()

    def test_stop_during_startup_exits_cleanly(self, columnar_data):
        # A stop that lands while workers are still forking or loading
        # the dataset must end them with 0, never -SIGTERM.
        for _ in range(20):
            fleet = FleetSupervisor(
                ServeSpec(columnar_data, small=True, drain_timeout=5.0),
                port=0, workers=2,
            ).start()
            fleet.stop()
            assert [proc.exitcode for proc in fleet._procs] == [0, 0]

    def test_stop_where_exceptions_are_swallowed_still_exits(
        self, columnar_data, monkeypatch, tmp_path
    ):
        """A stop that lands in code which swallows exceptions (a
        finalizer here; C code that clears errors is another) must
        still end the worker with 0: the stop may not travel as an
        exception raised from the signal handler."""
        building = tmp_path / "building"
        build = worker_module.build_service

        class Finalizer:
            def __del__(self):
                building.touch()
                time.sleep(1.0)  # the SIGTERM lands here

        def build_after_finalizer(spec):
            Finalizer()
            return build(spec)

        # The forked worker inherits the patched module global.
        monkeypatch.setattr(worker_module, "build_service",
                            build_after_finalizer)
        fleet = FleetSupervisor(
            ServeSpec(columnar_data, small=True, drain_timeout=1.0),
            port=0, workers=1,
        ).start()
        try:
            deadline = time.monotonic() + 30
            while not building.exists():
                assert time.monotonic() < deadline, "worker never started"
                time.sleep(0.01)
        finally:
            fleet.stop()
        assert [proc.exitcode for proc in fleet._procs] == [0]

    def test_workers_must_be_positive(self, columnar_data):
        with pytest.raises(ValueError, match="workers"):
            FleetSupervisor(ServeSpec(columnar_data), workers=0)

    def test_serve_facade_rejects_trace_with_fleet(self, columnar_data):
        with pytest.raises(ValueError, match="trace"):
            repro.serve(columnar_data, workers=2, trace="t.jsonl")
