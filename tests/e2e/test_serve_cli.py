"""End-to-end checks of `repro serve`, driven as a subprocess.

Every test starts the real CLI (`python -m repro serve`) over one
2-country dataset, reads the startup lines, talks HTTP to the URL it
prints and stops it with SIGTERM, the way an operator or a process
manager does.  Single-process and 2-worker servers run the same checks:
health, the KR head, the traced run's JSONL file, byte identity between
worker counts, and the drain on SIGTERM.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.request
from pathlib import Path

import pytest

pytestmark = pytest.mark.skipif(
    not hasattr(os, "fork"), reason="serving tests need fork() and signals"
)

SRC = Path(__file__).resolve().parents[2] / "src"
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))}
#: The default `ServeSpec.drain_timeout`; the CLI has no flag for it.
DRAIN_TIMEOUT = 10.0


def repro(*args: str, cwd: Path | None = None) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "repro", *args], env=ENV, cwd=cwd,
        capture_output=True, text=True, timeout=300, check=True,
    )


def get(url: str) -> bytes:
    with urllib.request.urlopen(url, timeout=30) as resp:
        assert resp.status == 200, url
        return resp.read()


def get_json(url: str) -> dict:
    return json.loads(get(url))


class Served:
    """One `repro serve` process: its startup lines, URL and exit code."""

    def __init__(self, data: Path, *args: str) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--data", str(data),
             "--port", "0", "--small", *args],
            env=ENV, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True,
        )
        self.lines: list[str] = []
        for line in self.proc.stdout:
            self.lines.append(line.rstrip("\n"))
            if line.startswith("endpoints: "):
                break
        else:
            raise RuntimeError(f"serve exited early: {self.lines}")
        assert self.lines[0].startswith(f"serving {data} on http://")
        self.url = self.lines[0].rsplit(" ", 1)[1]
        self.output = ""
        self.rc: int | None = None
        self.signalled = False

    def wait_ready(self, workers: int) -> None:
        """Until every worker answers (a fleet's start returns first)."""
        deadline = time.monotonic() + 60
        while True:
            try:
                metrics = get_json(self.url + "/v1/metrics")
                fleet = metrics.get("fleet", {"workers": {"0": {}}})
                if len(fleet["workers"]) == workers \
                        and not fleet.get("unreachable"):
                    return
            except OSError:
                pass
            assert time.monotonic() < deadline, "server never became ready"
            time.sleep(0.05)

    def terminate(self) -> None:
        self.proc.send_signal(signal.SIGTERM)
        self.signalled = True

    def stop(self, timeout: float = DRAIN_TIMEOUT + 5) -> int:
        """SIGTERM (once) and wait; the exit code."""
        if self.rc is None:
            if not self.signalled:
                self.terminate()
            try:
                rest, _ = self.proc.communicate(timeout=timeout)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                rest, _ = self.proc.communicate()
                raise
            self.output = rest
            self.rc = self.proc.returncode
        return self.rc


@pytest.fixture(scope="module")
def datasets(tmp_path_factory) -> dict[str, Path]:
    """The 2-country `--small` dataset, text and columnar."""
    root = tmp_path_factory.mktemp("serve-cli")
    repro("generate", "--small", "--out", "ds", "--countries", "US", "KR",
          cwd=root)
    repro("convert", "ds", "ds-col", cwd=root)
    return {"text": root / "ds", "columnar": root / "ds-col"}


@pytest.fixture(scope="module")
def servers(datasets):
    """A single process and a 2-worker fleet over the columnar dataset."""
    single = Served(datasets["columnar"], "--host", "0.0.0.0")
    fleet = Served(datasets["columnar"], "--workers", "2")
    try:
        single.wait_ready(1)
        fleet.wait_ready(2)
        yield {1: single, 2: fleet}
    finally:
        codes = (single.stop(), fleet.stop())
    assert codes == (0, 0), (single.output, fleet.output)


@pytest.mark.parametrize("workers", [1, 2])
class TestSmoke:
    def test_healthz_reports_the_mapped_dataset(self, servers, workers):
        payload = get_json(servers[workers].url + "/v1/healthz")
        assert payload["status"] == "ok", payload
        assert payload["storage"] == "columnar-mmap", payload

    def test_kr_head(self, servers, workers):
        url = servers[workers].url + "/v1/rankings?country=KR&top=3"
        payload = get_json(url)
        assert payload["country"] == "KR" and len(payload["sites"]) == 3

    def test_requests_are_counted(self, servers, workers):
        base = servers[workers].url
        get(base + "/v1/healthz")
        get(base + "/v1/rankings?country=KR&top=3")
        assert get_json(base + "/v1/metrics")["requests_total"] >= 2


def test_fleet_serves_the_single_process_bytes(servers):
    single, fleet = servers[1], servers[2]
    assert any(line.startswith("fleet: 2 workers (pids ")
               for line in fleet.lines), fleet.lines
    path = "/v1/rankings?country=KR&top=3"
    assert get(fleet.url + path) == get(single.url + path)
    block = get_json(fleet.url + "/v1/metrics")["fleet"]
    assert block["size"] == 2, block
    assert set(block["workers"]) == {"0", "1"}, block


def test_traced_serve_writes_its_spans(datasets, tmp_path):
    trace = tmp_path / "serve-trace.jsonl"
    server = Served(datasets["text"], "--host", "0.0.0.0",
                    "--trace", str(trace))
    try:
        # The wildcard bind is announced as a connectable loopback URL.
        assert server.url.startswith("http://127.0.0.1:")
        assert get_json(server.url + "/v1/healthz")["status"] == "ok"
        payload = get_json(server.url + "/v1/rankings?country=KR&top=3")
        assert payload["country"] == "KR" and len(payload["sites"]) == 3
        metrics = get_json(server.url + "/v1/metrics")
        assert metrics["trace"]["enabled"] is True, metrics["trace"]
        assert metrics["requests_total"] >= 2, metrics
    finally:
        assert server.stop() == 0, server.output
    spans = [json.loads(line) for line in trace.read_text().splitlines()
             if line.strip()]
    assert spans, "serve trace is empty"
    assert any(span["name"] == "http.request" for span in spans), spans
    for span in spans:
        assert {"trace", "span", "name", "ts", "duration_ms",
                "status"} <= set(span), span
    summary = repro("trace", "summarize", str(trace), "--top", "5")
    assert "http.request" in summary.stdout


@pytest.mark.parametrize("workers", [1, 2])
def test_sigterm_drains_in_flight_and_skips_idle(datasets, workers):
    """SIGTERM while a cold analysis renders: its response arrives
    whole, a repeated SIGTERM and an idle connection do not cut the
    drain short or hold it, and the server exits 0."""
    server = Served(datasets["columnar"], "--no-store",
                    "--workers", str(workers))
    try:
        server.wait_ready(workers)
        host, port = server.url[len("http://"):].rsplit(":", 1)
        idle = socket.create_connection((host, int(port)))
        outcome: dict[str, object] = {}

        def cold_request() -> None:
            conn = http.client.HTTPConnection(host, int(port), timeout=30)
            try:
                conn.request("GET", "/v1/analyses/platforms")
                resp = conn.getresponse()
                outcome["status"], outcome["body"] = resp.status, resp.read()
            except (OSError, http.client.HTTPException) as exc:
                outcome["error"] = exc
            finally:
                conn.close()

        busy = threading.Thread(target=cold_request)
        busy.start()
        # The payload cache counts a miss as the render starts (the
        # slowest cold task at this scale: ~0.2 s); signal right then.
        while get_json(server.url + "/v1/metrics")["cache"]["misses"] == 0:
            assert busy.is_alive(), outcome
        server.terminate()
        signalled = time.monotonic()
        time.sleep(0.05)
        server.terminate()
        busy.join(timeout=30)
        assert not busy.is_alive()
        assert "error" not in outcome, outcome
        assert outcome["status"] == 200
        assert json.loads(outcome["body"])["task"] == "platforms"
        assert server.stop() == 0, server.output
        assert time.monotonic() - signalled < DRAIN_TIMEOUT + 5
        idle.close()
    finally:
        server.stop()
