"""End-to-end check of `repro ingest` under a live server, as subprocesses.

Five base months are generated and reported cold (warming an artifact
store); a single-process server is started over version 1 and kept up
while a sixth month is ingested in place.  Then:

- the ingest's ``--trace`` holds one ``synth.universe_load`` span and
  no ``synth.universe_build`` span;
- the delta report on the warm store executes a strict subset of the
  cold report's tasks, and every version-1 site keeps its label;
- the ``as_of=1`` rankings bytes do not move across the ingest, and a
  2-worker fleet started over version 2 serves the same bytes;
- ``healthz`` reports version 1, then 2, and the default month follows
  the latest; an unknown version is a 404 listing its ``choices``;
- the fleet's ``/v1/metrics`` reports its workers converged on version 2.
"""

from __future__ import annotations

import json
import re
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from .test_report_trace import named
from .test_serve_cli import Served, get, get_json, pytestmark, repro  # noqa: F401

BASE_MONTHS = ("2021-07", "2021-08", "2021-09", "2021-10", "2021-11")
NEW_MONTH = "2021-12"
AS_OF_1 = "/v1/rankings?country=KR&month=2021-11&as_of=1"


def report(root: Path, out: str) -> tuple[int, set[str]]:
    """A report pinned to 2021-11 on the shared store: the executed
    count it prints and the tasks its run.json marks as executed."""
    result = repro("report", "--data", "data", "--out", out, "--small",
                   "--month", "2021-11", "--store", "store", cwd=root)
    printed = re.search(r"^executed (\d+),", result.stdout, re.MULTILINE)
    assert printed, result.stdout
    tasks = json.loads((root / out / "run.json").read_text())["tasks"]
    executed = {name for name, rec in tasks.items() if rec["status"] == "ok"}
    assert int(printed.group(1)) == len(executed)
    return len(executed), executed


def labels(root: Path, run: str) -> dict:
    path = root / run / "artifacts" / "labels.json"
    return json.loads(path.read_text())["result"]


def not_found(url: str) -> dict:
    with pytest.raises(urllib.error.HTTPError) as caught:
        urllib.request.urlopen(url, timeout=30)
    assert caught.value.code == 404, url
    return json.loads(caught.value.read())


@pytest.fixture(scope="module")
def ingested(tmp_path_factory) -> dict[str, object]:
    """Cold report, serve v1, ingest, delta report; the server's
    observations before and after, and its exit code."""
    root = tmp_path_factory.mktemp("ingest-cli")
    repro("generate", "--small", "--out", "data", "--countries", "US", "KR",
          "--months", *BASE_MONTHS, "--format", "columnar", cwd=root)
    cold = report(root, "run-cold")
    server = Served(root / "data", "--host", "0.0.0.0")
    try:
        seen = {
            "lines": list(server.lines),
            "before": get(server.url + AS_OF_1),
            "health_before": get_json(server.url + "/v1/healthz"),
        }
        seen["ingest"] = repro("ingest", "--data", "data", "--months",
                               NEW_MONTH, "--small", "--trace",
                               "ingest-trace.jsonl", cwd=root).stdout
        seen["delta"] = report(root, "run-delta")
        seen["after"] = get(server.url + AS_OF_1)
        seen["health_after"] = get_json(server.url + "/v1/healthz")
        seen["latest"] = get_json(server.url + "/v1/rankings?country=KR")
        seen["unknown"] = not_found(server.url + "/v1/rankings?country=KR&as_of=9")
    finally:
        code = server.stop()
    assert code == 0, server.output
    return {"root": root, "cold": cold, **seen}


def test_server_starts_on_version_1(ingested):
    assert any(line.startswith("dataset version 1")
               for line in ingested["lines"]), ingested["lines"]
    assert ingested["health_before"]["dataset_version"] == 1


def test_ingest_bumps_the_version(ingested):
    assert "dataset version 1 -> 2" in ingested["ingest"], ingested["ingest"]


def test_ingest_trace_restores_the_universe(ingested):
    # The generate wrote universe.bin: the ingest restores it and
    # builds nothing.
    assert "wrote trace ingest-trace.jsonl" in ingested["ingest"]
    trace = ingested["root"] / "ingest-trace.jsonl"
    assert len(named(trace, "synth.universe_build")) == 0
    [load] = named(trace, "synth.universe_load")
    assert load["attrs"]["bytes"] == (
        ingested["root"] / "data" / "universe.bin").stat().st_size
    assert load["attrs"]["sites"] > 0


def test_delta_report_executes_a_strict_subset(ingested):
    cold_count, cold = ingested["cold"]
    delta_count, delta = ingested["delta"]
    assert 0 < delta_count < cold_count
    assert delta < cold


def test_labels_are_stable_across_the_ingest(ingested):
    cold = labels(ingested["root"], "run-cold")
    delta = labels(ingested["root"], "run-delta")
    assert cold.keys() <= delta.keys(), "a version-1 site lost its label"
    assert all(json.dumps(cold[s]) == json.dumps(delta[s]) for s in cold)


def test_as_of_1_bytes_do_not_move(ingested):
    assert ingested["after"] == ingested["before"]


def test_latest_version_is_the_default(ingested):
    health = ingested["health_after"]
    assert health["dataset_version"] == 2, health
    assert health["months"][-1] == NEW_MONTH, health
    assert ingested["latest"]["month"] == NEW_MONTH, ingested["latest"]


def test_unknown_version_lists_its_choices(ingested):
    assert ingested["unknown"]["choices"] == ["1", "2"], ingested["unknown"]


def test_fleet_serves_as_of_1_converged(ingested):
    fleet = Served(ingested["root"] / "data", "--workers", "2")
    try:
        assert any(line.startswith("dataset version 2")
                   for line in fleet.lines), fleet.lines
        fleet.wait_ready(2)
        assert get(fleet.url + AS_OF_1) == ingested["before"]
        block = get_json(fleet.url + "/v1/metrics")["dataset"]
        assert block["version"] == 2 and block["converged"] is True, block
    finally:
        code = fleet.stop()
    assert code == 0, fleet.output
