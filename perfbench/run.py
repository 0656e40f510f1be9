#!/usr/bin/env python3
"""The end-to-end benchmark of the repro user path, attributed by layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload batch --seed 1 --seconds 8 --trace 0

Workloads (see ``perfbench/README.md`` for why each was chosen):

``batch``       generate + save a 5-month columnar dataset (twice, for
                the set-up median), cold ``report``, ``ingest`` one
                month, delta ``report``, then a single-process ``serve``
                reading the refreshed results back under a
                cache-resident Zipf mix;
``serve_scan``  the same stages (one set-up), then ``serve --workers 2``
                over the two-version dataset under a mix uniform within
                each endpoint over far more keys than the cache holds.

Every time is the CPU time of program processes, which all run on one
vCPU, scaled to a reference speed of that vCPU (``host.py``).

Every stage is a fresh ``python -m repro`` process.  ``--trace 0``
measures the end-to-end metrics; ``--trace 1`` repeats the workload with
every process started through ``launch.py`` (the program's tracer on,
layer entry points wrapped in spans) and prints the per-layer metrics.
Diagnostic JSON lines come first; the last line of standard output is
the result: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from host import REFERENCE_MS, HostMeter, scaled
from layers import read_launches, span_layers
from mix import readback_mix, scan_mix
from procs import (CLIENT_CPU, PROGRAM_CPU, PYTHON, ROOT, SRC, Ledger,
                   Processes, program_env)
from traffic import Traffic, replay, summarise

STUDY_MONTHS = ("2021-09", "2021-10", "2021-11", "2021-12", "2022-01")
NEW_MONTH = "2022-02"
#: Every report pins this study month, so the delta report after an
#: ingest re-executes only the tasks whose inputs the new month changes.
REF_MONTH = "2022-01"
#: ``--tiny`` (the self-test) generates only these countries.
TINY_COUNTRIES = ("US", "KR", "BR", "DE", "IN", "JP", "NG", "FR")
FLEET_WORKERS = 2
#: Seconds of requests per round; a traced run alternates the rounds
#: of a traced server and its untraced twin.
ROUND_S = 1.0
#: ``batch`` sets up this many times (untraced runs) and reports the
#: median set-up time; every copy must be byte-identical.  Two keeps a
#: run on a slow host inside the hour an evaluation's runs must fit.
SETUP_REPEATS = 2

END_TO_END = {
    "setup_s": "s", "report_cpu_s": "s", "refresh_cpu_s": "s",
    "server_cpu_ms": "ms", "peak_rss_mb": "MB",
}
PER_LAYER = {
    "cli.import_s": "s",
    "synth.universe_build_s": "s", "synth.universe_builds": "count",
    "engine.generate_s": "s", "engine.slices_generated": "count",
    "store.save_s": "s", "store.dataset_mb": "MB", "store.load_s": "s",
    "store.ingest_s": "s", "store.ingest_mb": "MB",
    "store.slices_materialised": "count",
    "pipeline.executed.cold": "count", "pipeline.executed.delta": "count",
    "pipeline.cached.delta": "count", "pipeline.artifact_hits": "count",
    "pipeline.artifact_misses": "count",
    **{f"pipeline.task.{t}_s": "s" for t in (
        "has_app", "endemicity", "temporal", "platforms", "composition",
        "sampling", "overlap", "prevalence", "labels")},
    **{f"pipeline.residual.{s}_s": "s" for s in (
        "generate", "report", "ingest", "delta_report")},
    "stats.fisher_batch_s": "s", "kernel.pairwise_wrbo_s": "s",
    "kernel.bucket_intersections_s": "s", "kernel.rank_matrix_s": "s",
    "service.rankings_p50_ms": "ms", "service.site_p50_ms": "ms",
    "service.distribution_p50_ms": "ms", "service.analysis_p50_ms": "ms",
    "service.cache_hit_ratio": "ratio", "service.cache_evictions": "count",
    "service.response_kb": "KB", "service.dataset_reloads": "count",
    "http.p50_ms": "ms", "http.overhead_p50_ms": "ms", "http.p99_ms": "ms",
    "http.throughput_rps": "req/s",
    "fleet.relay_share": "ratio", "fleet.proxy_fallbacks": "count",
    "fleet.worker_share_max": "ratio", "fleet.worker_exit_nonzero": "count",
    "obs.overhead_pct.p50_ms": "%", "obs.overhead_pct.p99_ms": "%",
    "obs.overhead_pct.throughput_rps": "%",
    "host.cpu_probe_ms": "ms", "host.loadavg": "load",
    "spread.p50_ms": "ratio", "spread.p99_ms": "ratio",
    "spread.throughput_rps": "ratio",
}


def dir_mb(root: Path, skip: str = ".artifacts") -> float:
    return sum(p.stat().st_size for p in root.rglob("*")
               if p.is_file() and skip not in p.parts) / 1e6


def tree_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(str(path.relative_to(root)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


class Workload:
    """One run of one workload: its stages, servers, checks and numbers."""

    def __init__(self, args: argparse.Namespace, work: Path) -> None:
        self.args = args
        self.work = work
        self.traced = bool(args.trace)
        self.ledger = Ledger()
        self.procs = Processes(work, self.ledger, traced=self.traced)
        self.ds = work / "ds"
        self.e2e: dict[str, float] = {}
        self.layers: dict[str, float] = dict.fromkeys(PER_LAYER, 0)
        self.diag: dict[str, object] = {
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "connections": 1, "stages_s": {}, "stages_cpu_s": {},
            "stages_wall_s": {}, "stages_probe_ms": {},
        }
        self.cpus = os.sched_getaffinity(0)
        #: Mean probe times (ms) of every measured window, in order.
        self.probes: list[float] = []

    def check(self, ok: bool, what: str) -> bool:
        return self.ledger.record("check", ok, what)

    # -- stages -------------------------------------------------------------------

    def _stage(self, name: str, args: list[str]):
        result = self.procs.stage(name, args)
        self.diag["stages_s"][name] = result.seconds
        self.diag["stages_cpu_s"][name] = result.cpu_seconds
        self.diag["stages_wall_s"][name] = result.wall_seconds
        self.diag["stages_probe_ms"][name] = result.probe_ms
        self.probes.append(result.probe_ms)
        return result

    def generate(self, out: Path, name: str = "generate") -> float:
        args = ["generate", "--small", "--seed", str(self.args.seed),
                "--format", "columnar", "--out", str(out),
                "--months", *STUDY_MONTHS]
        countries = 45
        if self.args.tiny:
            args += ["--countries", *TINY_COUNTRIES]
            countries = len(TINY_COUNTRIES)
        result = self._stage(name, args)
        lists = countries * 2 * 2 * len(STUDY_MONTHS)
        self.check(f"wrote {lists} rank lists" in result.stdout,
                   f"{name} did not write {lists} rank lists")
        self.layers["store.dataset_mb"] = dir_mb(out)
        return result.seconds

    def setup_batch(self) -> float:
        """Generate the dataset, repeatedly; the median set-up time.

        The traced run generates once: it reports no set-up time.
        """
        seconds = [self.generate(self.ds)]
        digest = tree_digest(self.ds)
        for copy in range(2, 1 + (1 if self.traced else SETUP_REPEATS)):
            out = self.work / f"ds-{copy}"
            seconds.append(self.generate(out, f"generate_{copy}"))
            self.check(tree_digest(out) == digest,
                       f"generate run {copy} wrote a different dataset")
            shutil.rmtree(out)
        self.diag["setup_s_each"] = seconds
        return statistics.median(seconds)

    def report(self, name: str) -> tuple[float, dict[str, int]]:
        out = self.work / f"run-{name}"
        result = self._stage(name, [
            "report", "--data", str(self.ds), "--out", str(out),
            "--small", "--month", REF_MONTH])
        found = re.search(r"executed (\d+), cached (\d+), failed (\d+), "
                          r"skipped (\d+)", result.stdout)
        counts = dict(zip(("executed", "cached", "failed", "skipped"),
                          map(int, found.groups()))) if found else {}
        self.check(bool(found), f"{name}: no task summary")
        store = re.search(r"(\d+) hits, (\d+) misses", result.stdout)
        if store:
            self.layers["pipeline.artifact_hits"] += int(store.group(1))
            self.layers["pipeline.artifact_misses"] += int(store.group(2))
        if (out / "artifacts").is_dir():
            self.check_digest("cold" if name != "delta_report" else "delta",
                              tree_digest(out / "artifacts"))
        return result.seconds, counts

    def cold_report(self) -> float:
        """The cold report every workload runs: all tasks must execute."""
        seconds, cold = self.report("report")
        total = sum(cold.values())
        self.check(total > 0 and cold.get("executed") == total,
                   f"cold report did not execute every task: {cold}")
        self.layers["pipeline.executed.cold"] = cold.get("executed", 0)
        return seconds

    def check_digest(self, kind: str, digest: str) -> None:
        """Report artifacts must be identical in every run of one seed."""
        state = ROOT / ".perfbench_state" / "digests.json"
        key = f"{self.args.seed}:{'tiny' if self.args.tiny else 'small'}:{kind}"
        known = json.loads(state.read_text()) if state.is_file() else {}
        if key in known:
            self.check(known[key] == digest,
                       f"{kind} report artifacts differ from an earlier run "
                       f"with seed {self.args.seed}")
            return
        known[key] = digest
        state.parent.mkdir(exist_ok=True)
        tmp = state.with_suffix(".tmp")
        tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
        os.replace(tmp, state)

    def ingest(self) -> float:
        before = dir_mb(self.ds)
        result = self._stage("ingest", [
            "ingest", "--data", str(self.ds), "--months", NEW_MONTH,
            "--small"])
        self.check("dataset version 1 -> 2" in result.stdout,
                   "ingest did not bump the dataset to version 2")
        self.layers["store.ingest_mb"] = dir_mb(self.ds) - before
        return result.seconds

    def reference(self, month: str | None = None):
        """An in-process QueryService over the dataset, as served."""
        if str(SRC) not in sys.path:
            sys.path.insert(0, str(SRC))
        import repro

        server = repro.serve(str(self.ds), port=0, small=True, block=False,
                             month=month)
        server.server_close()
        return server.service

    # -- serving ------------------------------------------------------------------

    def serve(self, mix, service, serve_args: list[str], *,
              workers: int = 1) -> float:
        """Spawn, warm, measure, verify and stop; returns the server's
        CPU seconds from spawn to warm, at the reference speed.

        The timed phase runs in rounds of about :data:`ROUND_S`; the
        server's CPU time over the phase is scaled by the probes taken
        on its vCPU meanwhile (see :meth:`timed_phase`).
        Traced runs of a single-process server also run an untraced twin
        and alternate the rounds between the two, so the tracing
        overhead is measured under the same host state.
        """
        traffic = Traffic(mix, self.ledger, self.args.corrupt_response)
        # Everything built so far (the reference dataset above all) is
        # left out of every later collection.
        gc.collect()
        gc.freeze()
        args = ["serve", "--data", str(self.ds), "--port", "0", "--small",
                *serve_args]
        fleet = workers > 1
        servers = []
        main = None
        os.sched_setaffinity(0, {CLIENT_CPU})
        try:
            with HostMeter(PROGRAM_CPU) as meter:
                main = self.procs.server(
                    "serve",
                    args + (["--workers", str(workers)] if fleet else []),
                    mode="plain" if fleet else "trace")
                servers.append(main)
                if fleet:
                    main.wait_for_workers(workers)
                spawned = main.get_json("/v1/metrics")
                traffic.warm(main)
                warm_cpu = main.cpu_seconds()
                warm_end = time.perf_counter()
            probe_ms = meter.mean_ms(main.start, warm_end)
            self.probes.append(probe_ms)
            spawn_to_warm = scaled(warm_cpu, probe_ms)
            self.diag["stages_s"]["spawn_to_warm"] = spawn_to_warm
            self.diag["stages_cpu_s"]["spawn_to_warm"] = warm_cpu
            self.diag["stages_wall_s"]["spawn_to_warm"] = (
                warm_end - main.start)
            self.diag["stages_probe_ms"]["spawn_to_warm"] = probe_ms
            twin = None
            if self.traced and not fleet:
                twin = self.procs.server("serve_untraced", args, mode=None)
                servers.append(twin)
                traffic.warm(twin)
            before = main.get_json("/v1/metrics")
            streams = [main] if twin is None else [main, twin]
            cpu = main.cpu_seconds()
            phase, probe_ms = self.timed_phase(traffic, mix.order(),
                                               streams)
            cpu = main.cpu_seconds() - cpu
            timed = phase[main.name]
            untraced = phase[streams[-1].name]
            after = main.get_json("/v1/metrics")
            requests = sum(len(segment.index) for segment in timed)
            self.diag["server_cpu_s"] = cpu
            self.e2e["server_cpu_ms"] = (
                1000.0 * scaled(cpu, probe_ms) / max(requests, 1))
            self.served_layers(before, after, timed)
            self.layers["store.slices_materialised"] = (
                spawned["dataset"]["pending_slices"]
                - after["dataset"]["pending_slices"])
            summary = summarise(untraced)
            self.layers["http.p50_ms"] = summary["p50_ms"]
            self.layers["http.p99_ms"] = summary["p99_ms"]
            self.layers["http.throughput_rps"] = summary["throughput_rps"]
            self.diag["timed"] = {k: summary[k] for k in (
                "samples", "chunks", "beyond_p99", "response_kb")}
            self.diag["zipf_s"] = mix.zipf_s
            self.diag["spread"] = {k: v for k, v in summary.items()
                                   if k.startswith("spread.")}
            self.layers.update(self.diag["spread"])
            self.layers["service.response_kb"] = summary["response_kb"]
            if self.traced:
                self.traced_serving(mix, service, summary, timed,
                                    twin is not None)
            traffic.verify(service)
        finally:
            for server in servers:
                rc = server.stop()
                self.diag.setdefault("server_exit_codes", {})[server.name] = rc
            os.sched_setaffinity(0, self.cpus)
        if main is not None and main.launch is not None \
                and main.launch.is_file():
            codes = json.loads(main.launch.read_text()).get(
                "worker_exit_codes", [])
            self.diag["fleet_worker_exit_codes"] = codes
            self.layers["fleet.worker_exit_nonzero"] = sum(
                1 for code in codes if code != 0)
        return spawn_to_warm

    def timed_phase(self, traffic: Traffic, order, streams: list
                    ) -> tuple[dict[str, list], float]:
        """``--seconds`` of rounds over ``streams`` in turn; each
        server's rounds, and the mean probe time on the program's vCPU
        meanwhile.

        The untraced run probes the program's vCPU all through the
        phase, as during a stage, so the probe takes a slice of the
        server's vCPU now and then and delays a request.  The traced
        run, which reports the client latencies, does not probe; its
        probe time is the reference.
        """
        seconds = float(self.args.seconds)
        rounds = max(1, round(seconds / ROUND_S / len(streams)))
        each = seconds / rounds / len(streams)
        segments: dict[str, list] = {server.name: [] for server in streams}
        meter = None if self.traced else HostMeter(PROGRAM_CPU)
        start = time.perf_counter()
        with meter or contextlib.nullcontext():
            for _ in range(rounds):
                for server in streams:
                    segments[server.name].append(
                        traffic.run(server, order, seconds=each))
        if meter is None:
            return segments, REFERENCE_MS
        probe_ms = meter.mean_ms(start, time.perf_counter())
        self.diag["serving_probe_ms"] = probe_ms
        self.probes.append(probe_ms)
        return segments, probe_ms

    def traced_serving(self, mix, service, untraced: dict, timed,
                       twin: bool) -> None:
        """Tracing overhead, and the in-process replay of the requests."""
        if twin:
            traced = summarise(timed)
            for name in ("p50_ms", "p99_ms"):
                self.layers[f"obs.overhead_pct.{name}"] = 100.0 * (
                    traced[name] / untraced[name] - 1.0)
            self.layers["obs.overhead_pct.throughput_rps"] = 100.0 * (
                1.0 - traced["throughput_rps"] / untraced["throughput_rps"])
        indices = list(mix.warmup) + [i for s in timed for i in s.index]
        by_endpoint = replay(service, mix, indices)
        for endpoint, values in by_endpoint.items():
            self.layers[f"service.{endpoint}_p50_ms"] = statistics.median(
                values)
        overall = [ms for values in by_endpoint.values() for ms in values]
        self.layers["http.overhead_p50_ms"] = (
            untraced["p50_ms"] - statistics.median(overall))

    def served_layers(self, before: dict, after: dict, timed) -> None:
        """Cache, fleet and store counters over the timed phase."""
        def delta(path: tuple[str, ...]) -> float:
            a, b = after, before
            for key in path:
                a, b = a.get(key, {}), b.get(key, {})
            return (a or 0) - (b or 0)

        hits = delta(("cache", "hits"))
        misses = delta(("cache", "misses"))
        self.layers["service.cache_hit_ratio"] = (
            hits / (hits + misses) if hits + misses else 0.0)
        self.layers["service.cache_evictions"] = delta(("cache", "evictions"))
        self.layers["service.dataset_reloads"] = after.get(
            "counters", {}).get("dataset_reloads", 0)
        requests = sum(len(s.index) for s in timed)
        fleet = after.get("fleet")
        if fleet is not None and requests:
            self.layers["fleet.relay_share"] = (
                delta(("counters", "fleet_proxied")) / requests)
            self.layers["fleet.proxy_fallbacks"] = delta(
                ("counters", "fleet_proxy_fallback"))
            shares = [
                worker.get("requests_total", 0) - before.get("fleet", {}).get(
                    "workers", {}).get(index, {}).get("requests_total", 0)
                for index, worker in fleet.get("workers", {}).items()]
            if sum(shares):
                self.layers["fleet.worker_share_max"] = (
                    max(shares) / sum(shares))

    # -- workloads ----------------------------------------------------------------

    def refresh(self) -> float:
        """Ingest one month, then the delta report: a strict subset."""
        total = self.layers["pipeline.executed.cold"]
        ingest_s = self.ingest()
        delta_s, delta = self.report("delta_report")
        executed = delta.get("executed", -1)
        self.check(0 < executed < total and delta.get("failed") == 0
                   and executed + delta.get("cached", 0) == total,
                   f"delta report is not a strict subset: {delta}")
        self.layers["pipeline.executed.delta"] = delta.get("executed", 0)
        self.layers["pipeline.cached.delta"] = delta.get("cached", 0)
        return ingest_s + delta_s

    def batch(self) -> None:
        setup = self.setup_batch()
        report_s = self.cold_report()
        self.e2e.update(setup_s=setup, report_cpu_s=report_s,
                        refresh_cpu_s=self.refresh())
        service = self.reference(month=REF_MONTH)
        self.serve(readback_mix(service, self.args.seed), service,
                   ["--month", REF_MONTH])

    def serve_scan(self) -> None:
        setup = self.generate(self.ds)
        report_s = self.cold_report()
        refresh_s = self.refresh()
        service = self.reference()
        warm = self.serve(
            scan_mix(service, REF_MONTH, self.args.seed), service,
            [], workers=FLEET_WORKERS)
        self.e2e.update(setup_s=setup + report_s + refresh_s + warm,
                        report_cpu_s=report_s, refresh_cpu_s=refresh_s)

    # -- results ------------------------------------------------------------------

    def run(self) -> dict[str, object]:
        start = time.perf_counter()
        getattr(self, self.args.workload)()
        self.diag["run_wall_s"] = time.perf_counter() - start
        self.e2e["peak_rss_mb"] = self.procs.peak_rss_kb / 1024.0
        self.layers["host.cpu_probe_ms"] = statistics.fmean(self.probes)
        self.layers["host.loadavg"] = os.getloadavg()[0]
        if self.traced:
            self.layers.update(span_layers(read_launches(
                self.procs.launches)))
        self.diag["host"] = {"probe_ms": self.probes,
                             "reference_ms": REFERENCE_MS,
                             "loadavg": os.getloadavg()}
        self.diag["ops_attempted"] = self.ledger.attempted
        self.diag["ops_failed"] = self.ledger.failed
        self.diag["failures"] = self.ledger.failures
        self.diag["end_to_end"] = self.e2e
        names = PER_LAYER if self.traced else END_TO_END
        values = self.layers if self.traced else self.e2e
        attempted = sum(self.ledger.attempted.values())
        failed = sum(self.ledger.failed.values())
        return {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": float(values[name]), "unit": unit}
                        for name, unit in names.items()},
        }


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("batch", "serve_scan"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the timed serving phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="8 countries instead of 45 (self-test only)")
    parser.add_argument("--corrupt-response", type=int, default=None,
                        metavar="N", help="flip a byte of the Nth response "
                        "body (self-test only: must count as a failure)")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__main__.py").is_file():
        print(f"no program source at {SRC}: run from a repository checkout",
              file=sys.stderr)
        return 2
    # Byte-compile first, so no run pays for compiling the program.
    subprocess.run([PYTHON, "-m", "compileall", "-q", str(SRC)],
                   env=program_env(), check=True, stdout=subprocess.DEVNULL)
    work = ROOT / ".perfbench_work" / (
        f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}")
    work.mkdir(parents=True)
    try:
        workload = Workload(args, work)
        result = workload.run()
        print(json.dumps(workload.diag, sort_keys=True, default=str))
        print(json.dumps(result))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
