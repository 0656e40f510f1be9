"""Per-layer numbers from the spans the traced processes wrote.

Each traced process leaves one ``launch.py`` report: its import time,
the wall time of the command (``main_s``) and every span — the
program's own and the ``bench.*`` spans around the layer entry points.

* A ``bench.*`` span's **self time** is its duration minus the part of
  it covered by the ``bench.*`` spans nested inside it (the nearest
  ``bench.*`` ancestor owns a span), so the universe build inside an
  engine run is charged to ``synth``, not to ``engine``.
* A stage's **residual** is the command's wall time minus the time
  covered by any span at all: work no instrumentation accounts for.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

#: The nine heaviest pipeline tasks at ``--small``.
HEAVY_TASKS = ("has_app", "endemicity", "temporal", "platforms",
               "composition", "sampling", "overlap", "prevalence", "labels")
KERNELS = {
    "stats.fisher_batch": "stats.fisher_batch_s",
    "kernel.pairwise_wrbo": "kernel.pairwise_wrbo_s",
    "kernel.bucket_intersections": "kernel.bucket_intersections_s",
    "kernel.rank_matrix": "kernel.rank_matrix_s",
}
RESIDUAL_STAGES = ("generate", "report", "ingest", "delta_report")
REPORT_STAGES = ("report", "delta_report")


def _interval(span: dict) -> tuple[float, float]:
    start = float(span["ts"])
    return start, start + float(span["duration_ms"]) / 1000.0


def covered(intervals: list[tuple[float, float]], lo: float = float("-inf"),
            hi: float = float("inf")) -> float:
    """Length of the union of ``intervals``, clipped to ``[lo, hi]``."""
    total = 0.0
    end = lo
    for start, stop in sorted(intervals):
        start, stop = max(start, end), min(stop, hi)
        if stop > start:
            total += stop - start
            end = stop
    return total


def bench_self_times(spans: list[dict]) -> list[tuple[dict, float]]:
    """(span, self seconds) for every ``bench.*`` span of one process."""
    by_id = {span["span"]: span for span in spans}
    bench = [s for s in spans if s["name"].startswith("bench.")]
    children: dict[str, list[tuple[float, float]]] = {}
    for span in bench:
        parent = by_id.get(span.get("parent"))
        while parent is not None and not parent["name"].startswith("bench."):
            parent = by_id.get(parent.get("parent"))
        if parent is not None:
            children.setdefault(parent["span"], []).append(_interval(span))
    out = []
    for span in bench:
        duration = float(span["duration_ms"]) / 1000.0
        out.append((span, duration - covered(children.get(span["span"], []))))
    return out


def read_launches(launches: list[tuple[str, Path]]) -> list[tuple[str, dict]]:
    return [(stage, json.loads(path.read_text()))
            for stage, path in launches if path.is_file()]


def span_layers(launches: list[tuple[str, dict]]) -> dict[str, float]:
    """Every span-derived per-layer metric, summed over processes."""
    m: dict[str, float] = {
        "synth.universe_build_s": 0.0, "synth.universe_builds": 0,
        "engine.generate_s": 0.0, "engine.slices_generated": 0,
        "store.save_s": 0.0, "store.load_s": 0.0, "store.ingest_s": 0.0,
    }
    for task in HEAVY_TASKS:
        m[f"pipeline.task.{task}_s"] = 0.0
    for stage in RESIDUAL_STAGES:
        m[f"pipeline.residual.{stage}_s"] = 0.0
    for metric in KERNELS.values():
        m[metric] = 0.0
    imports = []
    for stage, report in launches:
        imports.append(report["import_s"])
        spans = report["spans"]
        for span, self_s in bench_self_times(spans):
            name = span["name"]
            whole = float(span["duration_ms"]) / 1000.0
            if name == "bench.build_universe":
                m["synth.universe_build_s"] += whole
                m["synth.universe_builds"] += 1
            elif name == "bench.engine.generate":
                m["engine.generate_s"] += self_s
                m["engine.slices_generated"] += span["attrs"]["slices"]
            elif name == "bench.save_dataset":
                m["store.save_s"] += whole
            elif name == "bench.load_dataset":
                m["store.load_s"] += whole
            elif name == "bench.ingest_months":
                m["store.ingest_s"] += self_s
        for span in spans:
            name = span["name"]
            if name in KERNELS:
                m[KERNELS[name]] += float(span["duration_ms"]) / 1000.0
            elif (name == "pipeline.task" and stage in REPORT_STAGES
                  and span.get("attrs", {}).get("status") == "ok"
                  and span["attrs"].get("task") in HEAVY_TASKS):
                m[f"pipeline.task.{span['attrs']['task']}_s"] += (
                    float(span["duration_ms"]) / 1000.0)
        if stage in RESIDUAL_STAGES:
            lo = float(report["main_ts"])
            hi = lo + float(report["main_s"])
            m[f"pipeline.residual.{stage}_s"] += report["main_s"] - covered(
                [_interval(s) for s in spans], lo, hi)
    m["cli.import_s"] = statistics.median(imports) if imports else 0.0
    return m
