"""End-to-end checks of a traced `repro report`, driven as a subprocess.

A report restores the universe the dataset carries (`universe.bin`)
to read each site's ground truth, so only `generate` ever builds it:
the generate trace holds exactly one `synth.universe_build` span, and
the report trace none and exactly one `synth.universe_load`.
Over a columnar dataset every list the report reads is decoded in a
`store.materialize` span, so those spans' `slices` add up to the lists
an identical in-process report materialises.  Every span a task causes
(kernels, Fisher batches, slice decodes) nests under that task's
`pipeline.task` span.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.export.io import load_dataset
from repro.pipeline import run_pipeline
from repro.pipeline.context import infer_config

from .test_serve_cli import repro


def spans(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text().splitlines()
            if line.strip()]


def named(path: Path, name: str) -> list[dict]:
    return [span for span in spans(path) if span["name"] == name]


@pytest.fixture(scope="module")
def traced(tmp_path_factory) -> dict[str, Path]:
    """A traced generate, then a traced report over each codec."""
    root = tmp_path_factory.mktemp("report-trace")
    repro("generate", "--small", "--out", "ds", "--countries", "US", "KR",
          "--trace", "generate-trace.jsonl", cwd=root)
    repro("convert", "ds", "ds-col", cwd=root)
    for data in ("ds", "ds-col"):
        repro("report", "--data", data, "--out", f"run-{data}", "--small",
              "--no-store", "--trace", f"report-{data}.jsonl", cwd=root)
    return {
        "root": root,
        "generate": root / "generate-trace.jsonl",
        "report": root / "report-ds.jsonl",
        "report-col": root / "report-ds-col.jsonl",
    }


def test_generate_builds_the_universe_once(traced):
    assert len(named(traced["generate"], "synth.universe_build")) == 1


@pytest.mark.parametrize("trace", ["report", "report-col"])
def test_report_never_builds_the_universe(traced, trace):
    assert named(traced[trace], "synth.universe_build") == []
    assert len(named(traced[trace], "synth.universe_load")) == 1
    summary = repro("trace", "summarize", str(traced[trace]), "--top", "5")
    assert "pipeline.run" in summary.stdout


def test_materialize_spans_cover_the_slices_the_report_reads(traced):
    materialized = named(traced["report-col"], "store.materialize")
    assert materialized, "the columnar report decoded no slice in a span"
    traced_slices = sum(span["attrs"]["slices"] for span in materialized)

    dataset = load_dataset(traced["root"] / "ds-col")
    run_pipeline(dataset, config=infer_config(dataset, small=True))
    read = len(dataset) - dataset.pending
    assert read > 0
    assert traced_slices == read
    assert all(span["attrs"]["sites"] > 0 for span in materialized)


@pytest.mark.parametrize("trace", ["report", "report-col"])
def test_task_work_nests_under_its_task_span(traced, trace):
    by_id = {span["span"]: span for span in spans(traced[trace])}

    def ancestors(span):
        while span.get("parent") in by_id:
            span = by_id[span["parent"]]
            yield span

    def in_run(span):
        return any(a["name"] == "pipeline.run" for a in ancestors(span))

    caused = [
        span for span in by_id.values()
        if span["name"] == "stats.fisher_batch"
        or span["name"].startswith("kernel.")
        or (span["name"] == "store.materialize" and in_run(span))
    ]
    names = {span["name"] for span in caused}
    assert {"stats.fisher_batch", "kernel.pairwise_wrbo",
            "kernel.rank_matrix"} <= names
    if trace == "report-col":
        assert "store.materialize" in names
    orphans = [span["name"] for span in caused
               if by_id[span["parent"]]["name"] != "pipeline.task"]
    assert orphans == []
