"""Tracing wired through the engine and pipeline layers.

The serving-layer wiring (``http.request`` spans, the ``trace`` block
in ``/v1/metrics``) is covered next to the other HTTP tests in
``tests/service/test_http.py``.
"""

import pytest

from repro.core import Metric, Platform
from repro.engine import GenerationEngine
from repro.obs import NULL_TRACER, Tracer, set_tracer
from repro.pipeline import PipelineRunner, TaskContext, TaskRegistry
from repro.store import write_columnar
from tests.store.conftest import KR_TIME, US_PAGE_LOADS, make_tiny_dataset


@pytest.fixture()
def tracer():
    """Install a fresh Tracer for one test; always restore the shim."""
    active = Tracer()
    previous = set_tracer(active)
    yield active
    set_tracer(previous)


def _by_name(tracer):
    spans = tracer.collector.snapshot()
    grouped: dict[str, list[dict]] = {}
    for span in spans:
        grouped.setdefault(span["name"], []).append(span)
    return grouped


GRID = {"platforms": (Platform.WINDOWS,), "metrics": (Metric.PAGE_LOADS,)}


class TestEngineTracing:
    def test_slice_spans_nest_under_engine_run(self, generator, tracer):
        engine = GenerationEngine(generator.config, generator=generator)
        engine.generate(countries=("US", "KR"), **GRID)

        spans = _by_name(tracer)
        (run,) = spans["engine.run"]
        assert run["attrs"] == {
            "fingerprint": generator.config.fingerprint(), "slices": 2,
        }
        assert not run.get("counters")
        slices = spans["engine.generate_slice"]
        assert {s["attrs"]["country"] for s in slices} == {"US", "KR"}
        assert all(s["parent"] == run["span"] for s in slices)
        assert all(
            set(s["attrs"]) == {"country", "platform", "metric", "month"}
            for s in slices
        )

    def test_uninstrumented_run_collects_nothing(self, generator):
        assert not NULL_TRACER.enabled
        engine = GenerationEngine(generator.config, generator=generator)
        engine.generate(countries=("US",), **GRID)  # must not raise


class TestPipelineTracing:
    def _registry(self) -> TaskRegistry:
        registry = TaskRegistry()

        @registry.task("base")
        def base(ctx, inputs):
            return {"value": 1}

        @registry.task("boom", deps=("base",))
        def boom(ctx, inputs):
            raise RuntimeError("exploded")

        @registry.task("downstream", deps=("boom",))
        def downstream(ctx, inputs):  # pragma: no cover - never runs
            return {}

        return registry

    def test_task_spans_carry_status_and_store(
        self, reference_dataset, tracer
    ):
        runner = PipelineRunner(self._registry())
        runner.run(TaskContext(reference_dataset))

        spans = _by_name(tracer)
        (run,) = spans["pipeline.run"]
        assert run["attrs"]["tasks"] == 3
        assert run["counters"]["executed"] == 1
        assert run["counters"]["failed"] == 1
        assert run["counters"]["skipped"] == 1
        by_task = {s["attrs"]["task"]: s for s in spans["pipeline.task"]}
        assert by_task["base"]["attrs"]["status"] == "ok"
        assert by_task["base"]["attrs"]["store"] == "off"
        assert by_task["boom"]["attrs"]["status"] == "failed"
        assert by_task["downstream"]["attrs"]["status"] == "skipped"
        assert by_task["downstream"]["attrs"]["reason"] == "dependency"
        assert all(
            s["parent"] == run["span"] for s in spans["pipeline.task"]
        )

    def test_store_hit_recorded_on_second_run(
        self, reference_dataset, tmp_path, tracer
    ):
        registry = TaskRegistry()

        @registry.task("only")
        def only(ctx, inputs):
            return {"value": 7}

        runner = PipelineRunner(registry, store=tmp_path / "artifacts")
        ctx = TaskContext(reference_dataset)
        runner.run(ctx)
        runner.run(ctx)

        tasks = _by_name(tracer)["pipeline.task"]
        assert [t["attrs"].get("store") for t in tasks] == ["miss", "hit"]
        assert tasks[1]["attrs"]["status"] == "cached"


class TestStoreTracing:
    def test_each_materialisation_is_one_span(self, tmp_path, tracer):
        from repro.export.io import load_dataset

        dataset = load_dataset(write_columnar(make_tiny_dataset(), tmp_path / "ds"))
        dataset[US_PAGE_LOADS]
        dataset[US_PAGE_LOADS]  # already materialised: no second span
        dataset.materialize()   # the one still-pending slice
        dataset.materialize()   # nothing pending: no span

        spans = _by_name(tracer)["store.materialize"]
        assert [s["attrs"] for s in spans] == [
            {"slices": 1, "sites": 3}, {"slices": 1, "sites": 3},
        ]
        assert dataset.pending == 0 and len(dataset[KR_TIME]) == 3


class TestStatsTracing:
    def test_fisher_span_counts_margins_and_terms(self, tracer):
        from repro.stats import fisher_exact_batch

        # Two copies of one table, and two tables sharing its margin
        # (total 20, row1 10, col1 10, support 0..10): three unique
        # tables, one margin, every one of its 11 terms evaluated.
        fisher_exact_batch([(3, 7, 7, 3), (3, 7, 7, 3), (5, 5, 5, 5), (0, 10, 10, 0)])
        (span,) = _by_name(tracer)["stats.fisher_batch"]
        assert span["attrs"] == {
            "cells": 4, "unique_tables": 3, "margins": 1, "evaluated": 11,
        }
