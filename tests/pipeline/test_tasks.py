"""The default registry run against a real (small) dataset."""

import pytest

from repro.pipeline import (
    PipelineRunner,
    TaskContext,
    TaskStatus,
    default_registry,
    render_task,
    run_pipeline,
)


@pytest.fixture(scope="module")
def report(pipeline_ctx):
    """One serial run of the whole registry, shared by the checks below."""
    return PipelineRunner(default_registry()).run(pipeline_ctx)


class TestRegistryShape:
    def test_covers_the_historical_analyze_choices(self):
        names = set(default_registry().names())
        assert {"concentration", "composition", "overlap", "clusters"} <= names

    def test_ground_truth_feeds_composition_family(self):
        order = default_registry().topological_order()
        assert order.index("labels") < order.index("composition")
        assert order.index("labels") < order.index("prevalence")
        assert order.index("endemicity") < order.index("popularity_mix")
        assert order.index("similarity") < order.index("clusters")

    def test_registry_is_acyclic_and_nontrivial(self):
        registry = default_registry()
        assert len(registry.topological_order()) == len(registry) >= 15


class TestFullRun:
    def test_everything_succeeds_on_a_two_month_dataset(self, report):
        bad = {
            name: (rec.status.value, rec.error)
            for name, rec in report.records.items()
            if rec.status not in (TaskStatus.OK, TaskStatus.CACHED)
        }
        assert bad == {}

    def test_results_are_json_shaped(self, report):
        from repro.pipeline import canonical_json

        for name, result in report.results.items():
            canonical_json(result)  # raises on non-JSON values

    def test_renders_are_plain_text(self, report):
        registry = default_registry()
        rendered = {
            name: render_task(registry, report, name)
            for name in report.order
        }
        assert rendered["concentration"].startswith("Traffic concentration")
        assert "top-1 share" in rendered["concentration"]
        assert "median Spearman" in rendered["overlap"]
        assert "clusters" in rendered["clusters"]
        assert rendered["labels"] is None  # data-only task

    def test_labels_restricted_to_dataset_sites(self, report, pipeline_ctx):
        labels = report.results["labels"]
        assert labels  # non-empty
        assert set(labels) <= pipeline_ctx.dataset.all_sites()


class TestDegradedDatasets:
    def test_single_metric_dataset_skips_overlap_gracefully(self, generator):
        from repro.core import Metric, Platform

        dataset = generator.generate(
            countries=("US", "KR"),
            platforms=(Platform.WINDOWS,),
            metrics=(Metric.PAGE_LOADS,),
        )
        report = run_pipeline(
            dataset, ["overlap", "concentration"], config=generator.config
        )
        overlap = report.records["overlap"]
        assert overlap.status is TaskStatus.SKIPPED
        assert overlap.error == "dataset lacks both metrics"
        assert report.records["concentration"].status is TaskStatus.OK

    def test_unprovenanced_dataset_skips_ground_truth_only(
        self, pipeline_dataset
    ):
        ctx = TaskContext(pipeline_dataset)  # no config
        report = PipelineRunner(default_registry()).run(
            ctx, ["labels", "concentration"]
        )
        assert report.records["labels"].status is TaskStatus.SKIPPED
        assert report.records["concentration"].status is TaskStatus.OK
