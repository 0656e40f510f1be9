"""Runner semantics on toy DAGs: ordering, isolation, artifact reuse."""

import pytest

from repro.core.errors import TaskUnavailable
from repro.pipeline import (
    ArtifactStore,
    PipelineRunner,
    TaskContext,
    TaskRegistry,
    TaskStatus,
)


@pytest.fixture
def ctx(pipeline_dataset):
    return TaskContext(pipeline_dataset)


def _diamond(calls: list[str]) -> TaskRegistry:
    """base -> (left, right) -> top, recording execution order."""
    registry = TaskRegistry()

    @registry.task("base")
    def base(ctx, inputs):
        calls.append("base")
        return {"value": 1}

    @registry.task("left", deps=("base",))
    def left(ctx, inputs):
        calls.append("left")
        return {"value": inputs["base"]["value"] + 10}

    @registry.task("right", deps=("base",))
    def right(ctx, inputs):
        calls.append("right")
        return {"value": inputs["base"]["value"] + 20}

    @registry.task("top", deps=("left", "right"))
    def top(ctx, inputs):
        calls.append("top")
        return {"value": inputs["left"]["value"] + inputs["right"]["value"]}

    return registry


class TestDagExecution:
    def test_inputs_flow_along_edges(self, ctx):
        calls: list[str] = []
        report = PipelineRunner(_diamond(calls)).run(ctx)
        assert report.results["top"] == {"value": 32}
        assert calls.index("base") < calls.index("left")
        assert calls.index("base") < calls.index("right")
        assert calls[-1] == "top"

    def test_selection_runs_only_the_closure(self, ctx):
        calls: list[str] = []
        report = PipelineRunner(_diamond(calls)).run(ctx, ["left"])
        assert set(calls) == {"base", "left"}
        assert set(report.records) == {"base", "left"}


class TestFailureIsolation:
    def _failing(self) -> TaskRegistry:
        registry = TaskRegistry()

        @registry.task("boom")
        def boom(ctx, inputs):
            raise ValueError("kaput")

        @registry.task("dependent", deps=("boom",))
        def dependent(ctx, inputs):
            return {}

        @registry.task("grand", deps=("dependent",))
        def grand(ctx, inputs):
            return {}

        @registry.task("bystander")
        def bystander(ctx, inputs):
            return {"fine": True}

        return registry

    def test_failure_skips_dependents_not_the_run(self, ctx):
        report = PipelineRunner(self._failing()).run(ctx)
        assert report.records["boom"].status is TaskStatus.FAILED
        assert report.records["boom"].error == "ValueError: kaput"
        assert report.records["dependent"].status is TaskStatus.SKIPPED
        assert "boom" in report.records["dependent"].error
        assert report.records["grand"].status is TaskStatus.SKIPPED
        assert report.records["bystander"].status is TaskStatus.OK
        assert report.results["bystander"] == {"fine": True}
        assert not report.ok

    def test_unavailable_counts_as_skip_not_failure(self, ctx):
        registry = TaskRegistry()

        @registry.task("maybe")
        def maybe(ctx, inputs):
            raise TaskUnavailable("dataset lacks the slice")

        report = PipelineRunner(registry).run(ctx)
        assert report.records["maybe"].status is TaskStatus.SKIPPED
        assert report.records["maybe"].error == "dataset lacks the slice"
        assert report.ok

    def test_unavailable_key_skips_before_running(self, pipeline_dataset):
        registry = TaskRegistry()

        @registry.task("needs_config",
                       context_key=lambda ctx: ctx.config_fingerprint())
        def needs_config(ctx, inputs):  # pragma: no cover - must not run
            raise AssertionError("body ran without a config")

        report = PipelineRunner(registry).run(TaskContext(pipeline_dataset))
        assert report.records["needs_config"].status is TaskStatus.SKIPPED
        assert "--small/--seed" in report.records["needs_config"].error


class TestArtifactReuse:
    def test_warm_run_executes_nothing(self, ctx, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        cold_calls: list[str] = []
        cold = PipelineRunner(_diamond(cold_calls), store=store).run(ctx)
        assert cold.executed == 4 and len(cold_calls) == 4

        warm_calls: list[str] = []
        warm = PipelineRunner(_diamond(warm_calls), store=store).run(ctx)
        assert warm_calls == []
        assert warm.executed == 0
        assert warm.cached == 4
        assert warm.results == cold.results

    def test_cached_results_feed_downstream_misses(self, ctx, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        cold = PipelineRunner(_diamond([]), store=store).run(ctx)
        # Drop one artifact: only that task re-executes, reading its
        # dependency from cache.  The stored key folds in dependency
        # digests, so read it off the run record.
        fingerprint = ctx.fingerprint
        top_key = cold.records["top"].key
        store.path_for(fingerprint, "top", top_key).unlink()
        calls: list[str] = []
        report = PipelineRunner(_diamond(calls), store=store).run(ctx)
        assert calls == ["top"]
        assert report.cached == 3
        assert report.results["top"] == {"value": 32}

    def test_failed_tasks_are_not_cached(self, ctx, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        registry = TaskRegistry()
        attempts: list[int] = []

        @registry.task("flaky")
        def flaky(ctx, inputs):
            attempts.append(1)
            raise ValueError("kaput")

        PipelineRunner(registry, store=store).run(ctx)
        PipelineRunner(registry, store=store).run(ctx)
        assert len(attempts) == 2
