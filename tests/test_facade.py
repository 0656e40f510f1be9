"""Tests for the repro.api facade and the top-level re-exports."""

import json
import threading
import urllib.request

import pytest

import repro
import repro.api
from repro.core import Metric, Month, Platform, REFERENCE_MONTH


@pytest.fixture(scope="module")
def facade_dataset(generator):
    return generator.generate(
        countries=("US",),
        platforms=(Platform.WINDOWS,),
        metrics=(Metric.PAGE_LOADS,),
        months=(REFERENCE_MONTH,),
    )


class TestReExports:
    def test_the_five_verbs_are_top_level(self):
        for verb in ("analyze", "generate", "load", "report", "serve"):
            assert callable(getattr(repro, verb))
            assert getattr(repro, verb) is getattr(repro.api, verb)

    def test_report_function_shadows_but_does_not_break_the_submodule(self):
        import sys

        assert repro.report is repro.api.report  # attribute: the facade verb
        # The submodule stays pinned in sys.modules, so module-path
        # imports keep resolving to the rendering module.
        report_module = sys.modules["repro.report"]
        assert hasattr(report_module, "render_table")
        from repro.report import render_table

        assert render_table is report_module.render_table

    def test_core_types_still_re_exported(self):
        assert repro.Platform is Platform
        assert repro.Month is Month


class TestGenerate:
    def test_string_coercion_matches_enum_spelling(self, generator):
        via_strings = repro.generate(
            config=generator.config,
            countries=("US",),
            platforms=("windows",),
            metrics=("page_loads",),
            months=("2022-02",),
        )
        via_enums = repro.generate(
            config=generator.config,
            countries=("US",),
            platforms=(Platform.WINDOWS,),
            metrics=(Metric.PAGE_LOADS,),
            months=(REFERENCE_MONTH,),
        )
        from repro.export.io import dataset_fingerprint

        assert dataset_fingerprint(via_strings) == dataset_fingerprint(via_enums)

    def test_roundtrip_through_out_and_load(self, generator, tmp_path):
        out = tmp_path / "data"
        dataset = repro.generate(
            config=generator.config,
            countries=("US",),
            platforms=("windows",),
            metrics=("page_loads",),
            out=out,
        )
        from repro.export.io import dataset_fingerprint

        loaded = repro.load(out)
        assert dataset_fingerprint(loaded) == dataset_fingerprint(dataset)

    def test_load_passes_datasets_through(self, facade_dataset):
        assert repro.load(facade_dataset) is facade_dataset


class TestAnalyze:
    def test_returns_the_task_result(self, facade_dataset, generator):
        result = repro.analyze(
            facade_dataset, "concentration", config=generator.config
        )
        assert result  # JSON-shaped task output

    def test_unknown_task_raises(self, facade_dataset, generator):
        with pytest.raises(Exception, match="unknown"):
            repro.analyze(facade_dataset, "nope", config=generator.config)


class TestReport:
    def test_writes_a_run_dir(self, facade_dataset, generator, tmp_path):
        run = repro.report(
            facade_dataset,
            tmp_path / "run",
            tasks=("concentration",),
            config=generator.config,
        )
        assert run.ok
        assert (tmp_path / "run").is_dir()
        assert any((tmp_path / "run").iterdir())


class TestServe:
    def test_non_blocking_server_answers_healthz(self, facade_dataset, generator):
        server = repro.serve(
            facade_dataset, port=0, config=generator.config, block=False
        )
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            with urllib.request.urlopen(
                server.url + "/v1/healthz", timeout=10
            ) as response:
                payload = json.loads(response.read())
            assert response.status == 200
            assert payload["status"] == "ok"
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)


class TestParameterConventions:
    def test_engine_grid_is_keyword_only(self, generator):
        from repro.engine import GenerationEngine

        engine = GenerationEngine(generator.config)
        with pytest.raises(TypeError):
            engine.generate(("US",))

