"""End-to-end ``repro report`` / registry-driven ``repro analyze``."""

import json

import pytest

import repro
from repro.cli import _build_parser, main
from repro.pipeline import ArtifactStore


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("report-cli") / "ds"
    code = main([
        "generate", "--small", "--out", str(out),
        "--countries", "US", "KR", "JP",
        "--months", "2021-12", "2022-02",
    ])
    assert code == 0
    return out


class TestReportCommand:
    def test_cold_run_writes_run_dir(self, dataset_dir, tmp_path, capsys):
        code = main([
            "report", "--data", str(dataset_dir),
            "--out", str(tmp_path / "run"),
        ])
        assert code == 0
        captured = capsys.readouterr().out
        assert "failed 0" in captured

        run = tmp_path / "run"
        summary = json.loads((run / "run.json").read_text())
        assert summary["counts"]["failed"] == 0
        assert summary["counts"]["executed"] > 0
        assert (run / "REPORT.txt").read_text().startswith("== ")
        assert (run / "artifacts" / "concentration.json").is_file()
        assert (run / "tables" / "concentration.txt").is_file()

    def test_second_identical_run_is_fully_cached(
        self, dataset_dir, tmp_path, capsys
    ):
        # The artifact store defaults to <data>/.artifacts, so two
        # invocations with different --out share every artifact: the
        # second run must execute zero tasks.
        code = main([
            "report", "--data", str(dataset_dir),
            "--out", str(tmp_path / "warm"),
        ])
        assert code == 0
        capsys.readouterr()
        code = main([
            "report", "--data", str(dataset_dir),
            "--out", str(tmp_path / "warm2"),
        ])
        assert code == 0
        summary = json.loads((tmp_path / "warm2" / "run.json").read_text())
        assert summary["counts"]["executed"] == 0
        assert summary["counts"]["cached"] > 0

    def test_cold_and_warm_run_dirs_match(self, dataset_dir, tmp_path):
        # A warm run reads every result back from its stored JSON, whose
        # keys come back sorted; the rendered tables must not care.
        store = str(tmp_path / "store")
        for out in ("cold", "warm"):
            assert main([
                "report", "--data", str(dataset_dir), "--store", store,
                "--out", str(tmp_path / out),
            ]) == 0
        summary = json.loads((tmp_path / "warm" / "run.json").read_text())
        assert summary["counts"]["executed"] == 0

        def files(root):
            return {
                p.relative_to(root).as_posix(): p.read_bytes()
                for p in sorted(root.rglob("*"))
                if p.is_file() and p.name != "run.json"
            }

        cold, warm = files(tmp_path / "cold"), files(tmp_path / "warm")
        assert "tables/endemic_categories.txt" in cold
        assert cold.keys() == warm.keys()
        assert [n for n in cold if cold[n] != warm[n]] == []

    def test_task_subset_pulls_dependencies(self, dataset_dir, tmp_path):
        code = main([
            "report", "--data", str(dataset_dir), "--no-store",
            "--out", str(tmp_path / "subset"),
            "--tasks", "endemic_categories",
        ])
        assert code == 0
        summary = json.loads((tmp_path / "subset" / "run.json").read_text())
        assert set(summary["order"]) == {
            "endemicity", "labels", "endemic_categories",
        }


class TestEncodeOnce:
    """Each task result is JSON-encoded at most once per ``report``.

    A cold run encodes a result once and takes its digest, its stored
    file and its run-dir file from those bytes; a warm run reuses the
    stored bytes and encodes nothing.
    """

    @pytest.fixture(scope="class")
    def two_country_dir(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("encode-once") / "ds"
        assert main([
            "generate", "--small", "--out", str(out), "--countries", "US", "KR",
        ]) == 0
        return out

    def test_cold_and_warm_runs_encode_each_result_at_most_once(
        self, two_country_dir, tmp_path, monkeypatch
    ):
        real = json.dumps
        store = ArtifactStore(two_country_dir / ".artifacts")
        for out, most in ((tmp_path / "cold", 1), (tmp_path / "warm", 0)):
            dumped: list[object] = []

            def spy(obj, *args, **kwargs):
                dumped.append(obj)
                return real(obj, *args, **kwargs)

            with monkeypatch.context() as patch:
                patch.setattr(json, "dumps", spy)
                run = repro.report(str(two_country_dir), str(out))
            assert run.executed > 0 if most else run.executed == 0
            assert run.results
            for name, result in run.results.items():
                # An encoding of the result alone or inside its envelope.
                encodings = sum(
                    1 for obj in dumped
                    if obj is result
                    or (isinstance(obj, dict) and obj.get("result") is result)
                )
                assert encodings <= most, (out.name, name, encodings)
                stored = store.path_for(
                    run.fingerprint, name, run.records[name].key
                )
                written = out / "artifacts" / f"{name}.json"
                assert written.read_bytes() == stored.read_bytes(), name

class TestAnalyzeViaRegistry:
    def test_choices_come_from_the_registry(self):
        from repro.pipeline import default_registry

        parser_text = _build_parser().parse_args(
            ["analyze", "--data", "x", "--analysis", "endemicity"]
        )
        assert parser_text.analysis == "endemicity"
        with pytest.raises(SystemExit):
            _build_parser().parse_args(
                ["analyze", "--data", "x", "--analysis", "nonsense"]
            )
        assert "endemicity" in default_registry().names()

    def test_new_registry_analysis_runs(self, dataset_dir, capsys):
        code = main([
            "analyze", "--data", str(dataset_dir), "--analysis", "endemicity",
        ])
        assert code == 0
        assert "Endemicity" in capsys.readouterr().out

    def test_data_only_task_prints_json(self, dataset_dir, capsys):
        code = main([
            "analyze", "--data", str(dataset_dir), "--analysis", "has_app",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert isinstance(payload["sites"], list)

    def test_overlap_on_single_metric_dataset_exits_2(
        self, tmp_path, capsys
    ):
        out = tmp_path / "loads-only"
        main([
            "generate", "--small", "--out", str(out),
            "--countries", "US", "KR", "--metrics", "page_loads",
        ])
        capsys.readouterr()
        code = main(["analyze", "--data", str(out), "--analysis", "overlap"])
        assert code == 2
        assert "dataset lacks both metrics" in capsys.readouterr().err
