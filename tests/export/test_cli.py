"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import _build_parser, main
from repro.core import Metric, Platform


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "ds"
    code = main([
        "generate", "--small", "--out", str(out),
        "--countries", "US", "KR",
    ])
    assert code == 0
    return out


class TestGenerate:
    def test_creates_manifest_and_lists(self, dataset_dir):
        assert (dataset_dir / "manifest.json").is_file()
        lists = list((dataset_dir / "lists").glob("*.txt"))
        # 2 countries x 2 platforms x 2 metrics x 1 month
        assert len(lists) == 8

    def test_month_parsing(self, tmp_path):
        out = tmp_path / "ds2"
        code = main([
            "generate", "--small", "--out", str(out),
            "--countries", "US", "--months", "2021-12",
        ])
        assert code == 0
        assert any("2021-12" in p.name for p in (out / "lists").glob("*.txt"))

    def test_bad_month_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["generate", "--small", "--out", str(tmp_path / "x"),
                  "--months", "december"])


class TestGenerateEngineFlags:
    def test_parser_accepts_engine_flags(self):
        args = _build_parser().parse_args([
            "generate", "--out", "somewhere",
            "--platforms", "windows",
            "--metrics", "time_on_page", "page_loads",
        ])
        assert args.platforms == [Platform.WINDOWS]
        assert args.metrics == [Metric.TIME_ON_PAGE, Metric.PAGE_LOADS]

    def test_engine_flags_default_to_studied_grid_and_serial(self):
        args = _build_parser().parse_args(["generate", "--out", "somewhere"])
        assert args.platforms is None
        assert args.metrics is None

    def test_bad_platform_rejected(self):
        with pytest.raises(SystemExit):
            _build_parser().parse_args(
                ["generate", "--out", "x", "--platforms", "amiga"]
            )

    def test_bad_metric_rejected(self):
        with pytest.raises(SystemExit):
            _build_parser().parse_args(
                ["generate", "--out", "x", "--metrics", "clicks"]
            )

    def test_platform_metric_subset_generated(self, tmp_path):
        out = tmp_path / "subset"
        code = main([
            "generate", "--small", "--out", str(out),
            "--countries", "US",
            "--platforms", "windows", "--metrics", "page_loads",
        ])
        assert code == 0
        lists = list((out / "lists").glob("*.txt"))
        assert [p.name for p in lists] == ["US_windows_page_loads_2022-02.txt"]

    @pytest.mark.parametrize("command", ["generate", "ingest"])
    def test_cache_dir_flag_is_rejected(self, command, tmp_path):
        # Generated lists persist only in the saved dataset.
        argv = [command, "--small", "--data", str(tmp_path / "x"),
                "--months", "2022-02"]
        assert _build_parser().parse_args(argv).command == command
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--cache-dir", str(tmp_path / "slices")])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["report", "--data", "d", "--out", "o"],
        ["serve", "--data", "d"],
        ["generate", "--out", "o"],
        ["ingest", "--data", "d", "--months", "2022-02"],
    ])
    def test_no_command_takes_jobs(self, argv, capsys):
        # Generation and pipeline runs both stay in the calling process.
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--jobs", "2"])
        assert exc.value.code == 2
        assert "--jobs" in capsys.readouterr().err


class TestConvert:
    def test_round_trip_is_byte_identical(self, dataset_dir, tmp_path, capsys):
        from repro.export.io import dataset_fingerprint, load_dataset

        col = tmp_path / "col"
        back = tmp_path / "back"
        assert main(["convert", str(dataset_dir), str(col)]) == 0
        out = capsys.readouterr().out
        assert f"converted {dataset_dir} (text) -> {col} (columnar)" in out
        assert (col / "manifest.bin").is_file()
        assert main(["convert", str(col), str(back), "--format", "text"]) == 0
        for original in sorted((dataset_dir / "lists").glob("*.txt")):
            assert (back / "lists" / original.name).read_bytes() == \
                original.read_bytes()
        assert (back / "manifest.json").read_bytes() == \
            (dataset_dir / "manifest.json").read_bytes()
        assert (back / "ground_truth.jsonl").read_bytes() == \
            (dataset_dir / "ground_truth.jsonl").read_bytes()
        text, mapped = load_dataset(dataset_dir), load_dataset(col)
        assert mapped.storage == "columnar-mmap"
        assert dataset_fingerprint(text) == dataset_fingerprint(mapped)

    def test_missing_source_exits_2(self, tmp_path, capsys):
        assert main(["convert", str(tmp_path / "nope"),
                     str(tmp_path / "dst")]) == 2
        assert "no dataset under" in capsys.readouterr().err

    def test_convert_onto_itself_exits_2(self, dataset_dir, capsys):
        assert main(["convert", str(dataset_dir), str(dataset_dir)]) == 2
        assert "different from the source" in capsys.readouterr().err

    def test_inspect_works_on_converted_dataset(
        self, dataset_dir, tmp_path, capsys
    ):
        col = tmp_path / "col"
        assert main(["convert", str(dataset_dir), str(col)]) == 0
        capsys.readouterr()
        assert main(["inspect", "--data", str(col),
                     "--country", "KR", "--top", "3"]) == 0
        assert "naver.com" in capsys.readouterr().out


class TestOccupiedDestination:
    """generate and convert only write fresh directories."""

    def test_generate_over_a_dataset_exits_2(self, dataset_dir, capsys):
        manifest = (dataset_dir / "manifest.json").read_bytes()
        assert main(["generate", "--small", "--out", str(dataset_dir),
                     "--countries", "US", "--format", "columnar"]) == 2
        err = capsys.readouterr().err
        assert "already holds a dataset" in err and "repro ingest" in err
        assert (dataset_dir / "manifest.json").read_bytes() == manifest
        assert not (dataset_dir / "manifest.bin").exists()

    def test_convert_onto_a_dataset_exits_2(
        self, dataset_dir, tmp_path, capsys
    ):
        col = tmp_path / "col"
        assert main(["convert", str(dataset_dir), str(col)]) == 0
        capsys.readouterr()
        assert main(["convert", str(dataset_dir), str(col),
                     "--format", "text"]) == 2
        assert "already holds a dataset" in capsys.readouterr().err
        assert not (col / "manifest.json").exists()


class TestGenerateFormat:
    def test_generate_columnar_writes_binary_layout(self, tmp_path, capsys):
        out = tmp_path / "ds"
        code = main([
            "generate", "--small", "--out", str(out), "--countries", "US",
            "--platforms", "windows", "--metrics", "page_loads",
            "--format", "columnar",
        ])
        assert code == 0
        assert "(columnar)" in capsys.readouterr().out
        assert (out / "manifest.bin").is_file()
        assert not (out / "manifest.json").exists()

    def test_generated_codecs_agree(self, tmp_path):
        from repro.api import load

        text_dir, col_dir = tmp_path / "text", tmp_path / "col"
        for out, format in ((text_dir, "text"), (col_dir, "columnar")):
            assert main([
                "generate", "--small", "--out", str(out), "--countries", "US",
                "--platforms", "windows", "--metrics", "page_loads",
                "--format", format,
            ]) == 0
        text_ds, col_ds = load(text_dir), load(col_dir)
        for breakdown in text_ds.breakdowns():
            assert col_ds[breakdown] == text_ds[breakdown]

    def test_bad_format_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["generate", "--out", str(tmp_path / "x"),
                  "--format", "parquet"])


class TestInspectAnalyze:
    def test_inspect_prints_table(self, dataset_dir, capsys):
        assert main(["inspect", "--data", str(dataset_dir),
                     "--country", "KR", "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "naver.com" in out

    def test_analyze_concentration(self, dataset_dir, capsys):
        assert main(["analyze", "--data", str(dataset_dir),
                     "--analysis", "concentration"]) == 0
        out = capsys.readouterr().out
        assert "top-1 share" in out
        assert "17.0%" in out

    def test_analyze_overlap(self, dataset_dir, capsys):
        assert main(["analyze", "--data", str(dataset_dir),
                     "--analysis", "overlap"]) == 0
        out = capsys.readouterr().out
        assert "Spearman" in out

    def test_analyze_composition(self, dataset_dir, capsys):
        assert main(["analyze", "--data", str(dataset_dir),
                     "--analysis", "composition", "--small"]) == 0
        out = capsys.readouterr().out
        assert "Search Engines" in out

    def test_analyze_clusters(self, dataset_dir, capsys):
        assert main(["analyze", "--data", str(dataset_dir),
                     "--analysis", "clusters"]) == 0
        out = capsys.readouterr().out
        assert "clusters" in out


class TestCruxAndWorld:
    def test_crux_export(self, dataset_dir, tmp_path, capsys):
        out = tmp_path / "crux.json"
        assert main(["crux", "--data", str(dataset_dir),
                     "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["metric"] == "page_loads"
        assert payload["global"]["google"] == 1_000
        assert set(payload["countries"]) == {"US", "KR"}

    def test_world_facts(self, capsys):
        assert main(["world"]) == 0
        out = capsys.readouterr().out
        assert "45 study countries" in out
        assert "61 categories" in out


class TestInspectErrors:
    def test_unknown_country_exits_2_with_choices(self, dataset_dir, capsys):
        assert main(["inspect", "--data", str(dataset_dir),
                     "--country", "XX"]) == 2
        err = capsys.readouterr().err
        assert "unknown country 'XX'" in err
        assert "US" in err and "KR" in err

    def test_country_is_case_insensitive(self, dataset_dir, capsys):
        assert main(["inspect", "--data", str(dataset_dir),
                     "--country", "kr", "--top", "1"]) == 0
        out = capsys.readouterr().out
        assert "KR, 2022-02" in out


class TestCruxSliceFlags:
    def test_explicit_platform_metric_month(self, dataset_dir, tmp_path, capsys):
        out = tmp_path / "crux.json"
        assert main([
            "crux", "--data", str(dataset_dir), "--out", str(out),
            "--platform", "android", "--metric", "time_on_page",
            "--month", "2022-02",
        ]) == 0
        payload = json.loads(out.read_text())
        assert payload["platform"] == "android"
        assert payload["metric"] == "time_on_page"
        assert payload["month"] == "2022-02"

    def test_default_metric_prefers_page_loads(self, dataset_dir, tmp_path):
        out = tmp_path / "crux.json"
        assert main(["crux", "--data", str(dataset_dir),
                     "--out", str(out)]) == 0
        assert json.loads(out.read_text())["metric"] == "page_loads"

    def test_absent_slice_exits_2_listing_the_grid(
        self, dataset_dir, tmp_path, capsys
    ):
        assert main([
            "crux", "--data", str(dataset_dir),
            "--out", str(tmp_path / "crux.json"), "--month", "2021-12",
        ]) == 2
        err = capsys.readouterr().err
        assert "2021-12" in err
        assert "months: 2022-02" in err
        assert "platforms:" in err and "metrics:" in err

    def test_bad_month_flag_rejected_by_parser(self, dataset_dir, tmp_path):
        with pytest.raises(SystemExit):
            main(["crux", "--data", str(dataset_dir),
                  "--out", str(tmp_path / "x"), "--month", "february"])


class TestServeParser:
    def test_defaults(self):
        args = _build_parser().parse_args(["serve", "--data", "somewhere"])
        assert args.host == "127.0.0.1"
        assert args.port == 8000
        assert args.cache_size == 256
        assert args.store is None
        assert not args.no_store
        assert args.trace is None

    def test_port_zero_and_flags_accepted(self):
        args = _build_parser().parse_args([
            "serve", "--data", "ds", "--port", "0",
            "--cache-size", "16", "--no-store",
        ])
        assert args.port == 0
        assert args.cache_size == 16
        assert args.no_store

    def test_fleet_flags(self):
        args = _build_parser().parse_args(["serve", "--data", "ds"])
        assert args.workers == 1
        assert args.cache_bytes is None
        args = _build_parser().parse_args([
            "serve", "--data", "ds", "--workers", "4",
            "--cache-bytes", "1048576",
        ])
        assert args.workers == 4
        assert args.cache_bytes == 1048576

    def test_port_zero_prints_resolved_port(
        self, dataset_dir, capsys, monkeypatch
    ):
        """`serve --port 0` logs the *bound* port in the startup line —
        the line CI greps the base URL out of."""
        def fake_serve_forever(server):
            server.server_close()

        monkeypatch.setattr(
            "repro.service.serve_forever", fake_serve_forever
        )
        code = main([
            "serve", "--data", str(dataset_dir), "--port", "0", "--small",
        ])
        assert code == 0
        line = capsys.readouterr().out.splitlines()[0]
        assert line.startswith(f"serving {dataset_dir} on http://127.0.0.1:")
        port = int(line.rsplit(":", 1)[1])
        assert port > 0


class TestTraceFlag:
    def test_parsers_accept_trace(self):
        for command in (
            ["generate", "--out", "x"],
            ["report", "--data", "ds", "--out", "run"],
            ["serve", "--data", "ds"],
        ):
            args = _build_parser().parse_args(command + ["--trace", "t.jsonl"])
            assert args.trace == "t.jsonl"
            assert _build_parser().parse_args(command).trace is None

    def test_generate_trace_covers_engine_slices(self, tmp_path, capsys):
        trace = tmp_path / "gen.jsonl"
        assert main([
            "generate", "--small", "--out", str(tmp_path / "ds"),
            "--countries", "US", "--platforms", "windows",
            "--metrics", "page_loads", "--trace", str(trace),
        ]) == 0
        assert f"wrote trace {trace}" in capsys.readouterr().out
        spans = [json.loads(line) for line in trace.read_text().splitlines()]
        names = {s["name"] for s in spans}
        assert "engine.run" in names
        slices = [s for s in spans if s["name"] == "engine.generate_slice"]
        assert [s["attrs"] for s in slices] == [{
            "country": "US", "platform": "windows",
            "metric": "page_loads", "month": "2022-02",
        }]
        assert "engine.cache_write" not in names

    def test_report_trace_covers_every_pipeline_task(
        self, dataset_dir, tmp_path, capsys
    ):
        trace = tmp_path / "rep.jsonl"
        assert main([
            "report", "--data", str(dataset_dir),
            "--out", str(tmp_path / "run"), "--no-store", "--small",
            "--tasks", "concentration", "--trace", str(trace),
        ]) == 0
        assert f"wrote trace {trace}" in capsys.readouterr().out
        spans = [json.loads(line) for line in trace.read_text().splitlines()]
        (run,) = [s for s in spans if s["name"] == "pipeline.run"]
        tasks = [s for s in spans if s["name"] == "pipeline.task"]
        assert len(tasks) == run["attrs"]["tasks"] >= 1
        assert all(t["parent"] == run["span"] for t in tasks)
        assert {t["attrs"]["task"] for t in tasks} >= {"concentration"}


class TestTraceSummarize:
    def test_summarizes_a_report_trace(self, dataset_dir, tmp_path, capsys):
        trace = tmp_path / "rep.jsonl"
        assert main([
            "report", "--data", str(dataset_dir),
            "--out", str(tmp_path / "run"), "--no-store", "--small",
            "--tasks", "concentration", "--trace", str(trace),
        ]) == 0
        capsys.readouterr()
        assert main(["trace", "summarize", str(trace), "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "slowest spans" in out
        assert "by span name" in out
        assert "pipeline.task" in out

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["trace", "summarize", str(tmp_path / "nope.jsonl")]) == 2
        assert "no trace file" in capsys.readouterr().err

    def test_empty_trace_exits_1(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["trace", "summarize", str(empty)]) == 1
        assert "no spans" in capsys.readouterr().err

    def test_malformed_trace_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("this is not json\n")
        assert main(["trace", "summarize", str(bad)]) == 1
        assert "malformed" in capsys.readouterr().err


class TestIngestCLI:
    @pytest.fixture(scope="class")
    def growable_dir(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("ingest-cli") / "ds"
        assert main([
            "generate", "--small", "--out", str(out),
            "--countries", "US", "--months", "2021-09",
        ]) == 0
        return out

    def test_parser_shares_the_generate_vocabulary(self):
        args = _build_parser().parse_args([
            "ingest", "--data", "ds", "--month", "2021-10",
        ])
        assert [str(m) for m in args.months] == ["2021-10"]

    def test_format_flag_is_gone(self, capsys):
        # The files on disk decide the format of the dataset it grows.
        with pytest.raises(SystemExit) as excinfo:
            main(["ingest", "--data", "ds", "--month", "2021-10",
                  "--format", "text"])
        assert excinfo.value.code == 2
        assert "--format" in capsys.readouterr().err

    def test_ingest_bumps_the_version(self, growable_dir, capsys):
        assert main([
            "ingest", "--data", str(growable_dir),
            "--months", "2021-10", "--small",
        ]) == 0
        out = capsys.readouterr().out
        assert "ingested 2021-10" in out
        assert "dataset version 1 -> 2" in out

    def test_reingest_reports_the_noop(self, growable_dir, capsys):
        assert main([
            "ingest", "--data", str(growable_dir),
            "--months", "2021-10", "--small",
        ]) == 0
        out = capsys.readouterr().out
        assert "nothing to ingest" in out
        assert "still version 2" in out

    def test_analyze_as_of_selects_the_old_version(self, growable_dir, capsys):
        assert main([
            "analyze", "--data", str(growable_dir),
            "--analysis", "concentration", "--small", "--as-of", "1",
        ]) == 0
        assert capsys.readouterr().out

    def test_unknown_as_of_exits_2_with_choices(self, growable_dir, capsys):
        assert main([
            "analyze", "--data", str(growable_dir),
            "--analysis", "concentration", "--small", "--as-of", "9",
        ]) == 2
        err = capsys.readouterr().err
        assert "unknown dataset version 9" in err
        assert "available versions: 1, 2" in err

    def test_missing_dataset_exits_2(self, tmp_path, capsys):
        assert main([
            "ingest", "--data", str(tmp_path / "nope"),
            "--months", "2021-10",
        ]) == 2
        assert capsys.readouterr().err


class TestIngestAdjacentConventions:
    def test_generate_accepts_data_as_an_out_alias(self):
        args = _build_parser().parse_args(["generate", "--data", "somewhere"])
        assert args.out == "somewhere"

    def test_convert_accepts_flag_form(self, dataset_dir, tmp_path, capsys):
        dst = tmp_path / "col"
        assert main([
            "convert", "--data", str(dataset_dir), "--out", str(dst),
        ]) == 0
        assert (dst / "manifest.bin").is_file()
        assert "converted" in capsys.readouterr().out

    def test_convert_without_source_exits_2(self, capsys):
        assert main(["convert"]) == 2
        assert "--data SRC --out DST" in capsys.readouterr().err

    def test_as_of_flag_everywhere(self):
        for command in (
            ["analyze", "--data", "d", "--analysis", "concentration"],
            ["report", "--data", "d", "--out", "o"],
            ["serve", "--data", "d"],
        ):
            args = _build_parser().parse_args(command + ["--as-of", "3"])
            assert args.as_of == 3

    def test_store_flag_names_the_artifact_store(self):
        for command in (
            ["report", "--data", "d", "--out", "o"],
            ["serve", "--data", "d"],
        ):
            args = _build_parser().parse_args(command + ["--store", "s"])
            assert args.store == "s" and not args.no_store
