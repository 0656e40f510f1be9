"""The dataset carries its universe: ``universe.bin`` and its restore.

A save of a generated dataset writes the universe it was scored from
as ``universe.bin``; an ingest restores it from there instead of
building it.  These tests hold that contract under both codecs:

- with no universe build allowed at all, an ingest succeeds and writes
  exactly what an ordinary ingest writes;
- a file that is missing, flipped, truncated or another seed's is never
  used: the ingest builds the universe once, writes the same dataset,
  and rewrites ``universe.bin`` with the right bytes;
- a restored universe is the built one, digest for digest;
- a report over a bad file never builds the universe and never
  crashes: the ground-truth tasks, whose only source of a site's facts
  is the file, skip with their dependents, naming the file and
  ``repro ingest``.
"""

from __future__ import annotations

import contextlib
import shutil
from pathlib import Path

import pytest

from repro.core import Metric, Month, Platform
from repro.engine import engine as engine_module
from repro.export.io import UNIVERSE_FILE, atomic_write, load_dataset, save_dataset
from repro.obs import Tracer, set_tracer
from repro.pipeline import TaskStatus, canonical_json, run_pipeline
from repro.store import ingest_months
from repro.synth import GeneratorConfig, UniverseConfig, universe as universe_module
from repro.synth.universe import load_universe, pack_universe
from tests.pipeline.test_ground_truth import (
    GROUND_TRUTH,
    _dependents,
    no_universe_build,
)
from tests.synth.test_universe import universe_digest

CONFIG = GeneratorConfig.small()
NEW_MONTH = "2021-12"
FORMATS = ["text", "columnar"]


def tree(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


@contextlib.contextmanager
def counted_builds(monkeypatch):
    """Empty every universe/generator memo; count the builds that follow."""
    builds = []
    build = universe_module._build_universe_uncached

    def counted(config):
        builds.append(config)
        return build(config)

    with monkeypatch.context() as patch:
        patch.setattr(universe_module, "_UNIVERSE_CACHE", {})
        patch.setattr(engine_module, "_GENERATORS", {})
        patch.setattr(universe_module, "_build_universe_uncached", counted)
        yield builds


@pytest.fixture(scope="module")
def saved(generator, tmp_path_factory) -> dict[str, Path]:
    """A generated one-month dataset saved under each codec."""
    dataset = generator.generate(
        countries=("US", "KR"), platforms=(Platform.WINDOWS,),
        metrics=(Metric.PAGE_LOADS,), months=(Month(2021, 11),),
    )
    work = tmp_path_factory.mktemp("universe-file")
    return {fmt: save_dataset(dataset, work / fmt, format=fmt) for fmt in FORMATS}


@pytest.fixture(scope="module")
def ingested(saved, tmp_path_factory) -> dict[str, dict[str, bytes]]:
    """Each saved dataset after an ordinary ingest of the next month."""
    work = tmp_path_factory.mktemp("universe-file-ingested")
    out = {}
    for fmt, root in saved.items():
        shutil.copytree(root, work / fmt)
        ingest_months(work / fmt, [NEW_MONTH], config=CONFIG)
        out[fmt] = tree(work / fmt)
    return out


@pytest.fixture(scope="module")
def repacked(generator) -> dict[str, list]:
    """Files with a correct digest that are still not the right one."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(universe_module, "_PACKED_COLUMNS",
                      universe_module._PACKED_COLUMNS[:-1])
        dropped = pack_universe(generator.universe)
    return {
        # Another seed's universe: a valid file, wrong config.
        "other-seed": pack_universe(universe_module._build_universe_uncached(
            UniverseConfig.small(seed=1))),
        # This config's universe with the non_public column left out.
        "dropped-section": dropped,
    }


@pytest.mark.parametrize("fmt", FORMATS)
def test_ingest_restores_without_a_build(fmt, saved, ingested, tmp_path,
                                         monkeypatch):
    root = shutil.copytree(saved[fmt], tmp_path / "ds")
    tracer = Tracer()
    previous = set_tracer(tracer)
    try:
        with no_universe_build(monkeypatch):
            ingest_months(root, [NEW_MONTH], config=CONFIG)
    finally:
        set_tracer(previous)
    assert tree(root) == ingested[fmt]
    [load] = [s for s in tracer.collector.snapshot()
              if s["name"] == "synth.universe_load"]
    assert load["attrs"]["bytes"] == (root / UNIVERSE_FILE).stat().st_size
    assert load["attrs"]["sites"] > 0


def _flip(at: int):
    def damage(path: Path, repacked: dict) -> None:
        data = bytearray(path.read_bytes())
        data[at] ^= 0x01
        path.write_bytes(bytes(data))
    return damage


def _repacked(name: str):
    return lambda path, repacked: atomic_write(path, repacked[name])


DAMAGE = {
    "deleted": lambda path, repacked: path.unlink(),
    "flipped-magic": _flip(0),
    "flipped-length": _flip(44),
    "flipped-header": _flip(100),
    "flipped-body": _flip(-4096),
    "truncated": lambda path, repacked: path.write_bytes(path.read_bytes()[:-8]),
    "empty": lambda path, repacked: path.write_bytes(b""),
    "other-seed": _repacked("other-seed"),
    "dropped-section": _repacked("dropped-section"),
}


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("damage", sorted(DAMAGE))
def test_a_bad_universe_file_is_rebuilt(fmt, damage, saved, ingested,
                                        repacked, tmp_path, monkeypatch):
    root = shutil.copytree(saved[fmt], tmp_path / "ds")
    DAMAGE[damage](root / UNIVERSE_FILE, repacked)
    with counted_builds(monkeypatch) as builds:
        assert load_universe(root / UNIVERSE_FILE, CONFIG.resolved_universe()) is None
        ingest_months(root, [NEW_MONTH], config=CONFIG)
    assert builds == [CONFIG.resolved_universe()]
    # The same dataset, universe.bin rewritten with the right bytes.
    assert tree(root) == ingested[fmt]


def _outcome(run) -> dict[str, tuple[str, str | None]]:
    return {name: (record.status.value,
                   canonical_json(run.results[name]) if name in run.results else None)
            for name, record in run.records.items()}


@pytest.fixture(scope="module")
def intact_runs(saved) -> dict[str, object]:
    """Each saved dataset's report, with its universe file intact."""
    return {fmt: run_pipeline(load_dataset(root), config=CONFIG)
            for fmt, root in saved.items()}


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("damage", sorted(DAMAGE))
def test_a_report_over_a_bad_universe_file_skips_the_site_facts(
        fmt, damage, saved, repacked, intact_runs, tmp_path, monkeypatch):
    root = shutil.copytree(saved[fmt], tmp_path / "ds")
    DAMAGE[damage](root / UNIVERSE_FILE, repacked)
    with counted_builds(monkeypatch) as builds:
        run = run_pipeline(load_dataset(root), config=CONFIG)
    assert builds == []
    assert run.failed == 0
    lost = _dependents(GROUND_TRUTH)
    intact = intact_runs[fmt]
    assert set(GROUND_TRUTH) <= set(intact.results)
    for name, outcome in _outcome(intact).items():
        if name in lost:
            assert run.records[name].status is TaskStatus.SKIPPED, name
        else:
            assert _outcome(run)[name] == outcome, name
    for name in GROUND_TRUTH:
        assert str(root / UNIVERSE_FILE) in run.records[name].error
        assert "repro ingest" in run.records[name].error


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("damage", ["deleted", "empty", "flipped-magic", "other-seed"])
def test_a_process_holding_the_universe_rewrites_a_foreign_file(
        fmt, damage, saved, ingested, repacked, tmp_path, monkeypatch):
    # With the universe memoised, only the file's magic, version and
    # config are checked; a file failing them is still rewritten.
    root = shutil.copytree(saved[fmt], tmp_path / "ds")
    DAMAGE[damage](root / UNIVERSE_FILE, repacked)
    with counted_builds(monkeypatch) as builds:
        universe = universe_module.build_universe(CONFIG.resolved_universe())
        assert load_universe(root / UNIVERSE_FILE, universe.config) is None
        ingest_months(root, [NEW_MONTH], config=CONFIG)
    assert builds == [CONFIG.resolved_universe()]
    assert tree(root) == ingested[fmt]


@pytest.mark.parametrize("seed", [2022, 1])
def test_a_restored_universe_is_the_built_one(seed, tmp_path, monkeypatch):
    config = UniverseConfig.small(seed)
    built = universe_module._build_universe_uncached(config)
    atomic_write(tmp_path / UNIVERSE_FILE, pack_universe(built))
    with counted_builds(monkeypatch) as builds:
        restored = load_universe(tmp_path / UNIVERSE_FILE, config)
        assert load_universe(tmp_path / UNIVERSE_FILE,
                             UniverseConfig.small(seed + 1)) is None
    assert builds == []
    assert universe_digest(restored) == universe_digest(built)
    # The columns are read-only views of the mapped file.
    assert not restored.log_strength.flags.writeable

