"""Ground-truth tasks read the universe the dataset carries.

No reader builds the synthetic universe: with the universe and
generator memos emptied and the uncached build made to raise, the cold
report, the delta report after an ingest, an ``as_of=1`` report and the
serving layer's analyses all restore ``universe.bin`` and, through the
dataset's uid column, still produce the artifacts the generator-path
tasks produced (``tests/oracles/ground_truth.py``), under both codecs
and for an ``emit="domains"`` dataset.  A dataset saved before datasets
stored the uid column skips exactly the ground-truth tasks and their
dependents until one ingest writes it.
"""

from __future__ import annotations

import contextlib
import filecmp
import json

import pytest

from repro import api
from repro.core import BrowsingDataset, Month
from repro.engine import GenerationEngine, engine as engine_module
from repro.export.io import load_dataset, save_dataset
from repro.pipeline import TaskStatus, canonical_json, default_registry, run_pipeline
from repro.service import QueryService
from repro.synth import GeneratorConfig, universe as universe_module
from tests.oracles.ground_truth import generator_path_registry

COUNTRIES = ("US", "KR")
MONTHS = (Month(2021, 11), Month(2021, 12))
NEW_MONTH = Month(2022, 1)
PIN = MONTHS[-1]
GROUND_TRUTH = ("labels", "tags", "has_app")


@contextlib.contextmanager
def no_universe_build(monkeypatch):
    """Empty every universe/generator memo and make a build raise."""

    def refuse(config):
        raise AssertionError(f"the universe was built for {config}")

    with monkeypatch.context() as patch:
        patch.setattr(universe_module, "_UNIVERSE_CACHE", {})
        patch.setattr(engine_module, "_GENERATORS", {})
        patch.setattr(universe_module, "_build_universe_uncached", refuse)
        yield


def test_guard_refuses_a_build(monkeypatch):
    with no_universe_build(monkeypatch), pytest.raises(AssertionError):
        engine_module.generator_for(GeneratorConfig.small())


def _results(run) -> dict[str, str]:
    return {name: canonical_json(result) for name, result in run.results.items()}


def _expected(generator, months) -> dict[str, str]:
    """Every artifact the generator-path tasks produce over ``months``."""
    dataset = GenerationEngine(generator.config, generator=generator).generate(
        countries=COUNTRIES, months=months,
    )
    run = run_pipeline(dataset, registry=generator_path_registry(generator),
                       config=generator.config, month=PIN)
    assert run.failed == 0 and run.skipped == 0
    return _results(run)


@pytest.fixture(scope="module")
def expected(generator):
    return {"v1": _expected(generator, MONTHS),
            "v2": _expected(generator, MONTHS + (NEW_MONTH,))}


def _same_tree(a, b) -> bool:
    compared = filecmp.dircmp(a, b)
    return (not compared.left_only and not compared.right_only
            and not compared.diff_files
            and all(_same_tree(a / sub, b / sub) for sub in compared.common_dirs))


@pytest.mark.parametrize("fmt", ["text", "columnar"])
def test_reports_never_build_the_universe(
    fmt, generator, expected, tmp_path, monkeypatch
):
    data, store = tmp_path / "data", tmp_path / "store"
    api.generate(config=generator.config, countries=COUNTRIES, months=MONTHS,
                 out=data, format=fmt)

    with no_universe_build(monkeypatch):
        cold = api.report(data, tmp_path / "cold", store=store, month=PIN)
        assert cold.executed == len(default_registry())
        assert _results(cold) == expected["v1"]

    api.ingest(data, [NEW_MONTH])  # ingest holds the generator

    with no_universe_build(monkeypatch):
        delta = api.report(data, tmp_path / "delta", store=store, month=PIN)
        assert 0 < delta.executed < len(default_registry())
        assert _results(delta) == expected["v2"]
        pinned = api.report(data, tmp_path / "asof1", no_store=True,
                            month=PIN, as_of=1)
        assert _results(pinned) == expected["v1"]
        assert _same_tree(tmp_path / "cold" / "artifacts",
                          tmp_path / "asof1" / "artifacts")

        service = QueryService(load_dataset(data), config=generator.config,
                               month=PIN, root=data)
        for task in ("labels", "composition"):
            for version, key in ((None, "v2"), (1, "v1")):
                payload = service.analysis(task, as_of=version)
                result = json.loads(payload)["result"]
                assert canonical_json(result) == expected[key][task]


def test_domains_emit_labels_canonical_sites_only(tmp_path, monkeypatch):
    config = GeneratorConfig.small(emit="domains")
    domains = engine_module.generator_for(config)
    dataset = domains.generate(countries=COUNTRIES, months=(PIN,))
    run = run_pipeline(dataset, registry=generator_path_registry(domains),
                       config=config)
    want = _results(run)
    for fmt in ("text", "columnar"):
        save_dataset(dataset, tmp_path / fmt, format=fmt)
        with no_universe_build(monkeypatch):
            got = run_pipeline(load_dataset(tmp_path / fmt), config=config)
        assert _results(got) == want
    # google.co.kr is a ccTLD variant: one site with uid -1, no label.
    labels = run.results["labels"]
    uid_of = dict(zip(dataset.site_table().tolist(), dataset.site_uids().tolist()))
    assert uid_of["google.co.kr"] == -1
    assert "google.co.kr" not in labels


def _dependents(names) -> set[str]:
    registry = default_registry()
    out = set(names)
    grew = True
    while grew:
        grew = False
        for task in registry:
            if task.name not in out and out & set(task.deps):
                out.add(task.name)
                grew = True
    return out


@pytest.mark.parametrize("fmt", ["text", "columnar"])
def test_dataset_without_ground_truth_skips_until_ingest(
    fmt, generator, expected, tmp_path, monkeypatch
):
    dataset = generator.generate(countries=COUNTRIES, months=MONTHS)
    # Saved the way datasets were before they carried a uid column.
    bare = BrowsingDataset({b: dataset[b] for b in dataset.breakdowns()},
                           dataset.distributions(), dataset.metadata)
    data = tmp_path / "data"
    save_dataset(bare, data, format=fmt)

    with no_universe_build(monkeypatch):
        run = run_pipeline(load_dataset(data), config=generator.config,
                           month=PIN)
    skipped = {name for name, record in run.records.items()
               if record.status is TaskStatus.SKIPPED}
    assert skipped == _dependents(GROUND_TRUTH)
    assert run.failed == 0
    for name in GROUND_TRUTH:
        assert "ingest" in run.records[name].error

    api.ingest(data, [NEW_MONTH])
    with no_universe_build(monkeypatch):
        backfilled = run_pipeline(load_dataset(data), config=generator.config,
                                  month=PIN)
        assert _results(backfilled) == expected["v2"]
        # The archived version stays as it was saved: no column, no fallback.
        assert load_dataset(data, as_of=1).site_uids() is None
