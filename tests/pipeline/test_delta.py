"""Delta invalidation: one ingested month re-executes only what it must.

The tentpole guarantee of incremental ingestion, asserted by executed-
task counts: with the reference month pinned, tasks that read a single
month keep their warm artifacts across an ingest, tasks declared
``reads="all-months"`` re-execute (their month set changed), and their
dependents re-execute only when the dependency's *result* actually
changed (Merkle-style early cutoff through result digests).
"""

from __future__ import annotations

import pytest

from repro import api
from repro.core import Metric, Month, Platform
from repro.export.io import load_dataset, save_dataset
from repro.pipeline import TaskStatus, run_pipeline
from repro.store import ingest_months
from repro.synth import GeneratorConfig

COUNTRIES = ("US", "DE", "IN", "BR", "JP", "FR")
MONTHS = (Month(2021, 9), Month(2021, 10), Month(2021, 11))
NEW_MONTH = Month(2021, 12)
PIN = MONTHS[-1]
CONFIG = GeneratorConfig.small()

#: Tasks that fold the dataset's month set into their cache key.
ALL_MONTHS_READERS = {"labels", "tags", "has_app", "temporal"}


@pytest.fixture(scope="module")
def delta(generator, tmp_path_factory):
    """Cold run -> ingest one month -> warm run, sharing one store."""
    tmp = tmp_path_factory.mktemp("delta")
    root = tmp / "data"
    store = tmp / "store"
    dataset = generator.generate(
        countries=COUNTRIES, platforms=Platform.studied(),
        metrics=Metric.studied(), months=MONTHS,
    )
    save_dataset(dataset, root, format="columnar")

    cold = run_pipeline(
        load_dataset(root), store=store, config=CONFIG, month=PIN
    )
    ingest_months(root, [NEW_MONTH], config=CONFIG)
    warm = run_pipeline(
        load_dataset(root), store=store, config=CONFIG, month=PIN
    )
    again = run_pipeline(
        load_dataset(root), store=store, config=CONFIG, month=PIN
    )
    return cold, warm, again


class TestDeltaInvalidation:
    def test_cold_run_executes_everything(self, delta):
        cold, _, _ = delta
        assert cold.ok
        assert cold.cached == 0
        assert cold.executed == len(cold.records)

    def test_ingest_reexecutes_only_month_touching_tasks(self, delta):
        cold, warm, _ = delta
        assert warm.ok
        reran = {
            name for name, record in warm.records.items()
            if record.status is TaskStatus.OK
        }
        cached = {
            name for name, record in warm.records.items()
            if record.status is TaskStatus.CACHED
        }
        # Every all-months reader saw its month set change.
        assert ALL_MONTHS_READERS <= reran
        # The delta is a strict subset: warm artifacts survived.
        assert warm.executed < cold.executed
        assert warm.executed + warm.cached == cold.executed
        # Month-pinned tasks with no invalidated dependency stay warm.
        for name in ("concentration", "similarity", "south_patterns"):
            assert name in cached, name

    def test_dependents_rerun_only_on_changed_digests(self, delta):
        _, warm, _ = delta
        reran = {
            name for name, record in warm.records.items()
            if record.status is TaskStatus.OK
        }
        # labels grew with the new month's sites, so its direct
        # consumers re-ran ...
        assert {"composition", "prevalence", "top10"} <= reran
        # ... but south_patterns depends on tags, whose *result* was
        # unchanged by the new month — early cutoff keeps it cached.
        assert warm.records["south_patterns"].status is TaskStatus.CACHED

    def test_rerun_without_changes_is_fully_cached(self, delta):
        _, warm, again = delta
        assert again.ok
        assert again.executed == 0
        assert again.cached == len(again.records)
        assert again.results == warm.results


def _tree(root):
    return {
        path.relative_to(root).as_posix(): path.read_bytes()
        for path in sorted(root.rglob("*")) if path.is_file()
    }


@pytest.mark.parametrize("fmt", ["text", "columnar"])
def test_delta_report_artifacts_equal_a_cold_report(fmt, generator, tmp_path):
    # A delta report after a one-month ingest serves warm artifacts for
    # every task the month left alone; its artifacts/ must be byte for
    # byte what a cold report over the grown dataset writes.
    root = tmp_path / "data"
    save_dataset(generator.generate(
        countries=COUNTRIES, platforms=Platform.studied(),
        metrics=Metric.studied(), months=MONTHS,
    ), root, format=fmt)
    api.report(root, tmp_path / "before", config=CONFIG, month=PIN)
    ingest_months(root, [NEW_MONTH], config=CONFIG)
    delta = api.report(root, tmp_path / "delta", config=CONFIG, month=PIN)
    cold = api.report(root, tmp_path / "cold", config=CONFIG, month=PIN,
                      no_store=True)
    assert 0 < delta.executed < cold.executed and delta.cached > 0
    artifacts = _tree(tmp_path / "cold" / "artifacts")
    assert artifacts
    assert _tree(tmp_path / "delta" / "artifacts") == artifacts
