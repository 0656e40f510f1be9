"""Tests for the generation engine, and the lazily materialising
columnar dataset its output is saved and read back as."""

import filecmp

import pytest

import repro
import repro.engine.engine as engine_module
import repro.synth.universe as universe_module
from repro.obs import read_trace
from repro.core import Breakdown, Metric, Platform, REFERENCE_MONTH
from repro.engine import GenerationEngine, SlicePlan
from repro.export.io import load_dataset, save_dataset

COUNTRIES = ("US", "KR", "BR")


def _blob(ranked):
    """The exact byte serialisation used by the text export files."""
    return ("\n".join(ranked.sites) + "\n").encode("utf-8")


class TestSerialEngine:
    def test_matches_direct_generator_output(self, generator):
        engine = GenerationEngine(generator.config, generator=generator)
        via_engine = engine.generate(countries=COUNTRIES)
        via_generator = generator.generate(countries=COUNTRIES)
        assert set(via_engine.breakdowns()) == set(via_generator.breakdowns())
        for breakdown in via_engine.breakdowns():
            assert _blob(via_engine[breakdown]) == _blob(via_generator[breakdown])

    def test_metadata_records_fingerprint(self, generator):
        engine = GenerationEngine(generator.config, generator=generator)
        dataset = engine.generate(countries=("US",))
        assert dataset.metadata["fingerprint"] == generator.config.fingerprint()
        assert dataset.metadata["seed"] == generator.config.seed

    def test_rank_list_matches_generator(self, generator):
        engine = GenerationEngine(generator.config, generator=generator)
        breakdown = Breakdown(
            "KR", Platform.ANDROID, Metric.TIME_ON_PAGE, REFERENCE_MONTH
        )
        uids = engine.run(SlicePlan((breakdown,)))[breakdown]
        theirs = generator.rank_list("KR", Platform.ANDROID, Metric.TIME_ON_PAGE)
        assert generator.site_names(uids).tolist() == list(theirs.sites)

    def test_generate_scores_with_its_own_generator(self):
        # A config no other test uses, so no memoised generator exists;
        # the small universe itself is shared with the session fixture.
        from repro.synth import GeneratorConfig, TelemetryGenerator

        gen = TelemetryGenerator(GeneratorConfig.small(list_size=700))
        before = dict(engine_module._GENERATORS)
        dataset = gen.generate(countries=("US", "KR"))
        assert len(dataset) == 8
        assert set(gen._per_country) == {"US", "KR"}
        assert engine_module._GENERATORS == before

    def test_run_returns_plan_order(self, generator):
        engine = GenerationEngine(generator.config, generator=generator)
        plan = SlicePlan.from_grid(countries=("US", "BR"))
        results = engine.run(plan)
        assert tuple(results) == plan.breakdowns()

    def test_cold_traced_generate_builds_the_universe_once(
        self, tmp_path, monkeypatch
    ):
        """A cold traced ``repro.generate`` builds the universe exactly
        once, and writes the same files as a warm rerun."""
        monkeypatch.setattr(universe_module, "_UNIVERSE_CACHE", {})
        monkeypatch.setattr(engine_module, "_GENERATORS", {})
        trace = tmp_path / "trace.jsonl"
        repro.generate(small=True, countries=COUNTRIES,
                       out=tmp_path / "cold", trace=trace)
        builds = [span for span in read_trace(trace)
                  if span["name"] == "synth.universe_build"]
        assert len(builds) == 1
        repro.generate(small=True, countries=COUNTRIES, out=tmp_path / "warm")
        names = sorted(p.relative_to(tmp_path / "warm").as_posix()
                       for p in (tmp_path / "warm").rglob("*") if p.is_file())
        assert names
        match, mismatch, errors = filecmp.cmpfiles(
            tmp_path / "warm", tmp_path / "cold", names, shallow=False
        )
        assert (mismatch, errors) == ([], [])


class TestLazyDataset:
    """A saved columnar dataset reads back lazily: a list is decoded
    only when a value-reading path touches it."""

    @pytest.fixture()
    def lazy(self, generator, tmp_path):
        engine = GenerationEngine(generator.config, generator=generator)
        save_dataset(engine.generate(countries=COUNTRIES), tmp_path / "ds",
                     format="columnar")
        return load_dataset(tmp_path / "ds")

    def test_starts_fully_pending(self, lazy):
        assert lazy.storage == "columnar-mmap"
        assert lazy.pending == len(lazy) == len(COUNTRIES) * 4
        assert len(lazy.countries) == len(COUNTRIES)

    def test_getitem_materialises_one_slice(self, lazy, generator):
        breakdown = Breakdown(
            "US", Platform.WINDOWS, Metric.PAGE_LOADS, REFERENCE_MONTH
        )
        ranked = lazy[breakdown]
        assert lazy.pending == len(lazy) - 1
        assert _blob(ranked) == _blob(
            generator.rank_list("US", Platform.WINDOWS, Metric.PAGE_LOADS)
        )

    def test_select_materialises_only_needed_slices(self, lazy):
        per_country = lazy.select(
            Platform.ANDROID, Metric.TIME_ON_PAGE, REFERENCE_MONTH
        )
        assert set(per_country) == set(COUNTRIES)
        assert lazy.pending == len(lazy) - len(COUNTRIES)

    def test_get_or_none_absent_breakdown(self, lazy):
        assert lazy.get_or_none(
            "US", Platform.IOS, Metric.PAGE_LOADS, REFERENCE_MONTH
        ) is None
        assert lazy.pending == len(lazy)

    def test_equals_eager_dataset_when_materialised(self, lazy, generator):
        eager = generator.generate(countries=COUNTRIES)
        lazy.materialize()
        assert lazy.pending == 0
        for breakdown in eager.breakdowns():
            assert _blob(lazy[breakdown]) == _blob(eager[breakdown])


class TestExecutorRegistry:
    def test_generator_for_memoises_per_fingerprint(self, generator):
        from repro.engine import generator_for

        first = generator_for(generator.config)
        assert generator_for(generator.config) is first
