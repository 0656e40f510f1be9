"""Batched grid generation must be byte-identical to the per-slice oracle.

The batched scorer (:meth:`TelemetryGenerator.rank_lists_batch`) shares
every component of the score sum across the slices of a country's grid;
its contract is that sharing is *invisible* — each emitted list matches
the per-slice scorer in :mod:`tests.oracles.scorer` byte for byte,
through every route a slice can take: direct calls, :meth:`rank_list`,
an engine run, a columnar save and load, and an incremental ingest
append.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import Breakdown, Metric, Month, Platform, RankedList, STUDY_MONTHS
from repro.core.errors import GenerationError
from repro.engine import GenerationEngine, SlicePlan
from repro.export.io import load_dataset, save_dataset
from repro.store import ingest_months
from repro.synth import GeneratorConfig, TelemetryGenerator
from tests.oracles.scorer import execute_reference, rank_list_reference

#: December 2021 sits inside the study months, so every full-grid case
#: below exercises the seasonal transient (category multipliers + extra
#: mixture) and the metric_churn boundary on both platforms.
assert Month(2021, 12) in STUDY_MONTHS

ALL_METRICS = (
    Metric.PAGE_LOADS,
    Metric.TIME_ON_PAGE,
    Metric.INITIATED_PAGE_LOADS,
)


def _blob(ranked) -> bytes:
    return ("\n".join(ranked.sites) + "\n").encode("utf-8")


def _emitted(gen, breakdown, uids) -> RankedList:
    """A batched slice — its universe uids — as the names it emits."""
    assert uids.dtype == np.int32
    return RankedList(gen.site_names(gen.emitted_sites(breakdown.country, uids)).tolist())


def _full_grid(country: str) -> tuple[Breakdown, ...]:
    return tuple(
        Breakdown(country, platform, metric, month)
        for platform in Platform.studied()
        for metric in ALL_METRICS
        for month in STUDY_MONTHS
    )


class TestGeneratorParity:
    def test_full_grid_byte_identical(self, generator):
        """Batched == per-slice over platforms × all metrics × all months."""
        for country in ("US", "KR", "NG"):
            grid = _full_grid(country)
            batched = generator.rank_lists_batch(country, grid)
            assert tuple(batched) == grid
            for breakdown in grid:
                serial = rank_list_reference(
                    generator, breakdown.country, breakdown.platform,
                    breakdown.metric, breakdown.month,
                )
                assert _blob(serial) == _blob(
                    _emitted(generator, breakdown, batched[breakdown])), breakdown
                single = generator.rank_list(
                    breakdown.country, breakdown.platform,
                    breakdown.metric, breakdown.month,
                )
                assert _blob(single) == _blob(serial), breakdown

    def test_cold_generator_matches_warm_serial(self, generator):
        """A fresh generator batching first (no caches primed by any
        per-slice call) still matches the session generator's oracle."""
        fresh = TelemetryGenerator(GeneratorConfig.small())
        grid = _full_grid("BR")
        batched = fresh.rank_lists_batch("BR", grid)
        for breakdown in grid:
            serial = rank_list_reference(
                generator, "BR", breakdown.platform, breakdown.metric,
                breakdown.month,
            )
            assert _blob(serial) == _blob(
                _emitted(fresh, breakdown, batched[breakdown])), breakdown

    def test_domains_emit_parity(self):
        cfg = GeneratorConfig.small(emit="domains")
        gen = TelemetryGenerator(cfg)
        grid = tuple(
            Breakdown("GB", platform, Metric.PAGE_LOADS, Month(2021, 12))
            for platform in Platform.studied()
        )
        batched = gen.rank_lists_batch("GB", grid)
        for breakdown in grid:
            serial = rank_list_reference(
                gen, "GB", breakdown.platform, breakdown.metric,
                breakdown.month,
            )
            assert _blob(serial) == _blob(_emitted(gen, breakdown, batched[breakdown]))

    def test_pre_origin_month_parity(self, generator):
        breakdown = Breakdown(
            "US", Platform.WINDOWS, Metric.PAGE_LOADS, Month(2021, 7)
        )
        serial = rank_list_reference(
            generator, "US", Platform.WINDOWS, Metric.PAGE_LOADS,
            Month(2021, 7),
        )
        batched = generator.rank_lists_batch("US", (breakdown,))
        assert _blob(serial) == _blob(
            _emitted(generator, breakdown, batched[breakdown]))

    def test_foreign_breakdown_rejected(self, generator):
        foreign = Breakdown(
            "KR", Platform.WINDOWS, Metric.PAGE_LOADS, Month(2022, 2)
        )
        with pytest.raises(GenerationError):
            generator.rank_lists_batch("US", (foreign,))

    def test_unknown_country_rejected(self, generator):
        with pytest.raises(KeyError):
            generator.rank_lists_batch("XX", ())


class TestExecutorParity:
    PLAN = SlicePlan.from_grid(
        countries=("US", "KR", "NG"),
        platforms=Platform.studied(),
        metrics=Metric.studied(),
        months=(Month(2021, 7), Month(2021, 12), Month(2022, 2)),
    )

    @pytest.fixture(scope="class")
    def reference(self, generator):
        """The per-slice oracle output — the byte-identity anchor."""
        return execute_reference(generator, self.PLAN)

    def test_serial_batched_matches_reference(self, generator, reference):
        batched = GenerationEngine(
            generator.config, generator=generator
        ).run(self.PLAN)
        assert set(batched) == set(reference)
        for breakdown, ranked in reference.items():
            assert _blob(ranked) == _blob(
                _emitted(generator, breakdown, batched[breakdown])), breakdown


class TestStoreParity:
    def test_columnar_round_trip_preserves_batched_bytes(
        self, generator, tmp_path
    ):
        plan = SlicePlan.from_grid(
            countries=("US", "IN"),
            platforms=(Platform.ANDROID,),
            metrics=Metric.studied(),
            months=(Month(2021, 12),),
        )
        engine = GenerationEngine(generator.config, generator=generator)
        produced = engine.generate_plan(plan)
        save_dataset(produced, tmp_path / "data", format="columnar")
        loaded = load_dataset(tmp_path / "data")
        reference = execute_reference(generator, plan)
        for breakdown in plan.breakdowns():
            assert _blob(produced[breakdown]) == _blob(reference[breakdown])
            assert _blob(loaded[breakdown]) == _blob(reference[breakdown])


class TestIngestParity:
    def test_append_through_batched_path_matches_full_per_slice(
        self, generator, tmp_path
    ):
        """Save two months, ingest a third (which routes through the
        batched engine), and compare every list against a per-slice
        generation of all three months."""
        countries = ("US", "DE")
        base_months = (Month(2021, 11), Month(2021, 12))
        new_month = Month(2022, 1)
        base = generator.generate(
            countries=countries, platforms=(Platform.WINDOWS,),
            metrics=(Metric.PAGE_LOADS,), months=base_months,
        )
        root = tmp_path / "data"
        save_dataset(base, root, format="text")
        report = ingest_months(root, [new_month], config=generator.config)
        assert report.changed

        grown = load_dataset(root)
        full_plan = SlicePlan.from_grid(
            countries=countries, platforms=(Platform.WINDOWS,),
            metrics=(Metric.PAGE_LOADS,),
            months=base_months + (new_month,),
        )
        reference = execute_reference(generator, full_plan)
        for breakdown, ranked in reference.items():
            assert _blob(grown[breakdown]) == _blob(ranked), breakdown
