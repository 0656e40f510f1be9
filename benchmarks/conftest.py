"""Shared fixtures for the benchmark harness.

Benchmarks run on the *full-scale* universe (~1.1M sites, 10K-site
lists) — the configuration whose noise model is calibrated against the
paper's numbers.  Dataset fixtures route through the generation engine
(:mod:`repro.engine`) with a persistent content-addressed slice cache,
so the full-grid fixtures amortize across sessions: the first session
pays the universe build plus scoring, later sessions read the
cached slices and skip both.  Delete the cache directory (or point
``REPRO_SLICE_CACHE`` elsewhere) to force regeneration.

Every benchmark prints a ``paper vs measured`` table; run with ``-s`` to
see them, e.g.::

    pytest benchmarks/ --benchmark-only -s
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.core import Metric, Platform, REFERENCE_MONTH, STUDY_MONTHS
from repro.engine import GenerationEngine, SliceCache
from repro.synth import GeneratorConfig, TelemetryGenerator

#: Country subset used by the month-sweep benchmarks (generating all 45
#: countries × 6 months × metrics would dominate wall-clock without
#: changing the medians much).
TEMPORAL_COUNTRIES = (
    "US", "BR", "JP", "FR", "NG", "KR", "IN", "MX", "DE", "AU",
    "EG", "TH", "PL", "CL", "ZA", "TW",
)

#: Slice cache shared by all benchmark sessions (content-addressed by
#: config fingerprint, so editing generator knobs never serves stale
#: slices — it just starts a new cache line).
SLICE_CACHE_DIR = os.environ.get("REPRO_SLICE_CACHE") or str(
    Path(__file__).resolve().parent / ".slice_cache"
)


@pytest.fixture(scope="session")
def engine() -> GenerationEngine:
    return GenerationEngine(GeneratorConfig(), cache=SliceCache(SLICE_CACHE_DIR))


@pytest.fixture(scope="session")
def generator(engine) -> TelemetryGenerator:
    """The engine's generator — requesting it triggers the universe build."""
    return engine.generator


@pytest.fixture(scope="session")
def labels(generator) -> dict[str, str]:
    return generator.site_categories()


@pytest.fixture(scope="session")
def feb_dataset(engine):
    """Both platforms and metrics, February 2022, all 45 countries."""
    return engine.generate(
        platforms=Platform.studied(),
        metrics=Metric.studied(),
        months=(REFERENCE_MONTH,),
    )


@pytest.fixture(scope="session")
def monthly_dataset(engine):
    """Windows over the six study months, both metrics, country subset."""
    return engine.generate(
        countries=TEMPORAL_COUNTRIES,
        platforms=(Platform.WINDOWS,),
        metrics=Metric.studied(),
        months=STUDY_MONTHS,
    )
