"""Shared fixtures for the benchmark harness.

Benchmarks run on the *full-scale* universe (~1.1M sites, 10K-site
lists) — the configuration whose noise model is calibrated against the
paper's numbers.  Dataset fixtures are saved datasets: the first session
generates each grid through the generation engine (:mod:`repro.engine`)
and saves it in the columnar codec under ``benchmarks/.datasets/``, one
directory per generator fingerprint and grid; later sessions open the
saved copy memory-mapped.  A directory with no manifest, or whose
recorded fingerprint differs, is regenerated.  Delete the directory to
force regeneration.

Every benchmark prints a ``paper vs measured`` table; run with ``-s`` to
see them, e.g.::

    pytest benchmarks/ --benchmark-only -s
"""

from __future__ import annotations

import hashlib
import shutil
from pathlib import Path

import pytest

from repro.core import Metric, Platform, REFERENCE_MONTH, STUDY_MONTHS
from repro.engine import GenerationEngine, SlicePlan
from repro.export.io import (
    breakdown_slug,
    detect_format,
    load_dataset,
    save_dataset,
)
from repro.synth import GeneratorConfig, TelemetryGenerator

#: Country subset used by the month-sweep benchmarks (generating all 45
#: countries × 6 months × metrics would dominate wall-clock without
#: changing the medians much).
TEMPORAL_COUNTRIES = (
    "US", "BR", "JP", "FR", "NG", "KR", "IN", "MX", "DE", "AU",
    "EG", "TH", "PL", "CL", "ZA", "TW",
)

#: Saved fixture datasets shared by all benchmark sessions (git-ignored).
DATASET_DIR = Path(__file__).resolve().parent / ".datasets"


def saved_dataset(engine: GenerationEngine, plan: SlicePlan):
    """``plan``'s dataset, generated and saved on first use, then loaded.

    The directory is named by the generator fingerprint and a digest of
    the grid, so editing generator knobs or a fixture's grid starts a
    new directory instead of serving stale lists.
    """
    grid = "\n".join(map(breakdown_slug, plan.breakdowns()))
    digest = hashlib.sha256(grid.encode("utf-8")).hexdigest()[:12]
    root = DATASET_DIR / f"{engine.fingerprint}-{digest}"
    if detect_format(root) == "columnar":
        dataset = load_dataset(root)
        if dataset.metadata.get("fingerprint") == engine.fingerprint:
            return dataset
    shutil.rmtree(root, ignore_errors=True)
    save_dataset(engine.generate_plan(plan), root, format="columnar")
    return load_dataset(root)


@pytest.fixture(scope="session")
def engine() -> GenerationEngine:
    return GenerationEngine(GeneratorConfig())


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
    return saved_dataset(engine, SlicePlan.from_grid(
        platforms=Platform.studied(),
        metrics=Metric.studied(),
        months=(REFERENCE_MONTH,),
    ))


@pytest.fixture(scope="session")
def monthly_dataset(engine):
    """Windows over the six study months, both metrics, country subset."""
    return saved_dataset(engine, SlicePlan.from_grid(
        countries=TEMPORAL_COUNTRIES,
        platforms=(Platform.WINDOWS,),
        metrics=Metric.studied(),
        months=STUDY_MONTHS,
    ))
