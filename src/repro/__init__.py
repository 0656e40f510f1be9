"""repro — reproduction of "A World Wide View of Browsing the World Wide Web".

The package is organised as:

* :mod:`repro.core` — data model (ranked lists, traffic curves, dataset);
* :mod:`repro.world` — static ground truth (countries, taxonomy, sites);
* :mod:`repro.synth` — the synthetic Chrome-telemetry substrate;
* :mod:`repro.engine` — plan/execute generation with slice caching;
* :mod:`repro.store` — columnar binary dataset layout, memory-mapped;
* :mod:`repro.etld` — public-suffix handling and domain merging;
* :mod:`repro.categories` — the simulated categorisation API + validation;
* :mod:`repro.stats` — from-scratch statistics (RBO, AP, Fisher, ...);
* :mod:`repro.analysis` — one module per paper analysis (Sections 4–5);
* :mod:`repro.pipeline` — the analysis DAG + content-addressed artifacts;
* :mod:`repro.service` — the cached QueryService + JSON HTTP API;
* :mod:`repro.report` — ASCII tables/series for benches and examples;
* :mod:`repro.api` — the stable facade re-exported below.

Quickstart (no deep imports needed)::

    import repro

    data = repro.generate(small=True, out="out/feb")   # build + save
    us = repro.load("out/feb").get(
        "US", repro.Platform.WINDOWS, repro.Metric.PAGE_LOADS,
        repro.REFERENCE_MONTH,
    )
    print(us.top(10).sites)

    result = repro.analyze("out/feb", "concentration")  # one DAG task
    repro.report("out/feb", "runs/feb")                 # the whole paper
    repro.serve("out/feb", port=8000)                   # HTTP serving layer
"""

from .core import (
    Breakdown,
    BrowsingDataset,
    Metric,
    Month,
    Platform,
    RankedList,
    REFERENCE_MONTH,
    STUDY_MONTHS,
    TrafficDistribution,
)

# Import the ``repro.report`` submodule before the facade shadows the
# name: loading it here pins ``sys.modules['repro.report']``, so
# ``from repro.report import render_table`` keeps working everywhere
# while the attribute ``repro.report`` is the facade function below.
from . import report as _report_module  # noqa: F401
from .api import analyze, convert, generate, ingest, load, report, serve

__version__ = "1.1.0"

__all__ = [
    "Breakdown",
    "BrowsingDataset",
    "Metric",
    "Month",
    "Platform",
    "REFERENCE_MONTH",
    "RankedList",
    "STUDY_MONTHS",
    "TrafficDistribution",
    "__version__",
    "analyze",
    "convert",
    "generate",
    "ingest",
    "load",
    "report",
    "serve",
]
