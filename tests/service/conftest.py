"""Serving-layer fixtures: one small two-country dataset + service.

``/v1/metrics`` renders the process-wide span aggregate, which every
test of the run adds to, so a test reads what its own requests
moved (:func:`moved`), never totals.
"""

from __future__ import annotations

import pytest

from repro.core import Metric, Platform, REFERENCE_MONTH
from repro.service import QueryService


def moved(before: dict, after: dict) -> dict:
    """``after - before`` for every number of a (nested) ``/v1/metrics``
    body, keeping only what moved."""
    out: dict = {}
    for key, value in after.items():
        old = before.get(key)
        if isinstance(value, dict):
            inner = moved(old if isinstance(old, dict) else {}, value)
            if inner:
                out[key] = inner
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            if value != (old or 0):
                out[key] = value - (old or 0)
    return out


@pytest.fixture(scope="module")
def service_dataset(generator):
    """US + KR, both platforms and metrics, the reference month."""
    return generator.generate(
        countries=("US", "KR"),
        platforms=Platform.studied(),
        metrics=Metric.studied(),
        months=(REFERENCE_MONTH,),
    )


@pytest.fixture()
def service(service_dataset, generator, tmp_path) -> QueryService:
    """A fresh service per test: clean cache and artifact store."""
    return QueryService(
        service_dataset,
        store=tmp_path / "artifacts",
        config=generator.config,
    )
