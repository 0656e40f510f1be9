"""The per-site coverage walk the membership-mask path reproduces.

:func:`repro.analysis.sampling.country_coverage` as a generator over the
list: each listed site in the study set adds its rank's traffic share,
left to right.  The mask path must return the same float, bit for bit.
"""

from __future__ import annotations

from repro.core import RankedList, TrafficDistribution


def country_coverage_reference(
    study_set: set[str],
    ranked: RankedList,
    distribution: TrafficDistribution,
) -> float:
    if len(ranked) == 0:
        return 0.0
    weights = distribution.weights(len(ranked))
    covered = sum(
        float(weights[i]) for i, site in enumerate(ranked.sites)
        if site in study_set
    )
    total = float(weights.sum())
    return covered / total if total > 0 else 0.0
