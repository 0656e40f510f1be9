"""The per-site running-sum global ranking the bincount path reproduces.

:func:`repro.export.crux.global_ranking` as a dict walk: each site's
score is ``install-base weight × traffic share of its rank`` summed over
the countries in mapping order, and :meth:`RankedList.from_scores` sorts
by descending score with ties by name.  The array path must return the
same list, ties included.
"""

from __future__ import annotations

from typing import Mapping

from repro.core import RankedList, TrafficDistribution
from repro.world.countries import get_country


def global_ranking_reference(
    lists_by_country: Mapping[str, RankedList],
    distribution: TrafficDistribution,
) -> RankedList:
    scores: dict[str, float] = {}
    for country, ranked in lists_by_country.items():
        weight = get_country(country).web_scale
        shares = distribution.weights(len(ranked))
        for position, site in enumerate(ranked.sites):
            scores[site] = scores.get(site, 0.0) + weight * float(shares[position])
    return RankedList.from_scores(scores)
