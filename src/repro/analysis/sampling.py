"""Study-set sampling strategies (Section 6, "Lessons for geo-aware
methodology").

The paper's discussion hypothesises that "taking the global top 1K
together with the top 1K from each country may lead to more
geographically generalizable conclusions than taking simply the global
top 10K".  This module makes that testable: build candidate study sets,
then measure how much of each country's modelled traffic they cover.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from ..core.distribution import TrafficDistribution
from ..core.rankedlist import RankedList
from ..core.vocab import SiteVocabulary
from ..export.crux import global_ranking
from ..stats.descriptive import Quartiles, quartiles


def _top(ranking: RankedList, n: int) -> set[str]:
    if n < 1:
        raise ValueError("n must be positive")
    return set(ranking.top(n).sites)


def global_study_set(
    lists_by_country: Mapping[str, RankedList],
    distribution: TrafficDistribution,
    n: int,
) -> set[str]:
    """The global top-N (the conventional "top million list" design)."""
    return _top(global_ranking(lists_by_country, distribution), n)


def hybrid_study_set(
    lists_by_country: Mapping[str, RankedList],
    distribution: TrafficDistribution,
    global_n: int,
    per_country_n: int,
) -> set[str]:
    """Global top-N ∪ each country's top-M (the paper's recommendation)."""
    out = global_study_set(lists_by_country, distribution, global_n)
    for ranked in lists_by_country.values():
        out.update(ranked.top(per_country_n).sites)
    return out


def country_coverage(
    study_set: set[str],
    ranked: RankedList,
    distribution: TrafficDistribution,
) -> float:
    """Fraction of a country's modelled traffic the study set captures.

    Weighted by the per-rank traffic shares, normalised to the traffic
    modelled by the country's full list — i.e. 1.0 means the study set
    contains every site this country's users meaningfully visit.
    """
    if len(ranked) == 0:
        return 0.0
    weights = distribution.weights(len(ranked))
    listed = np.fromiter(
        map(study_set.__contains__, ranked.sites), bool, len(ranked)
    )
    # The same left-to-right float sum as a per-site walk, bit for bit.
    covered = sum(weights[listed].tolist())
    total = float(weights.sum())
    return covered / total if total > 0 else 0.0


@dataclass(frozen=True)
class CoverageReport:
    """Per-country coverage of one study set."""

    name: str
    size: int
    per_country: dict[str, float]
    stats: Quartiles

    @property
    def minimum(self) -> float:
        return min(self.per_country.values())

    @property
    def worst_countries(self) -> list[str]:
        ordered = sorted(self.per_country, key=self.per_country.get)
        return ordered[:5]


def coverage_report(
    name: str,
    study_set: set[str],
    lists_by_country: Mapping[str, RankedList],
    distribution: TrafficDistribution,
) -> CoverageReport:
    """Evaluate a study set against every country."""
    per_country = {
        country: country_coverage(study_set, ranked, distribution)
        for country, ranked in lists_by_country.items()
    }
    if not per_country:
        raise ValueError("no countries to evaluate")
    return CoverageReport(
        name=name,
        size=len(study_set),
        per_country=per_country,
        stats=quartiles(per_country.values()),
    )


def compare_strategies(
    lists_by_country: Mapping[str, RankedList],
    distribution: TrafficDistribution,
    global_n: int = 10_000,
    hybrid_global_n: int = 1_000,
    hybrid_per_country_n: int = 1_000,
    vocab: SiteVocabulary | None = None,
) -> tuple[CoverageReport, CoverageReport]:
    """(global-only report, hybrid report) for the paper's §6 hypothesis.

    Both study sets come from one global ranking; pass the dataset's
    shared ``vocab`` to reuse its cached id arrays.
    """
    ranking = global_ranking(lists_by_country, distribution, vocab)
    global_set = _top(ranking, global_n)
    hybrid_set = _top(ranking, hybrid_global_n).union(*(
        ranked.top(hybrid_per_country_n).sites
        for ranked in lists_by_country.values()
    ))
    return (
        coverage_report(f"global top-{global_n}", global_set,
                        lists_by_country, distribution),
        coverage_report(
            f"global top-{hybrid_global_n} + per-country top-{hybrid_per_country_n}",
            hybrid_set, lists_by_country, distribution,
        ),
    )
