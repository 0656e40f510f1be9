"""CrUX-style public export: rank-magnitude buckets (Section 3.1).

"Although the data we use for this study is not public, a
coarser-grained version is available publicly through the CrUX dataset
... rank-order magnitude buckets of websites ranked by completed page
loads and aggregated both per-country and globally."

This module produces that public view from a private dataset: each site
is coarsened to the smallest magnitude bucket containing its rank
(1K, 5K, 10K, 50K, ...), per country and globally.  The global ranking
is aggregated from the per-country lists by traffic-weighted scoring,
since no global list exists in the private data either.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from ..core.dataset import BrowsingDataset
from ..core.distribution import TrafficDistribution
from ..core.rankedlist import RankedList
from ..core.types import Metric, Month, Platform
from ..core.vocab import SiteVocabulary
from ..world.countries import get_country

#: CrUX's published rank magnitudes.
CRUX_BUCKETS: tuple[int, ...] = (1_000, 5_000, 10_000, 50_000, 100_000,
                                 500_000, 1_000_000)


def bucket_of(rank: int, buckets: tuple[int, ...] = CRUX_BUCKETS) -> int:
    """The smallest magnitude bucket containing ``rank``."""
    if rank < 1:
        raise ValueError("rank must be >= 1")
    for bucket in buckets:
        if rank <= bucket:
            return bucket
    return buckets[-1]


@dataclass(frozen=True)
class CruxExport:
    """The public view of one (platform, metric, month) slice."""

    platform: Platform
    metric: Metric
    month: Month
    per_country: dict[str, dict[str, int]]   # country -> site -> bucket
    global_buckets: dict[str, int]           # site -> bucket

    def countries(self) -> tuple[str, ...]:
        return tuple(sorted(self.per_country))

    def sites_in_bucket(self, bucket: int, country: str | None = None) -> set[str]:
        """Sites whose coarsened rank is exactly ``bucket``."""
        source = (
            self.global_buckets if country is None else self.per_country[country]
        )
        return {site for site, b in source.items() if b == bucket}


def coarsen_list(
    ranked: RankedList, buckets: tuple[int, ...] = CRUX_BUCKETS
) -> dict[str, int]:
    """site → magnitude bucket for one ranked list."""
    return {
        site: bucket_of(position, buckets)
        for position, site in enumerate(ranked.sites, start=1)
    }


def global_ranking(
    lists_by_country: Mapping[str, RankedList],
    distribution: TrafficDistribution,
    vocab: SiteVocabulary | None = None,
) -> RankedList:
    """Aggregate per-country lists into one global ranking.

    Each site scores the sum over countries of
    ``install-base weight × traffic share of its rank`` — the natural
    model given that only rank lists and the traffic curve exist.  Ties
    rank lexicographically by site.

    The sums run through one ``np.bincount`` over the lists' ids
    concatenated in country order, which adds each site's terms in that
    order, as a per-site running sum would.  A stable sort on the
    negated score leaves ties in id order, so only the runs of equal
    scores are then ordered by name.  Pass the dataset's shared
    ``vocab`` to reuse its cached id arrays.
    """
    if not lists_by_country:
        raise ValueError("no country lists to aggregate")
    if vocab is None:
        vocab = SiteVocabulary()
    ids = np.concatenate([ranked.ids(vocab) for ranked in lists_by_country.values()])
    terms = np.concatenate([
        get_country(country).web_scale * distribution.weights(len(ranked))
        for country, ranked in lists_by_country.items()
    ])
    present, inverse = np.unique(ids, return_inverse=True)
    scores = np.bincount(inverse.ravel(), weights=terms)
    order = np.argsort(-scores, kind="stable")
    names = vocab.names()
    ranked_names = [names[i] for i in present[order].tolist()]
    ordered = scores[order]
    starts = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1])))
    ends = np.append(starts[1:], len(ordered))
    tied = ends - starts > 1
    for start, end in zip(starts[tied].tolist(), ends[tied].tolist()):
        ranked_names[start:end] = sorted(ranked_names[start:end])
    # The names are distinct (one per id) and non-empty (taken from lists).
    return RankedList._trusted(tuple(ranked_names))


def export_crux(
    dataset: BrowsingDataset,
    platform: Platform,
    month: Month,
    metric: Metric = Metric.PAGE_LOADS,
    buckets: tuple[int, ...] = CRUX_BUCKETS,
    countries: tuple[str, ...] | None = None,
) -> CruxExport:
    """Produce the CrUX-style public view of a dataset slice.

    CrUX publishes only the completed-page-loads ranking; requesting
    another metric is allowed (for ablations) but not what the public
    dataset contains.
    """
    lists = dataset.select(platform, metric, month, countries)
    if not lists:
        raise ValueError("dataset slice is empty")
    per_country = {
        country: coarsen_list(ranked, buckets)
        for country, ranked in lists.items()
    }
    ranking = global_ranking(
        lists, dataset.distribution(platform, metric), dataset.vocabulary()
    )
    return CruxExport(
        platform=platform,
        metric=metric,
        month=month,
        per_country=per_country,
        global_buckets=coarsen_list(ranking, buckets),
    )
