"""The per-site string walks the id-native category counting reproduces.

:mod:`repro.analysis.weighting` and :func:`repro.analysis.prevalence_by_rank`
count categories with ``np.bincount`` over a category-code column.
These are the dict walks they replaced: one ``labels.get(site,
"Unknown")`` per listed site, volumes added in rank order, keys in
order of first appearance.  The array paths must return the same
dicts, bit for bit and key order included.
"""

from __future__ import annotations

from collections import Counter
from itertools import repeat
from typing import Mapping

from repro.core import RankedList, TrafficDistribution
from repro.stats.descriptive import quartiles

UNKNOWN = "Unknown"


def _top_sites(ranked: RankedList, top_n: int | None) -> tuple[str, ...]:
    return ranked.sites if top_n is None else ranked.top(top_n).sites


def count_by_category_reference(
    ranked: RankedList, labels: Mapping[str, str], top_n: int | None = None,
) -> dict[str, int]:
    return dict(Counter(map(labels.get, _top_sites(ranked, top_n), repeat(UNKNOWN))))


def share_by_category_reference(
    ranked: RankedList, labels: Mapping[str, str], top_n: int | None = None,
) -> dict[str, float]:
    counts = Counter(map(labels.get, _top_sites(ranked, top_n), repeat(UNKNOWN)))
    total = sum(counts.values())
    return {c: n / total for c, n in counts.items()} if total else {}


def weighted_volume_by_category_reference(
    ranked: RankedList,
    labels: Mapping[str, str],
    distribution: TrafficDistribution,
    top_n: int | None = None,
    normalize: bool = True,
) -> dict[str, float]:
    sites = _top_sites(ranked, top_n)
    if not sites:
        return {}
    weights = distribution.weights(len(sites))
    volumes: dict[str, float] = {}
    for position, category in enumerate(map(labels.get, sites, repeat(UNKNOWN))):
        volumes[category] = volumes.get(category, 0.0) + float(weights[position])
    if normalize:
        total = sum(volumes.values())
        if total > 0:
            volumes = {c: v / total for c, v in volumes.items()}
    return volumes


def prevalence_samples_reference(
    lists: Mapping[str, RankedList],
    labels: Mapping[str, str],
    categories: tuple[str, ...],
    thresholds: tuple[int, ...],
) -> dict[str, dict[int, list[float]]]:
    """Per category and threshold, the per-country shares of the
    prevalence walk (a running count per category along each list)."""
    swept = tuple(sorted(set(thresholds)))
    samples: dict[str, dict[int, list[float]]] = {
        c: {t: [] for t in swept} for c in categories
    }
    for ranked in lists.values():
        running: dict[str, int] = {}
        sweep_iter = iter(swept)
        next_threshold = next(sweep_iter, None)
        for position, site in enumerate(ranked.sites, start=1):
            category = labels.get(site, UNKNOWN)
            running[category] = running.get(category, 0) + 1
            while next_threshold is not None and position == next_threshold:
                for c in categories:
                    samples[c][next_threshold].append(
                        running.get(c, 0) / next_threshold
                    )
                next_threshold = next(sweep_iter, None)
            if next_threshold is None:
                break
        length = len(ranked)
        for t in swept:
            if t > length:
                for c in categories:
                    samples[c][t].append(running.get(c, 0) / max(length, 1))
    return samples


def prevalence_points_reference(samples, category):
    """``(threshold, Quartiles)`` for every swept threshold with samples."""
    return [(t, quartiles(values))
            for t, values in samples[category].items() if values]
