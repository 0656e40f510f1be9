"""The per-curve endemicity scorer the rank-matrix path reproduces.

Section 5.1 as a loop over sites: the eligible population is a set of
names, each site's curve is its sorted per-country ``rank_or`` vector,
and every quantity is computed curve by curve — ``np.log10`` for the
score, ``math.log10`` for the bound and the shape's spread.
:func:`repro.analysis.score_endemicity` must match it bit for bit in
site order, scores, relative distances, global mask and shapes.
"""

from __future__ import annotations

import math
from typing import Mapping, NamedTuple

import numpy as np

from repro.analysis.endemicity import MISSING_RANK
from repro.core import RankedList
from repro.stats.outliers import mad_outliers


class ReferenceEndemicity(NamedTuple):
    sites: list[str]
    scores: np.ndarray
    distances: np.ndarray
    global_mask: np.ndarray
    shapes: list[str]


def curve_score(ranks: tuple[int, ...]) -> float:
    logs = np.log10(np.asarray(ranks, dtype=float))
    return float(np.sum(logs - logs[0]))


def curve_relative_distance(ranks: tuple[int, ...]) -> float:
    bound = (len(ranks) - 1) * (math.log10(MISSING_RANK) - math.log10(ranks[0]))
    if bound <= 0.0:
        return 0.0
    return (bound - curve_score(ranks)) / bound


def curve_shape(ranks: tuple[int, ...]) -> str:
    n = len(ranks)
    present = sum(1 for r in ranks if r < MISSING_RANK)
    logs = [math.log10(r) for r in ranks if r < MISSING_RANK]
    spread = (logs[-1] - logs[0]) if logs else 0.0
    if present <= 1:
        return "single-country"
    if present >= n:
        return "global-flat" if spread <= 1.0 else "global-slope"
    if present >= 0.8 * n:
        return "mostly-global"
    strong = sum(1 for r in ranks if r <= 1_000)
    if strong >= 2 and strong >= 0.6 * present:
        return "multi-regional"
    return "scattered-tail"


def score_endemicity_reference(
    lists_by_country: Mapping[str, RankedList],
    eligible_rank: int = 1_000,
    mad_threshold: float = 3.5,
) -> ReferenceEndemicity:
    countries = sorted(lists_by_country)
    eligible: set[str] = set()
    for country in countries:
        eligible.update(lists_by_country[country].top(eligible_rank).sites)
    sites = sorted(eligible)
    curves = [
        tuple(sorted(lists_by_country[c].rank_or(site, MISSING_RANK)
                     for c in countries))
        for site in sites
    ]
    distances = np.array([curve_relative_distance(c) for c in curves])
    outliers = mad_outliers(distances, threshold=mad_threshold, side="upper")
    return ReferenceEndemicity(
        sites=sites,
        scores=np.array([curve_score(c) for c in curves]),
        distances=distances,
        global_mask=outliers.mask,
        shapes=[curve_shape(c) for c in curves],
    )
