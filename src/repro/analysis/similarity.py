"""Country-to-country similarity (Section 5.3.1, 5.3.3 / Figures 10, 12, 18–20).

* Traffic-weighted RBO between every pair of countries' top-10K lists
  (the Figure 10 heatmap and its appendix variants);
* unweighted percent intersection per rank bucket, summarised as the
  cumulative sum of the sorted pairwise values (Figure 12).

Both run through the vectorized kernels in :mod:`repro.stats.kernels`:
the lists are interned to dense id arrays under one shared
:class:`~repro.core.vocab.SiteVocabulary` and every pair is a few
numpy passes instead of a Python rank loop.  Results are bit-identical
to the scalar reference (:func:`repro.stats.rbo.weighted_rbo`,
``RankedList.percent_intersection``).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Mapping

import numpy as np

from ..core.dataset import BrowsingDataset
from ..core.distribution import TrafficDistribution
from ..core.errors import AnalysisError
from ..core.rankedlist import RankedList
from ..core.types import Metric, Month, Platform
from ..core.vocab import SiteVocabulary
from ..stats.kernels import bucket_intersections, pairwise_wrbo


@dataclass(frozen=True)
class SimilarityMatrix:
    """A symmetric country-pair similarity matrix."""

    countries: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.countries)
        if self.values.shape != (n, n):
            raise ValueError("matrix shape must match country count")

    def _index(self, country: str) -> int:
        try:
            return self.countries.index(country)
        except ValueError:
            raise AnalysisError(
                f"unknown country {country!r}; "
                f"valid choices: {', '.join(self.countries)}"
            ) from None

    def pair(self, a: str, b: str) -> float:
        i = self._index(a)
        j = self._index(b)
        return float(self.values[i, j])

    def most_similar_to(self, country: str, k: int = 5) -> list[tuple[str, float]]:
        i = self._index(country)
        order = np.argsort(-self.values[i])
        out = []
        for j in order:
            if j == i:
                continue
            out.append((self.countries[int(j)], float(self.values[i, int(j)])))
            if len(out) == k:
                break
        return out

    def mean_similarity(self, country: str) -> float:
        """Average similarity to all other countries (outliers score low)."""
        i = self._index(country)
        mask = np.ones(len(self.countries), dtype=bool)
        mask[i] = False
        return float(self.values[i, mask].mean())


def weighted_rbo_matrix(
    lists_by_country: Mapping[str, RankedList],
    distribution: TrafficDistribution,
    depth: int = 10_000,
    *,
    vocab: SiteVocabulary | None = None,
) -> SimilarityMatrix:
    """Pairwise traffic-weighted RBO over per-country lists.

    The weight of agreement at depth d is the traffic share of rank d
    (Section 5.3.1's replacement for RBO's geometric weights).  All
    C(n, 2) pairs are batched through
    :func:`repro.stats.kernels.pairwise_wrbo`; pass the dataset's
    shared ``vocab`` to reuse cached id arrays across analyses.
    """
    countries = tuple(sorted(lists_by_country))
    n = len(countries)
    values = np.eye(n)
    max_depth = min(
        depth, min(len(lists_by_country[c]) for c in countries)
    )
    weights = distribution.weights(max_depth)
    if vocab is None:
        vocab = SiteVocabulary()
    ids = [lists_by_country[c].ids(vocab) for c in countries]
    scores = pairwise_wrbo(ids, weights, depth=max_depth)
    for score, (i, j) in zip(scores, combinations(range(n), 2)):
        values[i, j] = values[j, i] = score
    return SimilarityMatrix(countries, values)


def rbo_matrix_for(
    dataset: BrowsingDataset,
    platform: Platform,
    metric: Metric,
    month: Month,
    depth: int = 10_000,
    countries: tuple[str, ...] | None = None,
) -> SimilarityMatrix:
    """Figure 10 (and 18–20): the wRBO matrix for one dataset slice."""
    lists = dataset.select(platform, metric, month, countries)
    if len(lists) < 2:
        raise ValueError("need at least two countries")
    return weighted_rbo_matrix(
        lists, dataset.distribution(platform, metric), depth,
        vocab=dataset.vocabulary(),
    )


@dataclass(frozen=True)
class IntersectionCurve:
    """Figure 12: sorted pairwise intersections, cumulatively summed."""

    bucket: int
    sorted_values: np.ndarray        # descending pairwise % intersections
    cumulative: np.ndarray

    @property
    def n_pairs(self) -> int:
        return len(self.sorted_values)

    @property
    def mean_intersection(self) -> float:
        return float(self.sorted_values.mean())


def _curves_from_counts(
    counts: np.ndarray,
    lengths: list[int],
    buckets: tuple[int, ...],
) -> list[IntersectionCurve]:
    """Percent-intersection curves from raw pairwise counts.

    The denominator matches ``percent_intersection`` on the truncated
    lists: ``min(bucket, len_a, len_b)`` (0 pairs score 0.0).
    """
    n = len(lengths)
    pair_mins = np.array(
        [min(lengths[i], lengths[j]) for i, j in combinations(range(n), 2)],
        dtype=np.int64,
    )
    curves = []
    for column, bucket in enumerate(buckets):
        denoms = np.minimum(pair_mins, bucket)
        values = np.where(denoms > 0, counts[:, column] / np.maximum(denoms, 1), 0.0)
        ordered = np.sort(values)[::-1]
        curves.append(IntersectionCurve(bucket, ordered, np.cumsum(ordered)))
    return curves


def pairwise_intersections(
    lists_by_country: Mapping[str, RankedList],
    bucket: int,
    *,
    vocab: SiteVocabulary | None = None,
) -> IntersectionCurve:
    """Unweighted percent intersection for every country pair at one bucket."""
    return intersection_curves_for_lists(
        lists_by_country, buckets=(bucket,), vocab=vocab
    )[0]


def intersection_curves_for_lists(
    lists_by_country: Mapping[str, RankedList],
    buckets: tuple[int, ...],
    *,
    vocab: SiteVocabulary | None = None,
) -> list[IntersectionCurve]:
    """All pairs × all rank buckets from one kernel pass per pair."""
    countries = sorted(lists_by_country)
    if vocab is None:
        vocab = SiteVocabulary()
    ids = [lists_by_country[c].ids(vocab) for c in countries]
    lengths = [len(lists_by_country[c]) for c in countries]
    counts = bucket_intersections(ids, buckets)
    return _curves_from_counts(counts, lengths, tuple(buckets))


def intersection_curves(
    dataset: BrowsingDataset,
    platform: Platform,
    metric: Metric,
    month: Month,
    buckets: tuple[int, ...] = (10, 100, 1_000, 10_000),
    countries: tuple[str, ...] | None = None,
) -> list[IntersectionCurve]:
    """Figure 12's family of curves across rank buckets."""
    lists = dataset.select(platform, metric, month, countries)
    if len(lists) < 2:
        raise ValueError("need at least two countries")
    return intersection_curves_for_lists(
        lists, tuple(buckets), vocab=dataset.vocabulary(),
    )
