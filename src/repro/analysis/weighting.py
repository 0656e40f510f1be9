"""Shared traffic-weighting helpers.

Several analyses "model the percent of page loads and time on page per
category by computing a weighted count of sites per category with our
traffic distribution data from Section 4.1" — i.e. the site at rank r
contributes the traffic share of rank r rather than 1.  These helpers
implement that weighted counting over ranked lists.

They count on ids: a list's top-N becomes ``codes[ids[:n]]`` under
:class:`CategoryCodes` and its per-category counts or volumes one
``np.bincount`` — bitwise the per-site dict walk it replaced
(``tests/oracles/weighting.py``), key order included.
"""

from __future__ import annotations

import threading
from collections import Counter
from itertools import repeat
from typing import Iterable, Mapping, Union

import numpy as np

from ..core.distribution import TrafficDistribution
from ..core.rankedlist import RankedList
from ..core.vocab import SiteVocabulary

UNKNOWN = "Unknown"


class CategoryCodes:
    """A labels mapping as one category code per site id of ``vocab``
    (code 0 is :data:`UNKNOWN`), built once and reused for every list.

    The code column extends when the vocabulary grows, as a private
    one does when its lists are first interned.
    """

    __slots__ = ("vocab", "labels", "categories", "_code", "_column", "_lock")

    def __init__(self, labels: Mapping[str, str], vocab: SiteVocabulary) -> None:
        self.vocab = vocab
        self.categories: tuple[str, ...] = tuple(dict.fromkeys((UNKNOWN, *labels.values())))
        self._code = dict(zip(self.categories, range(len(self.categories))))
        self.labels = labels
        # Narrow codes make the first-appearance sort a radix sort.
        dtype = np.int16 if len(self.categories) < 2**15 else np.intp
        self._column = np.zeros(0, dtype=dtype)
        self._lock = threading.Lock()

    @classmethod
    def of(cls, labels: "Labels", vocab: SiteVocabulary | None = None) -> "CategoryCodes":
        """``labels`` itself if already coded, else coded over ``vocab``
        (a private vocabulary when none is given)."""
        if isinstance(labels, CategoryCodes):
            return labels
        return cls(labels, SiteVocabulary() if vocab is None else vocab)

    def code(self, category: str) -> int:
        """The code of ``category``; -1 if no site carries it."""
        return self._code.get(category, -1)

    def column(self) -> np.ndarray:
        """The code of every id the vocabulary holds now."""
        column = self._column
        if len(column) < len(self.vocab):
            with self._lock:
                column = self._column
                names = self.vocab.names(len(column))
                column = np.concatenate((column, np.fromiter(
                    map(self._code.__getitem__, map(self.labels.get, names, repeat(UNKNOWN))),
                    dtype=column.dtype, count=len(names),
                )))
                self._column = column
        return column

    def codes(self, ranked: RankedList, top_n: int | None = None) -> np.ndarray:
        """The category codes of ``ranked``'s top-N sites, in rank order."""
        ids = ranked.ids(self.vocab)
        if top_n is not None:
            if top_n < 0:
                raise ValueError("n must be non-negative")
            ids = ids[:top_n]
        return self.column()[ids]

    def tally(
        self,
        ranked: RankedList,
        top_n: int | None = None,
        distribution: TrafficDistribution | None = None,
    ) -> dict:
        """Sites per category over the top-N of ``ranked`` — or, with a
        ``distribution``, the sum of their rank weights — keyed in order
        of first appearance (the order a per-site walk inserts them)."""
        codes = self.codes(ranked, top_n)
        weights = (distribution.weights(len(codes))
                   if distribution is not None and len(codes) else None)
        totals = np.bincount(codes, weights, minlength=len(self.categories)).tolist()
        present, first = np.unique(codes, return_index=True)
        return {self.categories[c]: totals[c]
                for c in present[np.argsort(first)].tolist()}


#: What the helpers accept as labels: a site -> category mapping, or
#: that mapping already coded over the lists' vocabulary.
Labels = Union[Mapping[str, str], CategoryCodes]


def count_by_category(
    ranked: RankedList,
    labels: Labels,
    top_n: int | None = None,
) -> dict[str, int]:
    """Plain site counts per category over the top-N of a list."""
    return CategoryCodes.of(labels).tally(ranked, top_n)


def _shares(counts: Mapping[str, int]) -> dict[str, float]:
    total = sum(counts.values())
    return {c: n / total for c, n in counts.items()} if total else {}


def category_shares(
    sites: Iterable[str], labels: Mapping[str, str]
) -> dict[str, float]:
    """Fraction of ``sites`` per category (sums to 1; empty for no sites)."""
    return _shares(Counter(map(labels.get, sites, repeat(UNKNOWN))))


def share_by_category(
    ranked: RankedList,
    labels: Labels,
    top_n: int | None = None,
) -> dict[str, float]:
    """Fraction of top-N *domains* per category (sums to 1)."""
    return _shares(count_by_category(ranked, labels, top_n))


def weighted_volume_by_category(
    ranked: RankedList,
    labels: Labels,
    distribution: TrafficDistribution,
    top_n: int | None = None,
    normalize: bool = True,
) -> dict[str, float]:
    """Traffic-weighted category volumes over the top-N of a list.

    The site at rank r contributes ``distribution.share_of_rank(r)``.
    With ``normalize=True`` the result is the share of *modelled top-N
    traffic* per category (sums to 1); otherwise it is the share of all
    traffic (sums to the distribution's cumulative share at N).
    """
    volumes = CategoryCodes.of(labels).tally(ranked, top_n, distribution)
    if normalize:
        total = sum(volumes.values())
        if total > 0:
            volumes = {c: v / total for c, v in volumes.items()}
    return volumes


def per_site_share(
    ranked: RankedList,
    distribution: TrafficDistribution,
    top_n: int | None = None,
) -> dict[str, float]:
    """Estimated traffic share per individual site (rank → curve weight)."""
    sites = ranked.sites if top_n is None else ranked.top(top_n).sites
    weights = distribution.weights(len(sites)) if sites else np.empty(0)
    return {site: float(weights[i]) for i, site in enumerate(sites)}


def average_over_countries(
    per_country: Mapping[str, Mapping[str, float]],
    categories: tuple[str, ...] | None = None,
) -> dict[str, float]:
    """Mean per-category value across countries (the paper's global view).

    Countries missing a category contribute 0 for it, so the averages
    are comparable across categories.
    """
    if not per_country:
        return {}
    if categories is None:
        seen: set[str] = set()
        for mapping in per_country.values():
            seen.update(mapping)
        categories = tuple(sorted(seen))
    n = len(per_country)
    return {
        category: sum(m.get(category, 0.0) for m in per_country.values()) / n
        for category in categories
    }
