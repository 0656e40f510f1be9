"""Vectorized rank-list kernels: exact numpy forms of the pairwise hot paths.

Every heavy pairwise analysis in the paper — the traffic-weighted RBO
matrix over all C(45,2) country pairs (Figure 10), the bucketed
pairwise intersections (Figure 12), the temporal/metric overlap sweeps
(Sections 4.4–4.5) and the endemicity rank matrix (Section 5.1) — is a
set/rank computation over 10K-site ranked lists.  The scalar
implementations (:mod:`repro.stats.rbo`, ``RankedList.rank_pairs``,
``RankedList.percent_intersection``) are kept as the *reference*; this
module computes the same numbers from dense id arrays
(:meth:`repro.core.rankedlist.RankedList.ids` under a shared
:class:`repro.core.vocab.SiteVocabulary`) in a handful of numpy passes.

The key identity (Webber et al.'s RBO admits it directly): a site ``s``
shared by both lists is inside *both* depth-``d`` prefixes iff
``max(rank_a(s), rank_b(s)) <= d``.  So the whole agreement sequence

    A_d = |A_{1:d} ∩ B_{1:d}| / d,   d = 1..k

falls out of one pass: compute the max-rank of every shared site,
histogram those max-ranks (``bincount``), and cumulative-sum — overlap
at depth ``d`` is the number of shared sites whose max-rank is ≤ d.
That replaces the O(k) Python loop with per-element set mutations by
O(k) vectorized work, and the same max-ranks answer *every* bucket of
the intersection curves at once.

Exactness: the kernels produce bit-identical floats to the scalar
reference (integer overlap counts divided by integer depths, then the
same ``np.dot`` over the same contiguous float64 arrays), so artifact
bytes — and therefore warm artifact stores — are unchanged.  Asserted
by the hypothesis parity suite in ``tests/stats/test_kernels.py`` and
the pipeline byte-parity test.

The batched kernels emit ``kernel.*`` obs spans (pair/depth attrs) so
their cost shows up in ``repro trace summarize``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..obs import span as obs_span

__all__ = [
    "agreement_sequence_ids",
    "bucket_intersections",
    "intersection_count_ids",
    "pairwise_wrbo",
    "rank_matrix",
    "rank_pairs_ids",
    "weighted_rbo_ids",
]


def _prefix_depth(ids_a: np.ndarray, ids_b: np.ndarray, depth: int | None) -> int:
    k = min(len(ids_a), len(ids_b))
    if depth is not None:
        if depth < 1:
            raise ValueError("depth must be >= 1")
        k = min(k, depth)
    return k


def _shared_ranks(
    ids_a: np.ndarray, ids_b: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """0-based ranks ``(ranks_a, ranks_b)`` of the sites in both arrays.

    Ordered by rank in ``ids_a``.  O((n+m) log n) via one sort of
    ``ids_b`` plus a ``searchsorted`` — no vocabulary-sized scratch, so
    it suits one-off pairs; the batched kernels below amortize a
    scatter table across a whole row of pairs instead.
    """
    if len(ids_a) == 0 or len(ids_b) == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    order = np.argsort(ids_b)
    sorted_b = ids_b[order]
    idx = np.searchsorted(sorted_b, ids_a)
    idx_clipped = np.minimum(idx, len(sorted_b) - 1)
    found = sorted_b[idx_clipped] == ids_a
    ranks_a = np.flatnonzero(found)
    ranks_b = order[idx_clipped[found]].astype(np.int64, copy=False)
    return ranks_a, ranks_b


def agreement_sequence_ids(
    ids_a: np.ndarray, ids_b: np.ndarray, depth: int | None = None
) -> np.ndarray:
    """A_d = |A_{1:d} ∩ B_{1:d}| / d for d = 1..depth, vectorized.

    Exact equivalent of :func:`repro.stats.rbo.agreement_sequence` on
    the interned forms of the same lists: overlap at depth ``d`` is the
    count of shared sites with ``max(rank_a, rank_b) <= d``, taken from
    one ``bincount`` + ``cumsum`` pass.
    """
    k = _prefix_depth(ids_a, ids_b, depth)
    if k == 0:
        return np.empty(0, dtype=float)
    ranks_a, ranks_b = _shared_ranks(ids_a[:k], ids_b[:k])
    max_ranks = np.maximum(ranks_a, ranks_b)
    overlap = np.cumsum(np.bincount(max_ranks, minlength=k))
    return overlap / np.arange(1, k + 1, dtype=float)


def weighted_rbo_ids(
    ids_a: np.ndarray,
    ids_b: np.ndarray,
    weights: np.ndarray,
    depth: int | None = None,
) -> float:
    """Weighted RBO over id arrays — :func:`repro.stats.rbo.weighted_rbo`
    computed from the vectorized agreement sequence (bit-identical)."""
    agreements = agreement_sequence_ids(ids_a, ids_b, depth)
    k = len(agreements)
    if k == 0:
        return 0.0
    w = np.asarray(weights, dtype=float)
    if len(w) < k:
        raise ValueError(f"need at least {k} weights, got {len(w)}")
    if np.any(w < 0):
        raise ValueError("weights must be non-negative")
    w = w[:k]
    total = w.sum()
    if total <= 0.0:
        raise ValueError("weights sum to zero")
    return float(np.dot(w, agreements) / total)


def intersection_count_ids(
    ids_a: np.ndarray, ids_b: np.ndarray, depth: int | None = None
) -> int:
    """|top-depth(A) ∩ top-depth(B)| without materializing either set."""
    if len(ids_a) == 0 or len(ids_b) == 0:
        return 0
    ka = len(ids_a) if depth is None else min(len(ids_a), depth)
    kb = len(ids_b) if depth is None else min(len(ids_b), depth)
    ranks_a, _ = _shared_ranks(ids_a[:ka], ids_b[:kb])
    return int(len(ranks_a))


def rank_pairs_ids(
    ids_a: np.ndarray, ids_b: np.ndarray, depth: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Paired 1-indexed ranks for the shared sites, for correlation.

    Exact equivalent of ``a.top(depth).rank_pairs(b.top(depth))`` on
    the interned lists: two parallel int64 arrays ``(ranks_in_a,
    ranks_in_b)`` ordered by rank in ``a`` — the Spearman input —
    without constructing either truncated list or its rank dict.
    """
    ka = len(ids_a) if depth is None else min(len(ids_a), depth)
    kb = len(ids_b) if depth is None else min(len(ids_b), depth)
    ranks_a, ranks_b = _shared_ranks(ids_a[:ka], ids_b[:kb])
    return ranks_a + 1, ranks_b + 1


def _n_ids(id_lists: Sequence[np.ndarray]) -> int:
    """Size of the scatter table covering every id in ``id_lists``."""
    top = -1
    for ids in id_lists:
        if len(ids):
            top = max(top, int(ids.max()))
    return top + 1


def _pair_offsets(n: int) -> np.ndarray:
    """Start index of row ``i``'s pairs in ``combinations(range(n), 2)``."""
    i = np.arange(n, dtype=np.int64)
    return i * (n - 1) - (i * (i - 1)) // 2


def pairwise_wrbo(
    id_lists: Sequence[np.ndarray],
    weights: np.ndarray,
    depth: int,
) -> np.ndarray:
    """Weighted RBO for every pair of lists, batched.

    Scores for all C(n, 2) pairs in ``combinations(range(n), 2)``
    order, each computed over the first ``depth`` ids of both lists
    (every list must be at least that long) with the traffic-weight
    vector applied once.  Per row ``i`` a dense rank scatter table is
    built a single time and reused against every ``j > i``.
    Bit-identical to calling :func:`repro.stats.rbo.weighted_rbo` per
    pair.
    """
    n = len(id_lists)
    if depth < 1:
        raise ValueError("depth must be >= 1")
    for ids in id_lists:
        if len(ids) < depth:
            raise ValueError(
                f"every list must have at least depth={depth} ids, got {len(ids)}"
            )
    prefixes = [np.asarray(ids[:depth]) for ids in id_lists]
    w = np.asarray(weights, dtype=float)
    if len(w) < depth:
        raise ValueError(f"need at least {depth} weights, got {len(w)}")
    if np.any(w < 0):
        raise ValueError("weights must be non-negative")
    w = w[:depth]
    total = w.sum()
    if total <= 0.0:
        raise ValueError("weights sum to zero")

    n_pairs = n * (n - 1) // 2
    scores = np.empty(n_pairs, dtype=float)
    if n_pairs == 0:
        return scores
    table_size = _n_ids(prefixes)
    offsets = _pair_offsets(n)
    depths = np.arange(1, depth + 1, dtype=float)
    positions = np.arange(depth, dtype=np.int32)

    with obs_span("kernel.pairwise_wrbo", pairs=n_pairs, depth=depth):
        for i in range(n - 1):
            # ``depth`` is the missing sentinel: a site of list j absent
            # from list i maxes to exactly ``depth`` (its own 0-based
            # rank is < depth), landing in the one bincount bin past the
            # last depth — no boolean mask or compaction pass needed.
            ranks_i = np.full(table_size, depth, dtype=np.int32)
            ranks_i[prefixes[i]] = positions
            base = offsets[i]
            for j in range(i + 1, n):
                max_ranks = np.maximum(ranks_i[prefixes[j]], positions)
                overlap = np.cumsum(
                    np.bincount(max_ranks, minlength=depth + 1)[:depth])
                agreements = overlap / depths
                scores[base + (j - i - 1)] = np.dot(w, agreements) / total
    return scores


def bucket_intersections(
    id_lists: Sequence[np.ndarray],
    buckets: Sequence[int],
) -> np.ndarray:
    """|top-b(i) ∩ top-b(j)| for every pair and every rank bucket.

    Returns an int64 array of shape ``(n_pairs, n_buckets)`` with pairs
    in ``combinations(range(n), 2)`` order.  All buckets come from one
    pass per pair: the shared sites' max-ranks are sorted once and each
    bucket's count is a ``searchsorted`` into that prefix histogram.
    """
    n = len(id_lists)
    bucket_arr = np.asarray(buckets, dtype=np.int64)
    if bucket_arr.ndim != 1 or len(bucket_arr) == 0:
        raise ValueError("need at least one bucket")
    if np.any(bucket_arr < 0):
        raise ValueError("buckets must be non-negative")
    lists = [np.asarray(ids) for ids in id_lists]
    n_pairs = n * (n - 1) // 2
    counts = np.empty((n_pairs, len(bucket_arr)), dtype=np.int64)
    if n_pairs == 0:
        return counts
    table_size = _n_ids(lists)
    offsets = _pair_offsets(n)

    with obs_span(
        "kernel.bucket_intersections",
        pairs=n_pairs, buckets=len(bucket_arr), max_depth=int(bucket_arr.max()),
    ):
        for i in range(n - 1):
            ranks_i = np.full(table_size, -1, dtype=np.int32)
            ranks_i[lists[i]] = np.arange(len(lists[i]), dtype=np.int32)
            base = offsets[i]
            for j in range(i + 1, n):
                in_i = ranks_i[lists[j]]
                found = in_i >= 0
                # 1-based max-ranks, sorted: count at bucket b = how many <= b.
                max_ranks = np.maximum(in_i[found], np.flatnonzero(found)) + 1
                max_ranks.sort()
                counts[base + (j - i - 1)] = np.searchsorted(
                    max_ranks, bucket_arr, side="right"
                )
    return counts


def rank_matrix(
    id_lists: Sequence[np.ndarray],
    site_ids: np.ndarray,
    *,
    missing: int,
) -> np.ndarray:
    """1-indexed rank of each site in each list, ``missing`` if absent.

    Returns an int32 array of shape ``(len(site_ids), len(id_lists))``
    — the endemicity popularity-curve input — built with one scatter +
    one gather per list instead of a per-site dict probe.
    """
    lists = [np.asarray(ids) for ids in id_lists]
    sites = np.asarray(site_ids)
    out = np.full((len(sites), len(lists)), missing, dtype=np.int32)
    if len(sites) == 0 or not lists:
        return out
    table_size = max(_n_ids(lists), (int(sites.max()) + 1) if len(sites) else 0)
    lookup = np.full(table_size, missing, dtype=np.int32)
    with obs_span(
        "kernel.rank_matrix", sites=len(sites), lists=len(lists),
    ):
        for col, ids in enumerate(lists):
            lookup[ids] = np.arange(1, len(ids) + 1, dtype=np.int32)
            out[:, col] = lookup[sites]
            lookup[ids] = missing
    return out
