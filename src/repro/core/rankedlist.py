"""Rank-ordered lists of websites — the dataset's central data structure.

Chrome shared "rank order lists of the top million most popular websites
per month" (Section 3.1).  A :class:`RankedList` is an immutable ordered
sequence of site identifiers, rank 1 being the most popular.  It supports
the primitive operations every analysis in the paper is built from:
truncation to a rank bucket, membership and rank lookup, set intersection
between lists, and rank-pair extraction for correlation measures.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, Sequence

from .errors import RankListError

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

    from .vocab import SiteVocabulary


class RankedList:
    """An immutable ranked list of unique site identifiers.

    Parameters
    ----------
    sites:
        Site identifiers in rank order (index 0 is rank 1).  Identifiers
        must be unique and non-empty.
    """

    __slots__ = ("_sites", "_rank_cache", "_set_cache", "_ids_cache")

    def __init__(self, sites: Iterable[str]) -> None:
        sites_tuple = tuple(sites)
        seen: set[str] = set()
        for position, site in enumerate(sites_tuple, start=1):
            if not site:
                raise RankListError(f"empty site identifier at rank {position}")
            if site in seen:
                raise RankListError(f"duplicate site {site!r} (second at rank {position})")
            seen.add(site)
        self._sites = sites_tuple
        # The site → rank dict is built on first use: a full dataset holds
        # on the order of a thousand 10K-site lists, and most are only
        # ever iterated, not probed.
        self._rank_cache: dict[str, int] | None = None
        self._set_cache: frozenset[str] | None = None
        self._ids_cache: tuple[object, "np.ndarray"] | None = None

    @classmethod
    def _trusted(cls, sites_tuple: tuple[str, ...]) -> "RankedList":
        """Wrap an already-validated site tuple without re-checking it.

        Internal-only: callers must guarantee uniqueness and
        non-emptiness — true for any contiguous subsequence of an
        existing list's sites, which is what :meth:`top`, :meth:`slice`
        and :meth:`filter` produce.  Keeps truncation O(k) copy.
        """
        obj = cls.__new__(cls)
        obj._sites = sites_tuple
        obj._rank_cache = None
        obj._set_cache = None
        obj._ids_cache = None
        return obj

    @property
    def _ranks(self) -> dict[str, int]:
        if self._rank_cache is None:
            self._rank_cache = {
                site: position for position, site in enumerate(self._sites, start=1)
            }
        return self._rank_cache

    @property
    def site_set(self) -> frozenset[str]:
        """The sites as a set — membership without paying for the rank dict."""
        if self._set_cache is None:
            self._set_cache = frozenset(self._sites)
        return self._set_cache

    def ids(self, vocab: "SiteVocabulary") -> "np.ndarray":
        """This list's sites as dense ``int32`` ids under ``vocab``.

        The array is cached per vocabulary (a new vocabulary replaces
        the cache entry) and returned read-only: every kernel in
        :mod:`repro.stats.kernels` consumes these arrays, so repeated
        pairwise analyses over one dataset intern each list exactly
        once.
        """
        cached = self._ids_cache
        if cached is not None and cached[0] is vocab:
            return cached[1]
        arr = vocab.intern_many(self._sites)
        arr.setflags(write=False)
        self._ids_cache = (vocab, arr)
        return arr

    # -- basic container protocol -------------------------------------------------

    def __len__(self) -> int:
        return len(self._sites)

    def __iter__(self) -> Iterator[str]:
        return iter(self._sites)

    def __contains__(self, site: object) -> bool:
        return site in self.site_set

    def __getitem__(self, rank: int) -> str:
        """The site at 1-indexed ``rank``."""
        if not 1 <= rank <= len(self._sites):
            raise IndexError(f"rank {rank} out of range 1..{len(self._sites)}")
        return self._sites[rank - 1]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RankedList):
            return NotImplemented
        return self._sites == other._sites

    def __hash__(self) -> int:
        return hash(self._sites)

    def __repr__(self) -> str:
        preview = ", ".join(self._sites[:3])
        suffix = ", ..." if len(self._sites) > 3 else ""
        return f"RankedList([{preview}{suffix}], n={len(self._sites)})"

    # -- rank queries --------------------------------------------------------------

    @property
    def sites(self) -> tuple[str, ...]:
        """All sites in rank order."""
        return self._sites

    def rank_of(self, site: str) -> int | None:
        """1-indexed rank of ``site``, or ``None`` if absent."""
        return self._ranks.get(site)

    def rank_or(self, site: str, default: int) -> int:
        """1-indexed rank of ``site``, or ``default`` if absent.

        Section 5.1 uses ``len(list) + 1`` (10,001 for a top-10K list) as
        the sentinel rank for sites missing from a country's list.
        """
        return self._ranks.get(site, default)

    # -- derived lists ---------------------------------------------------------------

    def top(self, n: int) -> "RankedList":
        """The top-``n`` prefix (or the whole list if shorter).

        O(k) — a prefix of a validated list needs no re-validation.
        """
        if n < 0:
            raise ValueError("n must be non-negative")
        if n >= len(self._sites):
            return self
        return RankedList._trusted(self._sites[:n])

    def slice(self, first: int, last: int) -> "RankedList":
        """Sites ranked ``first``..``last`` inclusive (1-indexed)."""
        if first < 1 or last < first:
            raise ValueError(f"invalid rank range {first}..{last}")
        return RankedList._trusted(self._sites[first - 1 : last])

    def filter(self, predicate) -> "RankedList":
        """A new list keeping only sites for which ``predicate`` is true.

        Relative order is preserved; ranks are re-assigned densely.
        """
        return RankedList._trusted(tuple(s for s in self._sites if predicate(s)))

    def rename(self, mapping: Mapping[str, str]) -> "RankedList":
        """Apply a site-identifier mapping, merging collisions.

        Used when collapsing ccTLD variants onto a canonical site
        (Section 3.1): when two entries map to the same canonical name the
        *better* (smaller) rank wins and the later entry is dropped.
        """
        seen: set[str] = set()
        merged: list[str] = []
        for site in self._sites:
            canonical = mapping.get(site, site)
            if canonical in seen:
                continue
            seen.add(canonical)
            merged.append(canonical)
        return RankedList(merged)

    # -- comparisons -----------------------------------------------------------------

    def intersection(self, other: "RankedList") -> set[str]:
        """Sites present in both lists.

        Uses the site *sets*, not the site → rank dicts, so lists that
        are only ever intersected never pay for dict construction.
        """
        if len(self._sites) > len(other._sites):
            self, other = other, self
        return set(self.site_set & other.site_set)

    def percent_intersection(self, other: "RankedList") -> float:
        """|A ∩ B| / min(|A|, |B|), in [0, 1].

        The paper reports "percent intersection" between equally sized
        rank buckets; normalising by the smaller list keeps the statistic
        meaningful when privacy thresholding truncates one list.
        """
        denom = min(len(self), len(other))
        if denom == 0:
            return 0.0
        return len(self.intersection(other)) / denom

    def rank_pairs(self, other: "RankedList") -> tuple[list[int], list[int]]:
        """Paired ranks for sites in the intersection, for correlation.

        Returns two parallel lists ``(ranks_in_self, ranks_in_other)``
        ordered by rank in ``self``.
        """
        xs: list[int] = []
        ys: list[int] = []
        for position, site in enumerate(self._sites, start=1):
            other_rank = other._ranks.get(site)
            if other_rank is not None:
                xs.append(position)
                ys.append(other_rank)
        return xs, ys

    @classmethod
    def from_scores(cls, scores: Mapping[str, float] | Sequence[tuple[str, float]]) -> "RankedList":
        """Build a ranked list from site → score, highest score first.

        Ties are broken lexicographically by site identifier so that the
        result is deterministic.
        """
        items = scores.items() if isinstance(scores, Mapping) else scores
        ordered = sorted(items, key=lambda kv: (-kv[1], kv[0]))
        return cls(site for site, _ in ordered)
