"""Site-name interning: dense integer ids for vectorized rank-list kernels.

Every heavy pairwise analysis (wRBO matrices, bucketed intersections,
temporal overlap, endemicity curves) reduces to set/rank operations over
site identifiers.  Strings are the wrong currency for that work: numpy
cannot scatter/gather them, and Python-level set mutation costs ~100 ns
per element.  A :class:`SiteVocabulary` interns site names to dense
``int32`` ids so a ranked list becomes one contiguous integer array
(:meth:`repro.core.rankedlist.RankedList.ids`) and every kernel in
:mod:`repro.stats.kernels` runs as a handful of numpy passes.

Interning a list assigns fresh ids to sites not seen before, in
first-seen order.  A dataset's vocabulary
(``BrowsingDataset.vocabulary()``) is its site table interned in id
order, so its ids are the dataset's stored id windows.  Ids are *not*
stable across vocabularies, which is why kernels always take id arrays
drawn from one shared vocabulary.
"""

from __future__ import annotations

import threading
from itertools import repeat
from typing import Iterable, Sequence

import numpy as np


class SiteVocabulary:
    """A grow-on-demand intern table: site name ↔ dense ``int32`` id.

    Interning is thread-safe (analyses fan pair loops out across
    threads); lookups of already-interned sites are lock-free dict
    reads.
    """

    __slots__ = ("_ids", "_sites", "_lock")

    def __init__(self, sites: Iterable[str] = ()) -> None:
        self._ids: dict[str, int] = {}
        self._sites: list[str] = []
        self._lock = threading.Lock()
        if sites:
            self.intern_many(tuple(sites))

    # -- interning ----------------------------------------------------------------

    def intern(self, site: str) -> int:
        """The id for ``site``, assigning a fresh one if unseen."""
        sid = self._ids.get(site)
        if sid is not None:
            return sid
        with self._lock:
            sid = self._ids.get(site)
            if sid is None:
                sid = len(self._sites)
                self._sites.append(site)
                self._ids[site] = sid
            return sid

    def intern_many(self, sites: Sequence[str]) -> np.ndarray:
        """Ids for ``sites`` as an ``int32`` array, interning as needed.

        Bulk interning runs at C speed: one ``map`` pass resolves the
        already-seen sites, and the unseen remainder is assigned a
        contiguous id block via a single ``dict.update`` — no per-site
        Python bytecode on either path.
        """
        ids = self._ids
        try:
            # Fast path: every site already interned — no lock needed.
            return np.fromiter(
                map(ids.__getitem__, sites), dtype=np.int32, count=len(sites)
            )
        except KeyError:
            pass
        with self._lock:
            got = np.fromiter(
                map(ids.get, sites, repeat(-1)), dtype=np.int32, count=len(sites)
            )
            missing = np.flatnonzero(got < 0)
            if len(missing):
                table = self._sites
                start = len(table)
                new_names = [sites[i] for i in missing.tolist()]
                ids.update(zip(new_names, range(start, start + len(new_names))))
                if len(ids) != start + len(new_names):
                    # ``sites`` repeats an unseen name: the bulk update
                    # left id holes.  Undo it and intern one at a time.
                    for name in new_names:
                        ids.pop(name, None)
                    for i, site in enumerate(sites):
                        sid = ids.get(site)
                        if sid is None:
                            sid = len(table)
                            table.append(site)
                            ids[site] = sid
                        got[i] = sid
                else:
                    table.extend(new_names)
                    got[missing] = np.arange(
                        start, start + len(new_names), dtype=np.int32
                    )
            return got

    # -- lookups ------------------------------------------------------------------

    def id_of(self, site: str) -> int:
        """The id of an already-interned site; raises ``KeyError`` if unseen."""
        return self._ids[site]

    def get(self, site: str, default: int = -1) -> int:
        return self._ids.get(site, default)

    def site_of(self, sid: int) -> str:
        """The site name behind an id."""
        return self._sites[sid]

    def names(self, start: int = 0) -> tuple[str, ...]:
        """Every interned site name from id ``start`` on, in id order
        (index + ``start`` == id).

        This is the packed string table the columnar store serialises:
        writing ``names()[i]`` at offset *i* round-trips the id space
        exactly, so id arrays written next to it stay valid.
        """
        with self._lock:
            return tuple(self._sites[start:])

    def __len__(self) -> int:
        return len(self._sites)

    def __contains__(self, site: object) -> bool:
        return site in self._ids

    def __repr__(self) -> str:
        return f"SiteVocabulary(sites={len(self._sites)})"
