"""Content-addressed on-disk cache of generated rank-list slices.

Layout::

    <root>/<fingerprint>/<country>_<platform>_<metric>_<YYYY-MM>.slc

The fingerprint directory is :meth:`GeneratorConfig.fingerprint` — a
hash of every generation knob including the universe and privacy
configs — so a hit is guaranteed byte-identical to regeneration and two
different configurations can never collide.  Each slice file is the
packed string table of :mod:`repro.store.format` under the
``RPROSLC1`` magic — names in rank order, so position == rank - 1.  The
header carries an explicit count, so a truncated file is detected
(:class:`~repro.core.errors.DatasetError`) instead of silently yielding
a short list.  A warm cache serves slices without constructing a
generator at all, skipping both scoring and the full-scale universe
build.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from ..core.rankedlist import RankedList
from ..core.types import Breakdown
from ..export.io import breakdown_slug


@dataclass
class CacheStats:
    """Counters for one cache instance's lifetime."""

    hits: int = 0
    misses: int = 0
    writes: int = 0

    def __str__(self) -> str:
        return f"{self.hits} hits, {self.misses} misses, {self.writes} writes"


class SliceCache:
    """A content-addressed slice store under a configurable directory."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.stats = CacheStats()

    def path_for(self, fingerprint: str, breakdown: Breakdown) -> Path:
        """Where :meth:`put` writes this slice."""
        return self.root / fingerprint / f"{breakdown_slug(breakdown)}.slc"

    def get(self, fingerprint: str, breakdown: Breakdown) -> RankedList | None:
        """The cached slice, or ``None`` on a miss.

        A file that exists but is malformed raises
        :class:`~repro.core.errors.DatasetError` — corruption should
        surface, not regenerate silently.
        """
        # Deferred: the store package is only needed once a cache is used.
        from ..store.format import MAGIC_SLICE, unpack_string_table

        path = self.path_for(fingerprint, breakdown)
        try:
            data = path.read_bytes()
        except OSError:
            self.stats.misses += 1
            return None
        ranked = RankedList(unpack_string_table(data, path, MAGIC_SLICE))
        self.stats.hits += 1
        return ranked

    def put(self, fingerprint: str, breakdown: Breakdown, ranked: RankedList) -> Path:
        """Store one slice; the write is atomic (tmp file + rename)."""
        from ..store.format import MAGIC_SLICE, atomic_write_bytes, pack_string_table

        path = atomic_write_bytes(
            self.path_for(fingerprint, breakdown),
            pack_string_table(ranked.sites, MAGIC_SLICE),
        )
        self.stats.writes += 1
        return path

    def __contains__(self, key: tuple[str, Breakdown]) -> bool:
        fingerprint, breakdown = key
        return self.path_for(fingerprint, breakdown).is_file()

    def __repr__(self) -> str:
        return f"SliceCache({str(self.root)!r}, {self.stats})"
