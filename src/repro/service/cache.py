"""Thread-safe LRU cache of rendered response payloads.

The serving layer caches the *bytes* it writes to sockets, not parsed
values: every payload is canonical JSON (sorted keys, fixed
separators), so the bytes are a pure function of the query and a hit
is guaranteed byte-identical to a recompute.  First writer wins on a
racing insert — later renders of the same key are discarded in favour
of the stored bytes, so concurrent identical requests can never observe
two different bodies even if a renderer were nondeterministic.

The cache is bounded twice over: by entry count (``capacity``) and,
optionally, by total payload bytes (``max_bytes``).  The byte budget
is what keeps a fleet worker's RSS flat — a handful of oversized
payloads (a deep analysis artifact, a ``top=10000`` rankings body)
must not pin megabytes each while thousands of small rankings heads
get evicted around them.  Inserting past either bound evicts LRU
entries until both hold again; a single payload larger than the whole
byte budget is served but never stored (counted in ``oversized``).

``capacity=0`` disables the cache (every lookup misses, nothing is
stored), which keeps the no-cache serving path on the same code shape.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

#: A cache key: the endpoint name plus its canonicalised parameters.
PayloadKey = tuple[str, ...]


class PayloadCache:
    """An LRU mapping query keys to rendered payload bytes."""

    def __init__(
        self, capacity: int = 256, *, max_bytes: int | None = None
    ) -> None:
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        if max_bytes is not None and max_bytes < 0:
            raise ValueError(f"max_bytes must be >= 0, got {max_bytes}")
        self.capacity = capacity
        self.max_bytes = max_bytes
        self._lock = threading.Lock()
        self._entries: OrderedDict[PayloadKey, bytes] = OrderedDict()
        self._bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.oversized = 0

    def get(self, key: PayloadKey, *, record: bool = True) -> bytes | None:
        """The cached payload (refreshing recency), or ``None``.

        ``record=False`` counts neither a hit nor a miss, for re-checks
        that follow an already-counted miss (the single-flight path),
        so ``hits + misses`` equals the number of requests, not the
        number of probes.
        """
        with self._lock:
            value = self._entries.get(key)
            if value is None:
                if record:
                    self.misses += 1
                return None
            self._entries.move_to_end(key)
            if record:
                self.hits += 1
            return value

    def put(self, key: PayloadKey, value: bytes) -> bytes:
        """Store ``value`` under ``key``; returns the authoritative bytes.

        If another thread stored the key first, *its* bytes win and are
        returned — callers must serve the return value, not their own
        render.  Entries are evicted LRU-first until the cache is back
        under both the entry and byte budgets; a payload that alone
        exceeds ``max_bytes`` is returned unstored.
        """
        if self.capacity == 0:
            return value
        with self._lock:
            existing = self._entries.get(key)
            if existing is not None:
                self._entries.move_to_end(key)
                return existing
            if self.max_bytes is not None and len(value) > self.max_bytes:
                self.oversized += 1
                return value
            self._entries[key] = value
            self._bytes += len(value)
            while len(self._entries) > self.capacity or (
                self.max_bytes is not None and self._bytes > self.max_bytes
            ):
                _, evicted = self._entries.popitem(last=False)
                self._bytes -= len(evicted)
                self.evictions += 1
            return value

    @property
    def cache_bytes(self) -> int:
        """Total bytes currently held (the ``cache_bytes`` metric)."""
        with self._lock:
            return self._bytes

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: object) -> bool:
        with self._lock:
            return key in self._entries

    def snapshot(self) -> dict[str, int | None]:
        """JSON-shaped counters for the ``/v1/metrics`` payload."""
        with self._lock:
            return {
                "capacity": self.capacity,
                "size": len(self._entries),
                "cache_bytes": self._bytes,
                "max_bytes": self.max_bytes,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "oversized": self.oversized,
            }

    def __repr__(self) -> str:
        snap = self.snapshot()
        return (
            f"PayloadCache(capacity={snap['capacity']}, size={snap['size']}, "
            f"{snap['hits']} hits, {snap['misses']} misses)"
        )
