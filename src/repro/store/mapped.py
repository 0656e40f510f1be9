"""Memory-mapped views over a columnar dataset directory.

Opening a columnar dataset is O(open): the manifest (a few KB) is the
only file read eagerly; ``vocab.bin`` and ``lists.bin`` are wrapped in
``numpy.memmap`` arrays whose pages fault in on first touch.  Multiple
processes serving the same dataset therefore share one physical copy of
the id arrays and string blob — the page cache is the only copy.

Ownership and lifetime: the :class:`MappedBrowsingDataset` owns the
maps.  Materialised :class:`~repro.core.rankedlist.RankedList`\\ s hold
*views* into ``lists.bin`` (their cached id arrays), and numpy keeps
the underlying mmap alive through the view's ``base`` reference, so a
list outliving its dataset stays valid; pages unmap only when the last
view is garbage-collected.  Nothing is ever written through a map —
all maps are opened read-only (``mode="r"``).
"""

from __future__ import annotations

import threading
from pathlib import Path
from typing import Callable, Iterable, Mapping

import numpy as np

from ..core.dataset import BrowsingDataset
from ..core.distribution import TrafficDistribution
from ..core.errors import DatasetError
from ..core.rankedlist import RankedList
from ..core.types import Breakdown, Metric, Month, Platform
from ..core.vocab import SiteVocabulary
from ..obs import span as obs_span
from .format import HEADER_SIZE, MAGIC_VOCAB, decode_names, read_header


class MappedStringTable:
    """The packed vocabulary of ``vocab.bin``.

    Index == site id.  The names decode in one blob pass on first use
    and are checked then: non-empty, and unique — a repeated name would
    alias two ids, so every id check downstream (list uniqueness, the
    vocabulary) would silently disagree with the names.

    ``count`` is the number of names the manifest records.  Ingest grows
    ``vocab.bin`` under archived manifests (and a crashed ingest can
    leave an orphaned tail), so the table covers only that prefix of
    the file; ``None`` takes every name in the file.
    """

    __slots__ = ("path", "_offsets", "_blob", "_names")

    def __init__(self, path: str | Path, count: int | None = None) -> None:
        self.path = Path(path)
        try:
            with open(self.path, "rb") as handle:
                stored = read_header(
                    handle.read(HEADER_SIZE), MAGIC_VOCAB, self.path
                )
        except FileNotFoundError:
            raise DatasetError(
                f"columnar dataset is missing its vocabulary file {self.path}"
            ) from None
        if count is None:
            count = stored
        elif not 0 <= count <= stored:
            raise DatasetError(
                f"{self.path}: short vocabulary file (the manifest records "
                f"{count} names, the file holds {stored})"
            )
        offsets_end = HEADER_SIZE + 8 * (stored + 1)
        size = self.path.stat().st_size
        if size < offsets_end:
            raise DatasetError(
                f"{self.path}: short vocabulary file ({size} bytes, "
                f"offsets need {offsets_end})"
            )
        self._offsets = np.memmap(
            self.path, dtype=np.int64, mode="r",
            offset=HEADER_SIZE, shape=(count + 1,),
        )
        blob_len = size - offsets_end
        self._blob = (
            np.memmap(self.path, dtype=np.uint8, mode="r",
                      offset=offsets_end, shape=(blob_len,))
            if blob_len else np.empty(0, dtype=np.uint8)
        )
        if count and int(self._offsets[-1]) > blob_len:
            raise DatasetError(
                f"{self.path}: short vocabulary blob "
                f"({blob_len} bytes, offsets promise {int(self._offsets[-1])})"
            )
        self._names: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self._offsets) - 1

    def names(self) -> np.ndarray:
        """Every name in id order as an object array (decoded once)."""
        if self._names is None:
            offsets = memoryview(self._offsets)
            names = decode_names(self._blob[:offsets[-1]].tobytes(), offsets)
            # Sorted str hashes expose repeats without a set (MBs of RSS).
            hashes = np.sort(np.fromiter(map(hash, names), np.int64, len(names)))
            if (hashes[1:] == hashes[:-1]).any() or "" in names:
                self._reject(names)
            self._names = np.array(names, dtype=object)
        return self._names

    def _reject(self, names: tuple[str, ...]) -> None:
        """Raise for the first empty or repeated name (equal hashes of
        distinct names pass)."""
        first: dict[str, int] = {}
        for sid, name in enumerate(names):
            if not name:
                raise DatasetError(f"{self.path}: the site name of id {sid} is empty")
            if name in first:
                raise DatasetError(
                    f"{self.path}: site name {name!r} is stored twice "
                    f"(ids {first[name]} and {sid})"
                )
            first[name] = sid

    def decode_all(self) -> tuple[str, ...]:
        """Every name in id order."""
        return tuple(self.names().tolist())


class MappedBrowsingDataset(BrowsingDataset):
    """A :class:`BrowsingDataset` over memory-mapped columnar files.

    The full key set is fixed at open — indices, membership and
    iteration behave exactly like the eager container — but a list
    materialises only when a value-reading path touches it: its names
    are gathered from the decoded string table by its id window.  When
    the dataset-wide vocabulary has been built (:meth:`vocabulary`),
    materialised lists are pre-seeded with their mapped id window, so
    kernels consume ``lists.bin`` pages directly — zero copies, zero
    re-interning.
    """

    storage = "columnar-mmap"

    def __init__(
        self,
        root: str | Path,
        *,
        windows: Mapping[Breakdown, tuple[int, int]],
        ids: np.ndarray,
        table: MappedStringTable,
        distributions: Mapping[tuple[Platform, Metric], TrafficDistribution],
        metadata: Mapping[str, object],
        content_fingerprint: str | None = None,
        ground_truth=None,
    ) -> None:
        self.root = Path(root)
        self._windows = dict(windows)
        self._ids = ids
        self._table = table
        #: The manifest-recorded dataset fingerprint, honoured by
        #: :func:`repro.export.io.dataset_fingerprint` so addressing an
        #: artifact store never has to hash the mapped lists.
        self.content_fingerprint = content_fingerprint
        # Serving reads one dataset from many threads; materialize
        # mutates _pending/_lists, so it runs under a lock.
        self._materialize_lock = threading.Lock()
        self._pending: set[Breakdown] = set(self._windows)
        # Placeholder values: the base initialiser only reads keys, and
        # every value-reading path below materialises first.
        super().__init__(
            dict.fromkeys(self._windows), distributions, metadata,
            ground_truth,
        )

    # -- production ----------------------------------------------------------------

    @property
    def pending(self) -> int:
        """How many lists have not been materialised yet."""
        return len(self._pending)

    def materialize(self, breakdowns: Iterable[Breakdown] | None = None) -> None:
        """Materialise the requested (default: all) still-pending lists.

        Thread-safe: concurrent readers (e.g. server threads) serialize
        here, and a list is decoded at most once.  Each decode is one
        ``store.materialize`` span (attributes ``slices``, ``sites``).
        """
        wanted_input = None if breakdowns is None else set(breakdowns)
        with self._materialize_lock:
            wanted = self._pending if wanted_input is None else (
                wanted_input & self._pending
            )
            if not wanted:
                return
            with obs_span("store.materialize") as span:
                produced = self._decode(set(wanted))
                span.set("slices", len(produced))
                span.set("sites", sum(map(len, produced.values())))
            self._lists.update(produced)
            self._pending -= set(produced)

    def _decode(
        self, breakdowns: set[Breakdown]
    ) -> dict[Breakdown, RankedList]:
        """Each list's names, gathered by its id window.

        The window is checked on the ints — ids inside the vocabulary
        and distinct — which is the string check: the table's names are
        unique and non-empty (:meth:`MappedStringTable.names`).
        """
        out: dict[Breakdown, RankedList] = {}
        names = self._table.names()
        vocab = self._vocab  # pre-seed only if already built
        for breakdown in breakdowns:
            offset, length = self._windows[breakdown]
            window = self._ids[offset:offset + length]
            ordered = np.sort(window)
            if length and not 0 <= ordered[0] <= ordered[-1] < len(names):
                raise DatasetError(
                    f"{self.root}: list for {breakdown} references site ids "
                    f"outside the {len(names)}-entry vocabulary"
                )
            repeated = ordered[1:][ordered[1:] == ordered[:-1]]
            if len(repeated):
                raise DatasetError(
                    f"{self.root}: list for {breakdown} repeats site "
                    f"{names[repeated[0]]!r}"
                )
            ranked = RankedList._trusted(tuple(names[window].tolist()))
            if vocab is not None:
                ranked._ids_cache = (vocab, window)
            out[breakdown] = ranked
        return out

    # -- value-reading paths ------------------------------------------------------

    def __getitem__(self, breakdown: Breakdown) -> RankedList:
        if breakdown in self._pending:
            self.materialize((breakdown,))
        return super().__getitem__(breakdown)

    def get_or_none(
        self, country: str, platform: Platform, metric: Metric, month: Month
    ) -> RankedList | None:
        breakdown = Breakdown(country, platform, metric, month)
        if breakdown not in self._lists:
            return None
        return self[breakdown]

    def select(
        self,
        platform: Platform,
        metric: Metric,
        month: Month,
        countries: Iterable[str] | None = None,
    ) -> dict[str, RankedList]:
        wanted = tuple(countries) if countries is not None else self.countries
        self.materialize(
            Breakdown(country, platform, metric, month) for country in wanted
        )
        return super().select(platform, metric, month, countries)

    def filter(
        self, predicate: Callable[[Breakdown], bool]
    ) -> BrowsingDataset:
        self.materialize(b for b in self._lists if predicate(b))
        return super().filter(predicate)

    def map_lists(
        self, transform: Callable[[Breakdown, RankedList], RankedList]
    ) -> BrowsingDataset:
        self.materialize()
        return super().map_lists(transform)

    # -- vocabulary ----------------------------------------------------------------

    def vocabulary(self) -> SiteVocabulary:
        """The shared vocabulary, rebuilt from the mapped string table.

        Interning the table in id order reproduces the stored id space
        exactly, so every list's mapped id window is already expressed
        in this vocabulary — :meth:`RankedList.ids` on a materialised
        list returns the ``lists.bin`` view without copying.  A name
        stored twice would shift every later id, so it raises
        :class:`DatasetError` naming the file and both ids.
        """
        vocab = self._vocab
        if vocab is None:
            with self._vocab_lock:
                if self._vocab is None:
                    self._vocab = SiteVocabulary(self._table.decode_all())
                vocab = self._vocab
        return vocab

    def all_sites(self) -> frozenset[str]:
        """Every site in the dataset, straight from the string table.

        The union over breakdowns the base class computes list-by-list —
        here it is one bulk decode of the manifest's vocabulary prefix,
        which is exactly that union for every dataset version.
        """
        return frozenset(self._table.decode_all())

    def __repr__(self) -> str:
        return super().__repr__().replace(
            "BrowsingDataset(",
            f"{type(self).__name__}(pending={self.pending}, ", 1,
        )
