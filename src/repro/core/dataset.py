"""The top-level dataset container mirroring the Chrome data share.

A :class:`BrowsingDataset` bundles everything Section 3.1 describes Chrome
sharing with the authors:

* one :class:`~repro.core.rankedlist.RankedList` per
  (country, platform, metric, month) breakdown, and
* one global :class:`~repro.core.distribution.TrafficDistribution` per
  (platform, metric) pair (Section 4.1.1's traffic-volume curves), and
* optionally, each site's universe uid (:meth:`BrowsingDataset.site_uids`),
  through which the paper's labelled analyses read the category, tags
  and Android-app flag the universe holds for the site.

Every dataset holds its lists one way: a site table in id order, plus
each breakdown's ``(offset, length)`` window into one ``int32`` id
array.  The generation engine numbers its sites from the universe ids
it scores, and a columnar load maps the windows straight off
``vocab.bin`` and ``lists.bin`` (both via
:meth:`BrowsingDataset.from_windows`); the constructor interns lists
given as names (a text load).  A list decodes into a
:class:`RankedList` the first time a read touches it.

Analyses never see the generator; they consume a dataset, exactly as the
paper's analyses consume the telemetry export.
"""

from __future__ import annotations

import threading
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from ..obs import span as obs_span
from .distribution import TrafficDistribution
from .errors import DatasetError, MissingBreakdownError
from .rankedlist import RankedList
from .types import Breakdown, Metric, Month, Platform
from .vocab import SiteVocabulary

if TYPE_CHECKING:
    from ..synth.universe import Universe

#: A dataset's universe uid per site id (-1: a site the universe does
#: not name, e.g. an ``emit="domains"`` ccTLD variant): the column
#: itself, a function reading it on first use (the columnar loader),
#: or ``None`` when the dataset stores none.
UidSource = "np.ndarray | Callable[[], np.ndarray] | None"


def sorted_breakdowns(breakdowns: Iterable[Breakdown]) -> list[Breakdown]:
    """The canonical order every format writes breakdowns in."""
    return sorted(
        breakdowns,
        key=lambda b: (b.country, b.platform.value, b.metric.value, b.month),
    )


def first_appearance(windows: Sequence[np.ndarray], size: int) -> np.ndarray:
    """The ids of a ``size``-entry table in order of first appearance
    over ``windows``.

    Each window holds distinct ids, so its unseen ids are exactly its
    new ones: a mask pass per window, no sort (``np.unique`` with
    ``return_index`` sorts every id).
    """
    seen = np.zeros(size, dtype=bool)
    order = [np.empty(0, dtype=np.int32)]
    for window in windows:
        new = window[~seen[window]]
        seen[new] = True
        order.append(new)
    return np.concatenate(order)


class BrowsingDataset:
    """An immutable collection of ranked lists plus distribution curves.

    The constructor interns ``lists`` once, in :func:`sorted_breakdowns`
    order, so the site table is exactly the ``vocab.bin`` a save of the
    dataset writes; after that each list is held only as its id window.
    """

    #: The monotonically increasing dataset version.  A freshly
    #: generated dataset is version 1; every ``repro ingest`` that
    #: appends months bumps it by one.  Loaders overwrite the instance
    #: attribute from the saved manifest; the serving layer pins a
    #: version per request (``?as_of=``).
    version: int = 1

    #: The directory a loaded dataset was read from (``None`` for one
    #: built in memory).  The serving layer follows its live manifest
    #: and opens its archived versions.
    root: Path | None = None

    #: The universe a generated dataset was scored from (set by the
    #: generation engine); a save writes it as ``universe.bin``.
    #: ``None`` for any other dataset.
    universe: Universe | None = None

    def __init__(
        self,
        lists: Mapping[Breakdown, RankedList],
        distributions: Mapping[tuple[Platform, Metric], TrafficDistribution],
        metadata: Mapping[str, object] | None = None,
    ) -> None:
        windows, ids, table = intern_lists(lists, SiteVocabulary())
        self._setup(windows, ids, lambda: table, distributions, metadata, None)

    @classmethod
    def from_windows(
        cls,
        windows: Mapping[Breakdown, tuple[int, int]],
        ids: np.ndarray,
        names: Callable[[], np.ndarray],
        distributions: Mapping[tuple[Platform, Metric], TrafficDistribution],
        metadata: Mapping[str, object],
        uids: UidSource = None,
        content_fingerprint: str | None = None,
    ) -> "BrowsingDataset":
        """A dataset over id windows: a columnar store's memory maps, an
        engine run's numbered uids, or a text load's sidecar-ordered ids.

        ``names`` returns the site table as an object array in id order;
        it is called on first use, so opening reads no name.
        """
        dataset = cls.__new__(cls)
        dataset._setup(windows, ids, names, distributions, metadata, uids,
                       content_fingerprint=content_fingerprint)
        return dataset

    def _setup(
        self,
        windows: Mapping[Breakdown, tuple[int, int]],
        ids: np.ndarray,
        names: Callable[[], np.ndarray],
        distributions: Mapping[tuple[Platform, Metric], TrafficDistribution],
        metadata: Mapping[str, object] | None,
        uids: UidSource,
        content_fingerprint: str | None = None,
    ) -> None:
        if not windows:
            raise DatasetError("dataset must contain at least one rank list")
        self._windows = dict(windows)
        self._ids = ids
        self._names = names
        #: The lists decoded so far.  Serving reads one dataset from
        #: many threads, so decoding runs under a lock.
        self._lists: dict[Breakdown, RankedList] = {}
        self._decode_lock = threading.Lock()
        self._distributions = dict(distributions)
        self._metadata = dict(metadata or {})
        self._countries = tuple(sorted({b.country for b in self._windows}))
        self._platforms = tuple(sorted({b.platform for b in self._windows}, key=lambda p: p.value))
        self._metrics = tuple(sorted({b.metric for b in self._windows}, key=lambda m: m.value))
        self._months = tuple(sorted({b.month for b in self._windows}))
        self._vocab: SiteVocabulary | None = None
        self._vocab_lock = threading.Lock()
        self._uids = uids
        self._uids_lock = threading.Lock()
        #: How the id windows are held: ``"memory"`` or
        #: ``"columnar-mmap"``.  Surfaced by ``/v1/healthz``.
        self.storage = "columnar-mmap" if isinstance(ids, np.memmap) else "memory"
        #: The manifest-recorded content fingerprint of a columnar
        #: dataset, so addressing an artifact store never hashes its
        #: lists (``None`` for an in-memory dataset).
        self.content_fingerprint = content_fingerprint

    # -- indices ------------------------------------------------------------------

    @property
    def countries(self) -> tuple[str, ...]:
        """ISO codes of all countries present, sorted."""
        return self._countries

    @property
    def platforms(self) -> tuple[Platform, ...]:
        return self._platforms

    @property
    def metrics(self) -> tuple[Metric, ...]:
        return self._metrics

    @property
    def months(self) -> tuple[Month, ...]:
        """Months present, in chronological order."""
        return self._months

    @property
    def metadata(self) -> Mapping[str, object]:
        return dict(self._metadata)

    @property
    def fingerprint(self) -> str:
        """The dataset's content address (see ``export.io``).

        Engine-provenanced datasets answer from their recorded metadata,
        columnar datasets from their manifest; only an unprovenanced
        in-memory dataset pays a content hash.  Together with
        :attr:`version` and :attr:`months` this makes a loaded dataset a
        self-describing handle for the ``repro.api`` facade.
        """
        from ..export.io import dataset_fingerprint

        return dataset_fingerprint(self)

    def breakdowns(self) -> Iterator[Breakdown]:
        return iter(self._windows)

    def __len__(self) -> int:
        return len(self._windows)

    def __contains__(self, breakdown: object) -> bool:
        return breakdown in self._windows

    # -- the id windows -----------------------------------------------------------

    def site_table(self) -> np.ndarray:
        """Every site name in id order, as an object array."""
        return self._names()

    def window(self, breakdown: Breakdown) -> np.ndarray:
        """One list's sites as ids into :meth:`site_table`, in rank order.

        A read-only view of the one id array, checked on the ints — ids
        inside the table and distinct — which is the string check: the
        table's names are unique and non-empty.
        """
        try:
            offset, length = self._windows[breakdown]
        except KeyError:
            raise MissingBreakdownError(breakdown) from None
        window = self._ids[offset:offset + length]
        names = self._names()
        where = f"{self.root}: " if self.root is not None else ""
        ordered = np.sort(window)
        if length and not 0 <= ordered[0] <= ordered[-1] < len(names):
            raise DatasetError(
                f"{where}list for {breakdown} references site ids outside "
                f"the {len(names)}-entry vocabulary"
            )
        repeated = ordered[1:][ordered[1:] == ordered[:-1]]
        if len(repeated):
            raise DatasetError(
                f"{where}list for {breakdown} repeats site {names[repeated[0]]!r}"
            )
        return window

    @property
    def pending(self) -> int:
        """How many lists have not been decoded yet."""
        return len(self._windows) - len(self._lists)

    def materialize(self, breakdowns: Iterable[Breakdown] | None = None) -> None:
        """Decode the requested (default: all) still-pending lists.

        Thread-safe: concurrent readers (e.g. server threads) serialize
        here, and a list is decoded at most once.  Each decode is one
        ``store.materialize`` span (attributes ``slices``, ``sites``).
        When the vocabulary has been built, a decoded list is pre-seeded
        with its id window, so kernels read the ids without re-interning.
        """
        wanted = self._windows if breakdowns is None else breakdowns
        with self._decode_lock:
            wanted = [b for b in dict.fromkeys(wanted)
                      if b in self._windows and b not in self._lists]
            if not wanted:
                return
            names = self._names()
            vocab = self._vocab
            with obs_span("store.materialize") as span:
                sites = 0
                for breakdown in wanted:
                    window = self.window(breakdown)
                    ranked = RankedList._trusted(tuple(names[window].tolist()))
                    if vocab is not None:
                        ranked._ids_cache = (vocab, window)
                    self._lists[breakdown] = ranked
                    sites += len(window)
                span.set("slices", len(wanted))
                span.set("sites", sites)

    # -- lookups ------------------------------------------------------------------

    def __getitem__(self, breakdown: Breakdown) -> RankedList:
        ranked = self._lists.get(breakdown)
        if ranked is None:
            if breakdown not in self._windows:
                raise MissingBreakdownError(breakdown)
            self.materialize((breakdown,))
            ranked = self._lists[breakdown]
        return ranked

    def get(
        self,
        country: str,
        platform: Platform,
        metric: Metric,
        month: Month,
    ) -> RankedList:
        """The rank list for one breakdown; raises if absent."""
        return self[Breakdown(country, platform, metric, month)]

    def get_or_none(
        self,
        country: str,
        platform: Platform,
        metric: Metric,
        month: Month,
    ) -> RankedList | None:
        breakdown = Breakdown(country, platform, metric, month)
        return self[breakdown] if breakdown in self._windows else None

    def vocabulary(self) -> SiteVocabulary:
        """The dataset-wide site vocabulary: the site table, interned.

        One vocabulary per dataset keeps every list's cached id array
        (:meth:`RankedList.ids`) valid across analyses — the wRBO
        matrix, the intersection curves and the temporal sweeps all
        index the same id space, the one the id windows use, so a
        decoded list's ids are its window without re-interning.
        """
        vocab = self._vocab
        if vocab is None:
            with self._vocab_lock:
                if self._vocab is None:
                    self._vocab = SiteVocabulary(self._names().tolist())
                vocab = self._vocab
        return vocab

    def all_sites(self) -> frozenset[str]:
        """Every site appearing in any of the dataset's lists: the site
        table, read without decoding a list."""
        return frozenset(self._names().tolist())

    def site_uids(self) -> np.ndarray | None:
        """Each site id's universe uid, or ``None`` without the column.

        -1 marks a site the universe does not name (an ``emit="domains"``
        ccTLD variant such as ``google.co.kr``): it has no category, no
        tags and no app.  A columnar dataset reads (and digest-checks)
        the column on first use; datasets saved before datasets stored
        it have none.
        """
        with self._uids_lock:
            uids = self._uids
            if callable(uids):
                uids = self._uids = uids()
            return uids

    def distribution(self, platform: Platform, metric: Metric) -> TrafficDistribution:
        """The global traffic-distribution curve for a (platform, metric)."""
        try:
            return self._distributions[(platform, metric)]
        except KeyError:
            raise DatasetError(
                f"no traffic distribution for ({platform.value}, {metric.value})"
            ) from None

    def distributions(self) -> Mapping[tuple[Platform, Metric], TrafficDistribution]:
        return dict(self._distributions)

    # -- slicing ------------------------------------------------------------------

    def select(
        self,
        platform: Platform,
        metric: Metric,
        month: Month,
        countries: Iterable[str] | None = None,
    ) -> dict[str, RankedList]:
        """Per-country rank lists for a fixed (platform, metric, month).

        This is the slice shape most analyses operate on — e.g. "Windows
        page loads from February 2022 ... in the 45 countries we consider".
        Countries with no list for the breakdown are silently omitted
        (small countries fall below the privacy threshold in some months).
        """
        wanted = {
            country: Breakdown(country, platform, metric, month)
            for country in (self._countries if countries is None else countries)
        }
        self.materialize(wanted.values())
        return {
            country: self._lists[breakdown]
            for country, breakdown in wanted.items()
            if breakdown in self._windows
        }

    def __repr__(self) -> str:
        return (
            f"BrowsingDataset(storage={self.storage}, pending={self.pending}, "
            f"countries={len(self._countries)}, "
            f"platforms={[p.value for p in self._platforms]}, "
            f"metrics={[m.value for m in self._metrics]}, "
            f"months={[str(m) for m in self._months]}, lists={len(self._windows)})"
        )


def intern_lists(
    lists: Mapping[Breakdown, RankedList], vocab: SiteVocabulary
) -> tuple[dict[Breakdown, tuple[int, int]], np.ndarray, np.ndarray]:
    """``lists`` as id windows, interned into ``vocab`` in
    :func:`sorted_breakdowns` order: the windows (in ``lists`` order),
    the one id array and the site table."""
    windows: dict[Breakdown, tuple[int, int]] = {}
    ids = np.empty(sum(map(len, lists.values())), dtype=np.int32)
    offset = 0
    for breakdown in sorted_breakdowns(lists):
        sites = lists[breakdown].sites
        ids[offset:offset + len(sites)] = vocab.intern_many(sites)
        windows[breakdown] = (offset, len(sites))
        offset += len(sites)
    ids.setflags(write=False)
    return ({b: windows[b] for b in lists}, ids,
            np.array(vocab.names(), dtype=object))
