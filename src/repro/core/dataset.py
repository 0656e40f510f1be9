"""The top-level dataset container mirroring the Chrome data share.

A :class:`BrowsingDataset` bundles everything Section 3.1 describes Chrome
sharing with the authors:

* one :class:`~repro.core.rankedlist.RankedList` per
  (country, platform, metric, month) breakdown, and
* one global :class:`~repro.core.distribution.TrafficDistribution` per
  (platform, metric) pair (Section 4.1.1's traffic-volume curves), and
* optionally, the per-site :class:`~repro.core.truth.GroundTruth`
  (category, tags, Android app) that the generator knows and the
  paper's labelled analyses read.

Analyses never see the generator; they consume a dataset, exactly as the
paper's analyses consume the telemetry export.
"""

from __future__ import annotations

import threading
from typing import Callable, Iterable, Iterator, Mapping

from .distribution import TrafficDistribution
from .errors import DatasetError, MissingBreakdownError
from .rankedlist import RankedList
from .truth import GroundTruth
from .types import Breakdown, Metric, Month, Platform
from .vocab import SiteVocabulary

#: A dataset's ground truth: the table itself, a function of the
#: dataset producing it on first use (engine datasets and the codecs'
#: loaders), or ``None`` when the dataset has none.
TruthSource = "GroundTruth | Callable[[BrowsingDataset], GroundTruth] | None"


class BrowsingDataset:
    """An immutable collection of ranked lists plus distribution curves."""

    #: How this dataset's lists are held; the memory-mapped columnar
    #: store overrides it (``"columnar-mmap"``).  Surfaced by
    #: ``/v1/healthz``.
    storage = "memory"

    #: The monotonically increasing dataset version.  A freshly
    #: generated dataset is version 1; every ``repro ingest`` that
    #: appends months bumps it by one.  Loaders overwrite the instance
    #: attribute from the saved manifest; the serving layer pins a
    #: version per request (``?as_of=``).
    version: int = 1

    def __init__(
        self,
        lists: Mapping[Breakdown, RankedList],
        distributions: Mapping[tuple[Platform, Metric], TrafficDistribution],
        metadata: Mapping[str, object] | None = None,
        ground_truth: TruthSource = None,
    ) -> None:
        if not lists:
            raise DatasetError("dataset must contain at least one rank list")
        self._lists = dict(lists)
        self._distributions = dict(distributions)
        self._metadata = dict(metadata or {})
        self._countries = tuple(sorted({b.country for b in self._lists}))
        self._platforms = tuple(sorted({b.platform for b in self._lists}, key=lambda p: p.value))
        self._metrics = tuple(sorted({b.metric for b in self._lists}, key=lambda m: m.value))
        self._months = tuple(sorted({b.month for b in self._lists}))
        self._vocab: SiteVocabulary | None = None
        self._vocab_lock = threading.Lock()
        self._ground_truth = ground_truth
        self._truth_lock = threading.Lock()

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
        return iter(self._lists)

    def __len__(self) -> int:
        return len(self._lists)

    def __contains__(self, breakdown: object) -> bool:
        return breakdown in self._lists

    # -- lookups ------------------------------------------------------------------

    def __getitem__(self, breakdown: Breakdown) -> RankedList:
        try:
            return self._lists[breakdown]
        except KeyError:
            raise MissingBreakdownError(breakdown) from None

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
        return self._lists.get(Breakdown(country, platform, metric, month))

    def vocabulary(self) -> SiteVocabulary:
        """The dataset-wide site vocabulary, built lazily and shared.

        One vocabulary per dataset keeps every list's cached id array
        (:meth:`RankedList.ids`) valid across analyses — the wRBO
        matrix, the intersection curves and the temporal sweeps all
        index the same id space.  The vocabulary grows on demand as
        lists are interned, so requesting it costs nothing and a run
        that touches three slices interns three slices.
        """
        vocab = self._vocab
        if vocab is None:
            with self._vocab_lock:
                if self._vocab is None:
                    self._vocab = SiteVocabulary()
                vocab = self._vocab
        return vocab

    def all_sites(self) -> frozenset[str]:
        """Every site appearing in any of the dataset's lists."""
        union: set[str] = set()
        for breakdown in self.breakdowns():
            union.update(self[breakdown].sites)
        return frozenset(union)

    def ground_truth(self) -> GroundTruth | None:
        """The per-site ground truth stored with the dataset (or ``None``).

        Engine datasets compute it from their generator and saved
        datasets read it from the codec's ground-truth file, both on
        first use; datasets saved before ground truth was stored with
        them have none.  The table may hold rows for sites beyond this
        dataset's lists, so readers filter by :meth:`all_sites`.
        """
        with self._truth_lock:
            truth = self._ground_truth
            if callable(truth):
                truth = self._ground_truth = truth(self)
            return truth

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
        wanted = tuple(countries) if countries is not None else self._countries
        out: dict[str, RankedList] = {}
        for country in wanted:
            ranked = self._lists.get(Breakdown(country, platform, metric, month))
            if ranked is not None:
                out[country] = ranked
        return out

    def filter(
        self,
        predicate: Callable[[Breakdown], bool],
    ) -> "BrowsingDataset":
        """A new dataset keeping only breakdowns matching ``predicate``."""
        kept = {b: rl for b, rl in self._lists.items() if predicate(b)}
        if not kept:
            raise DatasetError("filter removed every breakdown")
        return BrowsingDataset(
            kept, self._distributions, self._metadata,
            ground_truth=lambda _: self.ground_truth(),
        )

    def restrict_countries(self, countries: Iterable[str]) -> "BrowsingDataset":
        wanted = set(countries)
        return self.filter(lambda b: b.country in wanted)

    def map_lists(
        self, transform: Callable[[Breakdown, RankedList], RankedList]
    ) -> "BrowsingDataset":
        """Apply a per-list transformation (e.g. eTLD merging) to all lists.

        The result carries no ground truth: the transform may rename
        sites, and the table is keyed by the original names.
        """
        return BrowsingDataset(
            {b: transform(b, rl) for b, rl in self._lists.items()},
            self._distributions,
            self._metadata,
        )

    def __repr__(self) -> str:
        return (
            f"BrowsingDataset(countries={len(self._countries)}, "
            f"platforms={[p.value for p in self._platforms]}, "
            f"metrics={[m.value for m in self._metrics]}, "
            f"months={[str(m) for m in self._months]}, lists={len(self._lists)})"
        )
