"""Slice planning: which breakdowns to generate, deduped and grouped.

The generator's contract (see :mod:`repro.synth.generator`) makes every
breakdown independently regenerable from ``(seed, country, component)``
noise streams; the only state *shared* between breakdowns is per-country
(the candidate pool, base scores and month random walks).  A
:class:`SlicePlan` therefore replaces the old nested
country × platform × metric × month loop with an explicit, deduplicated
request list partitioned into per-country :class:`CountryWorkUnit`\\ s —
the natural batch: each unit is scored in one matrix pass, in any
order, and still produces lists byte-identical to the per-slice scorer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from ..core.types import Breakdown, Metric, Month, Platform, REFERENCE_MONTH
from ..world.countries import COUNTRIES


def _plan_key(breakdown: Breakdown) -> tuple:
    """Canonical plan ordering — matches the export manifest ordering."""
    return (
        breakdown.country,
        breakdown.platform.value,
        breakdown.metric.value,
        breakdown.month,
    )


@dataclass(frozen=True)
class SliceRequest:
    """A request for one (country, platform, metric, month) rank list."""

    breakdown: Breakdown

    @property
    def country(self) -> str:
        return self.breakdown.country

    @property
    def platform(self) -> Platform:
        return self.breakdown.platform

    @property
    def metric(self) -> Metric:
        return self.breakdown.metric

    @property
    def month(self) -> Month:
        return self.breakdown.month

    def __str__(self) -> str:
        return str(self.breakdown)


@dataclass(frozen=True)
class CountryWorkUnit:
    """All requests for one country — one schedulable unit of work.

    Country state (candidate pool, base scores) and month walks are
    computed once per country and shared by every slice in the unit, so
    splitting a country across batches would duplicate that work.
    """

    country: str
    requests: tuple[SliceRequest, ...]

    def __len__(self) -> int:
        return len(self.requests)

    def breakdowns(self) -> tuple[Breakdown, ...]:
        return tuple(request.breakdown for request in self.requests)


class SlicePlan:
    """A deduplicated, deterministically ordered set of slice requests."""

    __slots__ = ("_requests",)

    def __init__(self, requests: Iterable[SliceRequest | Breakdown]) -> None:
        unique: dict[Breakdown, SliceRequest] = {}
        for request in requests:
            if isinstance(request, Breakdown):
                request = SliceRequest(request)
            unique.setdefault(request.breakdown, request)
        self._requests: tuple[SliceRequest, ...] = tuple(
            unique[b] for b in sorted(unique, key=_plan_key)
        )

    @classmethod
    def from_grid(
        cls,
        countries: Iterable[str] | None = None,
        platforms: Iterable[Platform] = Platform.studied(),
        metrics: Iterable[Metric] = Metric.studied(),
        months: Iterable[Month] = (REFERENCE_MONTH,),
    ) -> "SlicePlan":
        """The full cross-product grid (default: the paper's study grid)."""
        if countries is None:
            countries = tuple(sorted(c.code for c in COUNTRIES))
        return cls(
            Breakdown(country, platform, metric, month)
            for country in countries
            for platform in platforms
            for metric in metrics
            for month in months
        )

    # -- views --------------------------------------------------------------------

    @property
    def requests(self) -> tuple[SliceRequest, ...]:
        return self._requests

    def breakdowns(self) -> tuple[Breakdown, ...]:
        return tuple(request.breakdown for request in self._requests)

    @property
    def countries(self) -> tuple[str, ...]:
        return tuple(sorted({r.country for r in self._requests}))

    def __len__(self) -> int:
        return len(self._requests)

    def __iter__(self) -> Iterator[SliceRequest]:
        return iter(self._requests)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SlicePlan):
            return NotImplemented
        return self._requests == other._requests

    def __hash__(self) -> int:
        return hash(self._requests)

    def __repr__(self) -> str:
        return (
            f"SlicePlan({len(self._requests)} slices, "
            f"{len(self.countries)} countries)"
        )

    # -- derivation ---------------------------------------------------------------

    def partition(self) -> tuple[CountryWorkUnit, ...]:
        """Per-country work units, in country order."""
        by_country: dict[str, list[SliceRequest]] = {}
        for request in self._requests:
            by_country.setdefault(request.country, []).append(request)
        return tuple(
            CountryWorkUnit(country, tuple(requests))
            for country, requests in sorted(by_country.items())
        )
