"""Composition of the top-10 sites per country (Section 4.2.1, 5.3.2, Table 4).

The paper manually verifies and categorises every top-10 site across
all (country, platform, metric) breakdowns, then counts which use
cases appear in how many countries: every country has a search engine
and a video platform in its top 10; most have social networks and adult
content; classified ads, banks, government portals and broadcasters are
top-10 in exactly one country each.

Our "manual verification" consults ground-truth labels and tags; the
counting logic is the analysis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from ..core.dataset import BrowsingDataset
from ..core.rankedlist import RankedList
from ..core.types import Metric, Month, Platform


@dataclass(frozen=True)
class CategoryPresence:
    """Countries whose top-K contains at least one site of a category."""

    category: str
    countries: tuple[str, ...]
    sites: tuple[str, ...]            # distinct sites driving the presence

    @property
    def n_countries(self) -> int:
        return len(self.countries)

    @property
    def n_sites(self) -> int:
        return len(self.sites)


def category_presence(
    lists_by_country: Mapping[str, RankedList],
    labels: Mapping[str, str],
    top_k: int = 10,
) -> dict[str, CategoryPresence]:
    """Per category: which countries have it in their top-K — :func:`tag_presence`
    with each site's category (Unknown when unlabeled) as its one tag."""
    one_tag = {site: (labels.get(site, "Unknown"),)
               for ranked in lists_by_country.values()
               for site in ranked.top(top_k).sites}
    return tag_presence(lists_by_country, one_tag, top_k)


def tag_presence(
    lists_by_country: Mapping[str, RankedList],
    tags: Mapping[str, tuple[str, ...]],
    top_k: int = 10,
) -> dict[str, CategoryPresence]:
    """Per descriptive tag: which countries have it in their top-K.

    Tags capture Table 4's long tail (videoconferencing, ISPs, job
    search, ...) and Section 5.3.2's classes (classifieds, forums, ...).
    """
    countries_per: dict[str, set[str]] = {}
    sites_per: dict[str, set[str]] = {}
    for country, ranked in lists_by_country.items():
        for site in ranked.top(top_k).sites:
            for tag in tags.get(site, ()):
                countries_per.setdefault(tag, set()).add(country)
                sites_per.setdefault(tag, set()).add(site)
    return {
        tag: CategoryPresence(
            tag, tuple(sorted(countries_per[tag])), tuple(sorted(sites_per[tag]))
        )
        for tag in countries_per
    }


def single_country_sites(
    presence: CategoryPresence,
    lists_by_country: Mapping[str, RankedList],
    top_k: int = 10,
) -> tuple[str, ...]:
    """Sites of a class that are top-K in exactly one country.

    Section 5.3.2: government sites, news outlets and banks "are only
    ever top-10 in one country".
    """
    out = []
    for site in presence.sites:
        n = sum(
            1 for ranked in lists_by_country.values()
            if site in ranked.top(top_k)
        )
        if n == 1:
            out.append(site)
    return tuple(sorted(out))


@dataclass(frozen=True)
class PlatformExclusives:
    """Sites in the Windows top-K but not the Android top-K (Section 4.1.2)."""

    sites: tuple[str, ...]
    with_android_app: tuple[str, ...]

    @property
    def app_fraction(self) -> float:
        if not self.sites:
            return 0.0
        return len(self.with_android_app) / len(self.sites)


def windows_only_top_sites(
    dataset: BrowsingDataset,
    month: Month,
    has_app: Mapping[str, bool],
    metric: Metric = Metric.PAGE_LOADS,
    top_k: int = 10,
    countries: tuple[str, ...] | None = None,
) -> PlatformExclusives:
    """Sites top-K on Windows somewhere but top-K on Android nowhere.

    Paper: "Of the 114 sites ranking in the top 10 in at least one
    country by page loads on Windows but not Android, 93 (82 %) have a
    dedicated Android app."
    """
    windows = dataset.select(Platform.WINDOWS, metric, month, countries)
    android = dataset.select(Platform.ANDROID, metric, month, countries)
    windows_top: set[str] = set()
    android_top: set[str] = set()
    for ranked in windows.values():
        windows_top.update(ranked.top(top_k).sites)
    for ranked in android.values():
        android_top.update(ranked.top(top_k).sites)
    exclusives = tuple(sorted(windows_top - android_top))
    with_app = tuple(s for s in exclusives if has_app.get(s, False))
    return PlatformExclusives(exclusives, with_app)


def union_of_top_sites(
    dataset: BrowsingDataset,
    month: Month,
    top_k: int = 10,
    countries: tuple[str, ...] | None = None,
) -> set[str]:
    """The union of top-K sites over every (country, platform, metric).

    Paper: "across the 1.8K domains found in the union of breakdowns,
    we identify ... 469 unique domains that belong to 402 websites."
    """
    out: set[str] = set()
    for platform in dataset.platforms:
        for metric in dataset.metrics:
            for ranked in dataset.select(platform, metric, month, countries).values():
                out.update(ranked.top(top_k).sites)
    return out
