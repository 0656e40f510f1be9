"""Category composition of top sites (Section 4.2.2 / Figure 2).

Two perspectives, both averaged over the study countries:

* **by domains** — what fraction of the top-N *sites* carries each
  category label (skews toward the long tail);
* **by traffic** — the same count weighted by the per-rank traffic
  share (models what users actually do).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.dataset import BrowsingDataset
from ..core.types import Metric, Month, Platform
from .weighting import (
    CategoryCodes,
    Labels,
    average_over_countries,
    share_by_category,
    weighted_volume_by_category,
)


@dataclass(frozen=True)
class CompositionPanel:
    """One panel of Figure 2: a (platform, metric, top-N, perspective)."""

    platform: Platform
    metric: Metric
    top_n: int
    perspective: str                     # "domains" or "traffic"
    shares: dict[str, float]             # category -> average share
    per_country: dict[str, dict[str, float]]

    def top_categories(self, k: int = 10) -> list[tuple[str, float]]:
        return sorted(self.shares.items(), key=lambda kv: -kv[1])[:k]


def composition_panel(
    dataset: BrowsingDataset,
    labels: Labels,
    platform: Platform,
    metric: Metric,
    month: Month,
    top_n: int,
    perspective: str = "domains",
    countries: tuple[str, ...] | None = None,
) -> CompositionPanel:
    """Compute one Figure 2 panel from a dataset slice."""
    if perspective not in ("domains", "traffic"):
        raise ValueError(f"unknown perspective {perspective!r}")
    labels = CategoryCodes.of(labels, dataset.vocabulary())
    lists = dataset.select(platform, metric, month, countries)
    per_country: dict[str, dict[str, float]] = {}
    distribution = dataset.distribution(platform, metric)
    for country, ranked in lists.items():
        if perspective == "domains":
            per_country[country] = share_by_category(ranked, labels, top_n)
        else:
            per_country[country] = weighted_volume_by_category(
                ranked, labels, distribution, top_n
            )
    return CompositionPanel(
        platform=platform,
        metric=metric,
        top_n=top_n,
        perspective=perspective,
        shares=average_over_countries(per_country),
        per_country=per_country,
    )


def figure2_panels(
    dataset: BrowsingDataset,
    labels: Labels,
    month: Month,
    top_ns: tuple[int, ...] = (100, 10_000),
    countries: tuple[str, ...] | None = None,
) -> list[CompositionPanel]:
    """All Figure 2 panels: platform × metric × top-N × perspective."""
    labels = CategoryCodes.of(labels, dataset.vocabulary())
    panels = []
    for platform in Platform.studied():
        for metric in Metric.studied():
            for top_n in top_ns:
                for perspective in ("domains", "traffic"):
                    panels.append(
                        composition_panel(
                            dataset, labels, platform, metric, month,
                            top_n, perspective, countries,
                        )
                    )
    return panels


def dominant_category(panel: CompositionPanel, exclude: tuple[str, ...] = ("Unknown",)) -> str:
    """The category with the plurality share in a panel."""
    candidates = {c: v for c, v in panel.shares.items() if c not in exclude}
    if not candidates:
        raise ValueError("panel has no categories outside the exclusion list")
    return max(candidates.items(), key=lambda kv: kv[1])[0]
