#!/usr/bin/env python3
"""Quickstart: generate a small world and walk the main API surface.

Builds a test-sized synthetic telemetry dataset (45 countries, 1.5K-site
lists), prints the head of a few rank lists, and runs two one-liner
analyses — enough to see every moving part in under a minute.

Run:  python examples/quickstart.py
"""

import repro
from repro.analysis import (
    composition_panel,
    dominant_category,
    headline_concentration,
    metric_overlap,
)
from repro.core import Metric, Platform, REFERENCE_MONTH
from repro.report import render_shares, render_table
from repro.synth import GeneratorConfig, TelemetryGenerator


def main() -> None:
    # 1. Generate through the facade.  small=True is the quick-experiment
    #    scale; the default config is the paper-calibrated full scale
    #    (~1.1M sites).  Both platforms and metrics for the reference
    #    month (February 2022), all 45 study countries.
    dataset = repro.generate(small=True, seed=2022)
    print(dataset, "\n")

    # 2. Each site's ground truth (category, tags, Android app) lives
    #    in the synthetic universe; the generator's deep API reads it
    #    directly (here: the category labels).  A saved dataset carries
    #    the universe as universe.bin and reaches it through its
    #    per-site uid column.
    generator = TelemetryGenerator(GeneratorConfig.small(seed=2022))
    labels = generator.site_categories()

    # 3. Look at some rank lists.
    rows = []
    for country in ("US", "KR", "BR"):
        ranked = dataset.get(country, Platform.WINDOWS, Metric.PAGE_LOADS,
                             REFERENCE_MONTH)
        rows.append((country, ", ".join(ranked.top(5).sites)))
    print(render_table(("country", "top 5 by page loads"), rows,
                       title="Windows page loads, February 2022"))
    print()

    # 4. Traffic concentration (Figure 1's headline numbers).
    dist = dataset.distribution(Platform.WINDOWS, Metric.PAGE_LOADS)
    headline = headline_concentration(dist, Platform.WINDOWS, Metric.PAGE_LOADS)
    print(f"The top site gets {headline.top1:.0%} of Windows page loads; "
          f"{headline.sites_for_quarter} sites cover 25%, and the top 10K "
          f"cover {headline.top10k:.0%}.\n")

    # 5. What do people use the web for?  (Figure 2.)
    panel = composition_panel(
        dataset, labels, Platform.WINDOWS, Metric.TIME_ON_PAGE,
        REFERENCE_MONTH, top_n=1_500, perspective="traffic",
    )
    print(render_shares(panel.shares, "Where desktop time goes", top=6))
    print(f"\nDominant desktop time sink: {dominant_category(panel)}\n")

    # 6. Do page loads and time on page agree?  (Section 4.4.)
    overlap = metric_overlap(dataset, Platform.WINDOWS, REFERENCE_MONTH,
                             top_n=1_500)
    print(f"Loads-vs-time list intersection: median "
          f"{overlap.intersection_stats.median:.0%} across 45 countries "
          f"(Spearman {overlap.spearman_stats.median:.2f} inside it).")


if __name__ == "__main__":
    main()
