"""The default task registry: every paper analysis as a DAG node.

Each task turns one :mod:`repro.analysis` module into a named,
cacheable pipeline step: the body selects the right dataset slice,
runs the analysis, and returns a JSON-shaped summary (the artifact);
``render`` turns that artifact back into the plain-text table/figure
the CLI and run reports print.  Dependencies express real data flow —
ground truth (``labels``/``tags``/``has_app``) feeds the composition
family, the endemicity scoring feeds the popularity mix, and the wRBO
matrix feeds clustering and geography — and the runner executes them
one at a time in that dependency order.

Heavy imports live inside task bodies: building the registry (e.g. to
populate ``analyze --analysis`` choices) costs nothing.
"""

from __future__ import annotations

import math

from ..core.errors import TaskUnavailable
from ..core.types import Metric, Platform
from ..report import render_shares, render_table
from .context import TaskContext
from .registry import TaskRegistry


# -- serialization helpers ------------------------------------------------------------

def _f(value: float) -> float | None:
    """JSON-safe float: non-finite values become null."""
    value = float(value)
    return value if math.isfinite(value) else None


def _q(stats) -> dict[str, float | None]:
    """Serialize a :class:`repro.stats.descriptive.Quartiles`."""
    return {"q25": _f(stats.q25), "median": _f(stats.median), "q75": _f(stats.q75)}


def _config_key(ctx: TaskContext) -> str:
    return ctx.config_fingerprint()


def _sorted_distributions(ctx: TaskContext):
    return sorted(
        ctx.dataset.distributions().items(),
        key=lambda kv: (kv[0][0].value, kv[0][1].value),
    )


def _pct(value: float | None) -> str:
    return "n/a" if value is None else f"{value:.1%}"


REGISTRY = TaskRegistry()


# -- ground truth ---------------------------------------------------------------------
#
# A site's category, tags and Android-app flag live once, in the
# universe the dataset carries; the dataset's uid column says which
# universe site each of its sites is.  The keys still fold in the
# generator-config fingerprint that names that universe.

def _site_facts(ctx: TaskContext):
    """The site table, each site's universe uid (-1: none) and the
    universe's facts per uid."""
    uids = ctx.dataset.site_uids()
    if uids is None:
        raise TaskUnavailable(
            "the dataset stores no universe ids (it was saved before "
            "datasets carried them); `repro ingest` a month to write them"
        )
    return ctx.dataset.site_table(), uids, ctx.site_facts()


@REGISTRY.task(
    "labels", section="§3.3", title="Site category labels",
    context_key=_config_key, reads="all-months",
)
def _labels(ctx: TaskContext, inputs: dict[str, object]) -> object:
    """Ground-truth category per site, for the dataset's sites."""
    import numpy as np

    names, uids, facts = _site_facts(ctx)
    named = uids >= 0
    categories = np.array(facts.categories, dtype=object)
    labels = dict(zip(names[named].tolist(),
                      categories[facts.category_id[uids[named]]].tolist()))
    return {site: labels[site] for site in sorted(labels)}


@REGISTRY.task(
    "tags", section="§5.3.2", title="Descriptive site tags",
    context_key=_config_key, reads="all-months",
)
def _tags(ctx: TaskContext, inputs: dict[str, object]) -> object:
    import numpy as np

    names, uids, facts = _site_facts(ctx)
    tagged = np.flatnonzero(np.isin(uids, list(facts.tags)))
    return {names[sid]: list(facts.tags[uid])
            for sid, uid in zip(tagged.tolist(), uids[tagged].tolist())}


@REGISTRY.task(
    "has_app", section="§4.1.2", title="Android app roster",
    context_key=_config_key, reads="all-months",
)
def _has_app(ctx: TaskContext, inputs: dict[str, object]) -> object:
    names, uids, facts = _site_facts(ctx)
    apps = uids >= 0
    apps[apps] = facts.has_android_app[uids[apps]]
    return {"sites": sorted(names[apps].tolist())}


# -- concentration (§4.1, Figure 1) ---------------------------------------------------

def _render_concentration(result) -> str:
    rows = [
        (f"{s['platform']}/{s['metric']}", _pct(s["top1"]),
         s["sites_for_quarter"], _pct(s["top10k"]))
        for s in result["series"]
    ]
    return render_table(
        ("breakdown", "top-1 share", "sites for 25%", "top-10K share"),
        rows, title="Traffic concentration (Figure 1)",
    )


@REGISTRY.task(
    "concentration", section="§4.1, Figure 1", title="Traffic concentration",
    render=_render_concentration,
)
def _concentration(ctx: TaskContext, inputs: dict[str, object]) -> object:
    from ..analysis import concentration_curve, headline_concentration

    series = []
    for (platform, metric), dist in _sorted_distributions(ctx):
        headline = headline_concentration(dist, platform, metric)
        curve = concentration_curve(dist, platform, metric)
        series.append({
            "platform": platform.value,
            "metric": metric.value,
            "top1": _f(headline.top1),
            "sites_for_quarter": headline.sites_for_quarter,
            "sites_for_half": headline.sites_for_half,
            "top100": _f(headline.top100),
            "top10k": _f(headline.top10k),
            "top1m": _f(headline.top1m),
            "curve": [
                {"rank": row.rank, "share": _f(row.cumulative_share)}
                for row in curve.rows
            ],
        })
    return {"series": series}


# -- composition (§4.2.2, Figure 2) ---------------------------------------------------

def _render_composition(result) -> str:
    blocks = []
    for panel in result["panels"]:
        if panel["perspective"] != "traffic" or panel["top_n"] != 10_000:
            continue
        blocks.append(render_shares(
            panel["shares"], f"{panel['platform']} / {panel['metric']}", top=8,
        ))
    return "\n\n".join(blocks)


@REGISTRY.task(
    "composition", deps=("labels",), params={"top_ns": [100, 10_000]},
    section="§4.2.2, Figure 2", title="Category composition",
    render=_render_composition,
)
def _composition(ctx: TaskContext, inputs: dict[str, object]) -> object:
    from ..analysis import composition_panel, dominant_category

    labels = ctx.category_codes(inputs["labels"])
    panels = []
    for platform in ctx.dataset.platforms:
        for metric in ctx.dataset.metrics:
            for top_n in (100, 10_000):
                for perspective in ("domains", "traffic"):
                    panel = composition_panel(
                        ctx.dataset, labels, platform, metric, ctx.month,
                        top_n=top_n, perspective=perspective,
                    )
                    panels.append({
                        "platform": platform.value,
                        "metric": metric.value,
                        "top_n": top_n,
                        "perspective": perspective,
                        "shares": {c: _f(s) for c, s in panel.shares.items()},
                        "dominant": dominant_category(panel),
                    })
    return {"panels": panels}


# -- prevalence (§4.2.3, Figure 3) ----------------------------------------------------

def _render_prevalence(result) -> str:
    rows = [
        (f"{b['platform']}/{b['metric']}", c["category"],
         _pct(c["points"][0]["median"]), _pct(c["points"][-1]["median"]),
         "-" if c["head_tail_ratio"] is None else f"{c['head_tail_ratio']:.1f}x")
        for b in result["breakdowns"] for c in b["curves"]
    ]
    return render_table(
        ("breakdown", "category", "head median", "tail median", "head/tail"),
        rows, title="Category prevalence by rank (Figure 3)",
    )


@REGISTRY.task(
    "prevalence", deps=("labels",), section="§4.2.3, Figure 3",
    title="Category prevalence by rank", render=_render_prevalence,
)
def _prevalence(ctx: TaskContext, inputs: dict[str, object]) -> object:
    from ..analysis import head_tail_ratio, prevalence_by_rank

    labels = ctx.category_codes(inputs["labels"])
    breakdowns = []
    for platform in ctx.dataset.platforms:
        for metric in ctx.dataset.metrics:
            curves = prevalence_by_rank(
                ctx.dataset, labels, platform, metric, ctx.month,
            )
            breakdowns.append({
                "platform": platform.value,
                "metric": metric.value,
                "curves": [
                    {
                        "category": curve.category,
                        "points": [
                            {"threshold": p.threshold, **_q(p.stats)}
                            for p in curve.points
                        ],
                        "head_tail_ratio": _f(head_tail_ratio(curve))
                        if curve.points else None,
                    }
                    for curve in curves
                ],
            })
    return {"breakdowns": breakdowns}


# -- platform differences (§4.3, Figure 4) --------------------------------------------

def _render_platforms(result) -> str:
    rows = [
        (m["metric"], d["category"], f"{d['median_score']:+.2f}",
         f"{d['n_significant']}/{d['n_countries']}")
        for m in result["metrics"] for d in m["differences"]
    ]
    return render_table(
        ("metric", "category", "median score", "significant"),
        rows, title="Desktop vs mobile category skew (Figure 4)",
    )


@REGISTRY.task(
    "platforms", deps=("labels",), params={"top_n": 10_000},
    section="§4.3, Figures 4 & 15", title="Platform differences",
    render=_render_platforms,
)
def _platforms(ctx: TaskContext, inputs: dict[str, object]) -> object:
    from ..analysis import platform_differences

    if not set(Platform.studied()) <= set(ctx.dataset.platforms):
        raise TaskUnavailable(
            "platform comparison needs both windows and android slices"
        )
    labels = ctx.category_codes(inputs["labels"])
    metrics = []
    for metric in ctx.dataset.metrics:
        differences = platform_differences(
            ctx.dataset, labels, metric, ctx.month, top_n=10_000,
        )
        metrics.append({
            "metric": metric.value,
            "differences": [
                {
                    "category": d.category,
                    "median_score": _f(d.median_score),
                    "n_significant": d.n_significant,
                    "n_countries": d.n_countries,
                    "median_android": _f(d.median_android),
                    "median_windows": _f(d.median_windows),
                }
                for d in differences
            ],
        })
    return {"metrics": metrics}


# -- loads vs time (§4.4, Figure 5) ---------------------------------------------------

def _render_overlap(result) -> str:
    rows = [
        (r["platform"], _pct(r["intersection"]["median"]),
         "n/a" if r["spearman"]["median"] is None
         else f"{r['spearman']['median']:.2f}")
        for r in result["platforms"]
    ]
    return render_table(
        ("platform", "median intersection", "median Spearman"), rows,
        title="Loads vs time agreement (Section 4.4)",
    )


@REGISTRY.task(
    "overlap", params={"top_n": 10_000}, section="§4.4, Figures 5 & 16",
    title="Metric agreement", render=_render_overlap,
)
def _overlap(ctx: TaskContext, inputs: dict[str, object]) -> object:
    from ..analysis import metric_overlap

    # Loop-invariant: both metrics are a dataset property, so check once
    # up front instead of re-testing (and failing) per platform.
    if not {Metric.PAGE_LOADS, Metric.TIME_ON_PAGE} <= set(ctx.dataset.metrics):
        raise TaskUnavailable("dataset lacks both metrics")
    platforms = []
    for platform in ctx.dataset.platforms:
        overlap = metric_overlap(ctx.dataset, platform, ctx.month)
        platforms.append({
            "platform": platform.value,
            "intersection": _q(overlap.intersection_stats),
            "spearman": _q(overlap.spearman_stats),
            "per_country_intersection": {
                c: _f(v) for c, v in sorted(overlap.intersections.items())
            },
        })
    return {"platforms": platforms}


# -- temporal stability (§4.5) --------------------------------------------------------

def _render_temporal(result) -> str:
    rows = [
        (str(b["bucket"]), p["month_a"], p["month_b"],
         _pct(p["intersection"]["median"]))
        for b in result["adjacent"] for p in b["pairs"]
    ]
    table = render_table(
        ("bucket", "month a", "month b", "median intersection"), rows,
        title="Adjacent-month similarity (Section 4.5)",
    )
    anomaly = result["december"]
    if anomaly is not None:
        table += (
            f"\nDecember gap: {anomaly['gap']:+.3f} "
            f"(december {_pct(anomaly['december_intersection'])} vs "
            f"other {_pct(anomaly['other_intersection'])})"
        )
    return table


@REGISTRY.task(
    "temporal", section="§4.5", title="Temporal stability",
    render=_render_temporal, reads="all-months",
)
def _temporal(ctx: TaskContext, inputs: dict[str, object]) -> object:
    from ..analysis import adjacent_month_series, anchored_series, december_anomaly
    from ..analysis.temporal import DEFAULT_BUCKETS

    if len(ctx.dataset.months) < 2:
        raise TaskUnavailable("temporal stability needs at least two months")
    platform, metric = ctx.primary_platform, ctx.primary_metric

    def serialize(series) -> list[dict[str, object]]:
        return [
            {
                "month_a": str(s.month_a),
                "month_b": str(s.month_b),
                "intersection": _q(s.intersection),
                "spearman": _q(s.spearman),
            }
            for s in series
        ]

    adjacent = [
        {
            "bucket": bucket,
            "pairs": serialize(
                adjacent_month_series(ctx.dataset, platform, metric, bucket)
            ),
        }
        for bucket in DEFAULT_BUCKETS
    ]
    anchored = serialize(
        anchored_series(ctx.dataset, platform, metric, DEFAULT_BUCKETS[-1])
    )
    try:
        anomaly = december_anomaly(ctx.dataset, platform, metric)
        december = {
            "december_intersection": _f(anomaly.december_intersection),
            "other_intersection": _f(anomaly.other_intersection),
            "gap": _f(anomaly.gap),
            "is_anomalous": anomaly.is_anomalous,
        }
    except ValueError:
        december = None
    return {
        "platform": platform.value,
        "metric": metric.value,
        "adjacent": adjacent,
        "anchored": anchored,
        "december": december,
    }


# -- endemicity (§5.1–5.2) ------------------------------------------------------------

def _render_endemicity(result) -> str:
    rows = [
        ("eligible sites", result["n_sites"]),
        ("globally popular", result["n_global"]),
        ("nationally popular", result["n_national"]),
        ("global fraction", _pct(result["global_fraction"])),
        ("single-list exclusives", _pct(result["exclusive_fraction"])),
    ] + [(f"shape: {shape}", n) for shape, n in sorted(result["shapes"].items())]
    return render_table(
        ("quantity", "value"), rows,
        title="Endemicity of the popular web (Section 5.1)",
    )


@REGISTRY.task(
    "endemicity", params={"eligible_rank": 1_000, "mad_threshold": 3.5},
    section="§5.1–5.2, Figures 6–8", title="Endemicity scoring",
    render=_render_endemicity,
)
def _endemicity(ctx: TaskContext, inputs: dict[str, object]) -> object:
    from collections import Counter

    from ..analysis import curve_shapes, exclusivity_fraction, score_endemicity

    lists = ctx.primary_lists()
    if len(lists) < 2:
        raise TaskUnavailable("endemicity needs at least two countries")
    vocab = ctx.dataset.vocabulary()
    result = score_endemicity(lists, eligible_rank=1_000, mad_threshold=3.5, vocab=vocab)
    fraction, population = exclusivity_fraction(lists, head_rank=1_000, vocab=vocab)
    return {
        "platform": ctx.primary_platform.value,
        "metric": ctx.primary_metric.value,
        "n_sites": len(result.sites),
        "n_global": len(result.global_sites),
        "n_national": len(result.national_sites),
        "global_fraction": _f(result.global_fraction),
        "exclusive_fraction": _f(fraction),
        "exclusive_population": population,
        "shapes": dict(Counter(curve_shapes(result.ranks).tolist())),
        "global_sites": sorted(result.global_sites),
        "national_sites": sorted(result.national_sites),
    }


def _render_endemic_categories(result) -> str:
    return (
        render_shares(result["global"], "Globally popular sites", top=8)
        + "\n\n"
        + render_shares(result["national"], "Nationally popular sites", top=8)
    )


@REGISTRY.task(
    "endemic_categories", deps=("endemicity", "labels"),
    section="§5.2, Figure 8", title="Global vs national categories",
    render=_render_endemic_categories,
)
def _endemic_categories(ctx: TaskContext, inputs: dict[str, object]) -> object:
    from ..analysis import category_shares

    labels = inputs["labels"]
    endemicity = inputs["endemicity"]
    return {
        "global": category_shares(endemicity["global_sites"], labels),
        "national": category_shares(endemicity["national_sites"], labels),
    }


# -- popularity mix (§5.2, Figure 9) --------------------------------------------------

def _render_popularity_mix(result) -> str:
    rows = [
        (f"{b['bucket'][0]}-{b['bucket'][1]}", _pct(b["median"]),
         _pct(b["q25"]), _pct(b["q75"]))
        for b in result["buckets"]
    ]
    table = render_table(
        ("rank bucket", "global share (median)", "q25", "q75"), rows,
        title="Globally popular share by rank (Figure 9)",
    )
    majority = result["national_majority_bucket"]
    if majority is not None:
        table += (
            f"\nNational sites reach parity in bucket "
            f"{majority[0]}-{majority[1]}"
        )
    return table


@REGISTRY.task(
    "popularity_mix", deps=("endemicity",), section="§5.2, Figures 9 & 17",
    title="Global vs national mix by rank", render=_render_popularity_mix,
)
def _popularity_mix(ctx: TaskContext, inputs: dict[str, object]) -> object:
    from ..analysis import global_share_by_rank, national_majority_rank

    lists = ctx.primary_lists()
    rows = global_share_by_rank(
        lists, frozenset(inputs["endemicity"]["global_sites"])
    )
    majority = national_majority_rank(rows)
    return {
        "buckets": [
            {"bucket": list(row.bucket), **_q(row.stats)} for row in rows
        ],
        "national_majority_bucket": list(majority) if majority else None,
    }


# -- similarity (§5.3.1, Figure 10) ---------------------------------------------------

def _render_similarity(result) -> str:
    import numpy as np

    values = np.asarray(result["values"], dtype=float)
    n = len(result["countries"])
    off_diagonal = values[~np.eye(n, dtype=bool)] if n > 1 else values
    rows = [
        ("countries", n),
        ("depth", result["depth"]),
        ("mean pairwise wRBO", f"{float(off_diagonal.mean()):.3f}"),
        ("min pairwise wRBO", f"{float(off_diagonal.min()):.3f}"),
        ("max pairwise wRBO", f"{float(off_diagonal.max()):.3f}"),
    ]
    return render_table(
        ("quantity", "value"), rows,
        title="Country similarity, weighted RBO (Figure 10)",
    )


@REGISTRY.task(
    "similarity", params={"depth": 10_000}, section="§5.3.1, Figures 10 & 18–20",
    title="Country similarity matrix", render=_render_similarity,
)
def _similarity(ctx: TaskContext, inputs: dict[str, object]) -> object:
    from ..analysis import rbo_matrix_for

    if len(ctx.primary_lists()) < 2:
        raise TaskUnavailable("similarity needs at least two countries")
    matrix = rbo_matrix_for(
        ctx.dataset, ctx.primary_platform, ctx.primary_metric, ctx.month,
        depth=10_000,
    )
    return {
        "platform": ctx.primary_platform.value,
        "metric": ctx.primary_metric.value,
        "depth": 10_000,
        "countries": list(matrix.countries),
        "values": [[_f(v) for v in row] for row in matrix.values.tolist()],
    }


def _matrix_from(result) -> "object":
    import numpy as np

    from ..analysis import SimilarityMatrix

    return SimilarityMatrix(
        tuple(result["countries"]),
        np.asarray(result["values"], dtype=float),
    )


# -- clustering (§5.3.1, Figure 11) ---------------------------------------------------

def _render_clusters(result) -> str:
    return render_table(
        ("exemplar", "SC", "members"),
        [(c["exemplar"], f"{c['silhouette']:+.2f}", " ".join(c["members"]))
         for c in result["clusters"]],
        title=f"{result['n_clusters']} clusters, "
              f"avg SC {result['average_silhouette']:+.2f}",
    )


@REGISTRY.task(
    "clusters", deps=("similarity",), section="§5.3.1, Figures 11 & 21",
    title="Country clusters", render=_render_clusters,
)
def _clusters(ctx: TaskContext, inputs: dict[str, object]) -> object:
    from ..analysis import cluster_countries

    report = cluster_countries(_matrix_from(inputs["similarity"]))
    return {
        "n_clusters": report.n_clusters,
        "average_silhouette": _f(report.average_silhouette),
        "clusters": [
            {
                "exemplar": c.exemplar,
                "silhouette": _f(c.silhouette),
                "members": list(c.members),
            }
            for c in report.clusters
        ],
        "outliers": list(report.outliers()),
    }


# -- geography (§5.3.1/5.3.3) ---------------------------------------------------------

def _render_geography(result) -> str:
    def fmt(value):
        return "n/a" if value is None else f"{value:.3f}"

    rows = [
        ("same region group", fmt(result["same_region_group"])),
        ("shared language", fmt(result["shared_language"])),
        ("same continent only", fmt(result["same_continent_only"])),
        ("unrelated", fmt(result["unrelated"])),
        ("explained variance (R²)", fmt(result["explained_variance"])),
    ]
    return render_table(
        ("relationship", "mean similarity"), rows,
        title="What geography and language explain (Section 5.3.3)",
    )


@REGISTRY.task(
    "geography", deps=("similarity",), section="§5.3.3",
    title="Geography and language", render=_render_geography,
)
def _geography(ctx: TaskContext, inputs: dict[str, object]) -> object:
    from ..analysis import decompose_similarity, explained_variance

    matrix = _matrix_from(inputs["similarity"])
    decomposition = decompose_similarity(matrix)
    return {
        "shared_language": _f(decomposition.shared_language),
        "same_region_group": _f(decomposition.same_region_group),
        "same_continent_only": _f(decomposition.same_continent_only),
        "unrelated": _f(decomposition.unrelated),
        "n_pairs": decomposition.n_pairs,
        "explained_variance": _f(explained_variance(matrix)),
    }


# -- global south patterns (§5.3.2) ---------------------------------------------------

def _render_south(result) -> str:
    rows = [
        (tag, len(p["south"]), len(p["north"]), _pct(p["south_fraction"]))
        for tag, p in sorted(result.items())
    ]
    return render_table(
        ("class", "south", "north", "south fraction"), rows,
        title="Top-10 classes by hemisphere (Section 5.3.2)",
    )


@REGISTRY.task(
    "south_patterns", deps=("tags",), params={"top_k": 10},
    section="§5.3.2", title="Global-south top-10 patterns",
    render=_render_south,
)
def _south_patterns(ctx: TaskContext, inputs: dict[str, object]) -> object:
    from ..analysis import global_south_patterns

    tags = {site: tuple(t) for site, t in inputs["tags"].items()}
    patterns = global_south_patterns(ctx.primary_lists(), tags, top_k=10)
    return {
        tag: {
            "south": list(p.south_countries),
            "north": list(p.north_countries),
            "south_fraction": _f(p.south_fraction),
        }
        for tag, p in patterns.items()
    }


# -- pairwise intersections (§5.3.1, Figure 12) ---------------------------------------

def _render_intersections(result) -> str:
    rows = [
        (b["bucket"], b["n_pairs"], _pct(b["mean"]), _pct(b["median"]))
        for b in result["buckets"]
    ]
    return render_table(
        ("rank bucket", "pairs", "mean intersection", "median"), rows,
        title="Pairwise intersections by bucket (Figure 12)",
    )


@REGISTRY.task(
    "intersections", params={"buckets": [10, 100, 1_000, 10_000]},
    section="§5.3.1, Figure 12", title="Pairwise intersections",
    render=_render_intersections,
)
def _intersections(ctx: TaskContext, inputs: dict[str, object]) -> object:
    from ..analysis import intersection_curves
    from ..stats.descriptive import quartiles

    if len(ctx.primary_lists()) < 2:
        raise TaskUnavailable("intersections need at least two countries")
    curves = intersection_curves(
        ctx.dataset, ctx.primary_platform, ctx.primary_metric, ctx.month,
    )
    return {
        "platform": ctx.primary_platform.value,
        "metric": ctx.primary_metric.value,
        "buckets": [
            {
                "bucket": curve.bucket,
                "n_pairs": curve.n_pairs,
                "mean": _f(curve.mean_intersection),
                "median": _f(quartiles(curve.sorted_values).median),
            }
            for curve in curves
        ],
    }


# -- top-10 composition (§4.2.1/5.3.2, Table 4) ---------------------------------------

def _render_top10(result) -> str:
    rows = [
        (category, p["n_countries"], p["n_sites"])
        for category, p in sorted(
            result["categories"].items(),
            key=lambda kv: (-kv[1]["n_countries"], kv[0]),
        )[:10]
    ]
    table = render_table(
        ("category", "countries", "sites"), rows,
        title="Top-10 category presence (Table 4)",
    )
    exclusives = result["windows_exclusives"]
    if exclusives is not None:
        table += (
            f"\nWindows-only top sites: {exclusives['n_sites']} "
            f"({_pct(exclusives['app_fraction'])} with an Android app)"
        )
    return table


@REGISTRY.task(
    "top10", deps=("labels", "tags", "has_app"), params={"top_k": 10},
    section="§4.2.1/§5.3.2, Table 4", title="Top-10 composition",
    render=_render_top10,
)
def _top10(ctx: TaskContext, inputs: dict[str, object]) -> object:
    from ..analysis import (
        category_presence,
        tag_presence,
        union_of_top_sites,
        windows_only_top_sites,
    )

    lists = ctx.primary_lists()
    labels = inputs["labels"]
    tags = {site: tuple(t) for site, t in inputs["tags"].items()}
    presence = category_presence(lists, labels, top_k=10)
    tag_rows = tag_presence(lists, tags, top_k=10)
    union = union_of_top_sites(ctx.dataset, ctx.month, top_k=10)
    if set(Platform.studied()) <= set(ctx.dataset.platforms):
        has_app = {site: True for site in inputs["has_app"]["sites"]}
        exclusives = windows_only_top_sites(
            ctx.dataset, ctx.month, has_app, top_k=10,
        )
        windows_exclusives = {
            "n_sites": len(exclusives.sites),
            "n_with_app": len(exclusives.with_android_app),
            "app_fraction": _f(exclusives.app_fraction),
        }
    else:
        windows_exclusives = None
    return {
        "categories": {
            category: {"n_countries": p.n_countries, "n_sites": p.n_sites}
            for category, p in presence.items()
        },
        "tags": {
            tag: {"n_countries": p.n_countries, "n_sites": p.n_sites}
            for tag, p in tag_rows.items()
        },
        "union_size": len(union),
        "windows_exclusives": windows_exclusives,
    }


# -- sampling strategies (§6) ---------------------------------------------------------

def _render_sampling(result) -> str:
    rows = [
        (r["name"], r["size"], _pct(r["median"]), _pct(r["minimum"]),
         " ".join(r["worst_countries"]))
        for r in (result["global"], result["hybrid"])
    ]
    return render_table(
        ("study set", "sites", "median coverage", "min", "worst countries"),
        rows, title="Study-set coverage (Section 6)",
    )


@REGISTRY.task(
    "sampling",
    params={"global_n": 10_000, "hybrid_global_n": 1_000,
            "hybrid_per_country_n": 1_000},
    section="§6", title="Study-set sampling", render=_render_sampling,
)
def _sampling(ctx: TaskContext, inputs: dict[str, object]) -> object:
    from ..analysis import compare_strategies

    lists = ctx.primary_lists()
    if not lists:
        raise TaskUnavailable("sampling needs at least one country")
    distribution = ctx.dataset.distribution(
        ctx.primary_platform, ctx.primary_metric
    )
    global_report, hybrid_report = compare_strategies(
        lists, distribution, vocab=ctx.dataset.vocabulary()
    )

    def serialize(report) -> dict[str, object]:
        return {
            "name": report.name,
            "size": report.size,
            **_q(report.stats),
            "minimum": _f(report.minimum),
            "worst_countries": report.worst_countries,
        }

    return {"global": serialize(global_report), "hybrid": serialize(hybrid_report)}


def default_registry() -> TaskRegistry:
    """The registry covering every wired paper analysis."""
    return REGISTRY
