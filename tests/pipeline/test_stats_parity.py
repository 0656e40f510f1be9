"""Artifact bytes are unchanged by the stats-kernel rewiring.

Companion to ``test_kernel_parity.py`` for the PR that batched the
Fisher grid and vectorized silhouette/DBSCAN: the ``platforms`` and
``clusters`` tasks must serialize to the same bytes as a recomputation
with the pre-batch scalar loops, so content-addressed artifact stores
stay warm.  (Batched Fisher p-values may differ from the scalar path in
the last ulp, but p-values only pass through Bonferroni threshold
comparisons and are never serialized — the artifact bytes cannot move.)
"""

import numpy as np

from repro.analysis import SimilarityMatrix
from repro.core import Platform
from repro.pipeline import default_registry, encode_artifact
from repro.pipeline.tasks import _f
from repro.stats.affinity import affinity_propagation
from repro.stats.correction import bonferroni
from repro.stats.descriptive import median
from repro.stats.fisher import normalized_difference
from repro.stats.silhouette import SilhouetteReport, similarity_to_distance
from tests.oracles.stats import proportion_test, silhouette_samples_reference
from tests.oracles.weighting import (
    weighted_volume_by_category_reference as weighted_volume_by_category,
)


def run_task(name, ctx, inputs=None):
    return default_registry().get(name).fn(ctx, inputs or {})


def scalar_platform_differences(
    dataset, labels, metric, month, top_n=10_000, alpha=0.05,
    effective_n=100_000,
):
    """The pre-batch per-cell proportion_test loop over the per-site
    volume walk, verbatim."""
    windows_lists = dataset.select(Platform.WINDOWS, metric, month)
    android_lists = dataset.select(Platform.ANDROID, metric, month)
    shared = sorted(set(windows_lists) & set(android_lists))
    min_significant = len(shared) // 2 + 1
    dist_w = dataset.distribution(Platform.WINDOWS, metric)
    dist_a = dataset.distribution(Platform.ANDROID, metric)

    scores, significant, volumes_a, volumes_w = {}, {}, {}, {}
    for country in shared:
        vol_w = weighted_volume_by_category(
            windows_lists[country], labels, dist_w, top_n
        )
        vol_a = weighted_volume_by_category(
            android_lists[country], labels, dist_a, top_n
        )
        categories = sorted(set(vol_w) | set(vol_a))
        p_values = [
            proportion_test(
                vol_a.get(c, 0.0), vol_w.get(c, 0.0), effective_n
            ).p_value
            for c in categories
        ]
        rejected = bonferroni(p_values, alpha)
        for category, reject in zip(categories, rejected):
            a = vol_a.get(category, 0.0)
            w = vol_w.get(category, 0.0)
            volumes_a.setdefault(category, []).append(a)
            volumes_w.setdefault(category, []).append(w)
            if reject:
                significant[category] = significant.get(category, 0) + 1
                scores.setdefault(category, []).append(normalized_difference(a, w))

    out = []
    for category, n_sig in sorted(significant.items()):
        if n_sig < min_significant:
            continue
        out.append({
            "category": category,
            "median_score": _f(median(scores[category])),
            "n_significant": n_sig,
            "n_countries": len(shared),
            "median_android": _f(median(volumes_a[category])),
            "median_windows": _f(median(volumes_w[category])),
        })
    out.sort(key=lambda d: d["median_score"])
    return out


class TestPlatformsBytes:
    def test_unchanged(self, pipeline_ctx):
        labels = run_task("labels", pipeline_ctx)
        got = run_task("platforms", pipeline_ctx, {"labels": labels})
        want_metrics = [
            {
                "metric": metric.value,
                "differences": scalar_platform_differences(
                    pipeline_ctx.dataset, labels, metric, pipeline_ctx.month
                ),
            }
            for metric in pipeline_ctx.dataset.metrics
        ]
        want = {"metrics": want_metrics}
        assert (
            encode_artifact("platforms", "parity", got).data
            == encode_artifact("platforms", "parity", want).data
        )


def scalar_cluster_report(matrix):
    """cluster_countries with the scalar silhouette loop, pre-sort
    assembly order preserved."""
    result = affinity_propagation(matrix.values, damping=0.7, seed=0)
    distances = similarity_to_distance(matrix.values)
    if result.n_clusters >= 2:
        silhouettes = silhouette_samples_reference(distances, result.labels)
        average = silhouettes.average
        per_cluster = silhouettes.per_cluster()
    else:
        silhouettes = SilhouetteReport(
            values=np.zeros(len(matrix.countries)), labels=result.labels
        )
        average = 0.0
        per_cluster = {0: 0.0}

    clusters = []
    for cluster_index in range(result.n_clusters):
        members = [
            matrix.countries[int(i)] for i in result.members(cluster_index)
        ]
        clusters.append({
            "exemplar": matrix.countries[int(result.exemplars[cluster_index])],
            "silhouette": per_cluster.get(cluster_index, 0.0),
            "members": members,
        })
    clusters.sort(key=lambda c: -c["silhouette"])
    outliers = sorted(
        member for c in clusters if len(c["members"]) <= 1
        for member in c["members"]
    )
    return {
        "n_clusters": result.n_clusters,
        "average_silhouette": _f(average),
        "clusters": [
            dict(c, silhouette=_f(c["silhouette"])) for c in clusters
        ],
        "outliers": outliers,
    }


class TestClustersBytes:
    def test_unchanged(self, pipeline_ctx):
        similarity = run_task("similarity", pipeline_ctx)
        got = run_task("clusters", pipeline_ctx, {"similarity": similarity})
        matrix = SimilarityMatrix(
            tuple(similarity["countries"]),
            np.asarray(similarity["values"], dtype=float),
        )
        want = scalar_cluster_report(matrix)
        assert (
            encode_artifact("clusters", "parity", got).data
            == encode_artifact("clusters", "parity", want).data
        )
