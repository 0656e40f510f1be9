"""Artifact bytes are unchanged by the kernel rewiring.

The vectorized kernels must be *bit-identical* to the scalar reference
so content-addressed artifact stores stay warm across the change.  Each
test recomputes a task's result dict with the pre-kernel scalar loops
(per-pair ``weighted_rbo``, truncated-list ``percent_intersection`` /
``spearman_from_lists``) and compares the serialized artifact bytes
against the live task's output.
"""

from itertools import combinations

import numpy as np
import pytest

from repro.pipeline import default_registry, encode_artifact
from repro.pipeline.tasks import _f, _q
from repro.stats.descriptive import quartiles
from repro.stats.rbo import weighted_rbo
from repro.stats.spearman import spearman_from_lists


def run_task(name, ctx, inputs=None):
    return default_registry().get(name).fn(ctx, inputs or {})


def scalar_wrbo_matrix(lists, distribution, depth):
    """The pre-kernel matrix loop, verbatim."""
    countries = tuple(sorted(lists))
    n = len(countries)
    values = np.eye(n)
    max_depth = min(depth, min(len(lists[c]) for c in countries))
    weights = distribution.weights(max_depth)
    for i, j in combinations(range(n), 2):
        score = weighted_rbo(
            lists[countries[i]], lists[countries[j]], weights, depth=max_depth
        )
        values[i, j] = values[j, i] = score
    return countries, values


class TestSimilarityBytes:
    def test_unchanged(self, pipeline_ctx):
        got = run_task("similarity", pipeline_ctx)
        lists = pipeline_ctx.primary_lists()
        distribution = pipeline_ctx.dataset.distribution(
            pipeline_ctx.primary_platform, pipeline_ctx.primary_metric
        )
        countries, values = scalar_wrbo_matrix(lists, distribution, 10_000)
        want = {
            "platform": pipeline_ctx.primary_platform.value,
            "metric": pipeline_ctx.primary_metric.value,
            "depth": 10_000,
            "countries": list(countries),
            "values": [[_f(v) for v in row] for row in values.tolist()],
        }
        assert (
            encode_artifact("similarity", "parity", got).data
            == encode_artifact("similarity", "parity", want).data
        )


def scalar_month_pair(dataset, platform, metric, month_a, month_b, bucket):
    """Pre-kernel month_pair_similarity: truncated lists + rank dicts."""
    lists_a = dataset.select(platform, metric, month_a)
    lists_b = dataset.select(platform, metric, month_b)
    shared = sorted(set(lists_a) & set(lists_b))
    intersections = []
    rhos = []
    for country in shared:
        a = lists_a[country].top(bucket)
        b = lists_b[country].top(bucket)
        intersections.append(a.percent_intersection(b))
        rho = spearman_from_lists(a, b)
        if rho == rho:
            rhos.append(rho)
    return {
        "month_a": str(month_a),
        "month_b": str(month_b),
        "intersection": _q(quartiles(intersections)),
        "spearman": _q(quartiles(rhos or [float("nan")])),
    }


class TestTemporalBytes:
    def test_unchanged(self, pipeline_ctx):
        from repro.analysis.temporal import DEFAULT_BUCKETS

        got = run_task("temporal", pipeline_ctx)
        dataset = pipeline_ctx.dataset
        platform = pipeline_ctx.primary_platform
        metric = pipeline_ctx.primary_metric
        months = dataset.months

        def series(pairs, bucket):
            return [
                scalar_month_pair(dataset, platform, metric, a, b, bucket)
                for a, b in pairs
            ]

        adjacent_pairs = list(zip(months, months[1:]))
        want_adjacent = [
            {"bucket": bucket, "pairs": series(adjacent_pairs, bucket)}
            for bucket in DEFAULT_BUCKETS
        ]
        anchor = months[0]
        want_anchored = series(
            [(anchor, m) for m in months if m > anchor], DEFAULT_BUCKETS[-1]
        )
        assert got["adjacent"] == want_adjacent
        assert got["anchored"] == want_anchored
        want = dict(got, adjacent=want_adjacent, anchored=want_anchored)
        assert (
            encode_artifact("temporal", "parity", got).data
            == encode_artifact("temporal", "parity", want).data
        )


class TestIntersectionsBytes:
    def test_unchanged(self, pipeline_ctx):
        got = run_task("intersections", pipeline_ctx)
        lists = pipeline_ctx.primary_lists()
        countries = sorted(lists)
        want_buckets = []
        for bucket in (10, 100, 1_000, 10_000):
            tops = {c: lists[c].top(bucket) for c in countries}
            values = [
                tops[a].percent_intersection(tops[b])
                for a, b in combinations(countries, 2)
            ]
            ordered = np.sort(np.asarray(values))[::-1]
            want_buckets.append({
                "bucket": bucket,
                "n_pairs": len(ordered),
                "mean": _f(ordered.mean()),
                "median": _f(quartiles(ordered).median),
            })
        want = dict(got, buckets=want_buckets)
        assert (
            encode_artifact("intersections", "parity", got).data
            == encode_artifact("intersections", "parity", want).data
        )


class TestMetricOverlapBytes:
    def test_unchanged(self, pipeline_ctx):
        import math

        got = run_task("overlap", pipeline_ctx)
        dataset = pipeline_ctx.dataset
        month = pipeline_ctx.month
        for entry in got["platforms"]:
            platform = next(
                p for p in dataset.platforms if p.value == entry["platform"]
            )
            from repro.core import Metric

            loads = dataset.select(platform, Metric.PAGE_LOADS, month)
            time = dataset.select(platform, Metric.TIME_ON_PAGE, month)
            shared = sorted(set(loads) & set(time))
            intersections = {}
            spearmans = {}
            for country in shared:
                a = loads[country].top(10_000)
                b = time[country].top(10_000)
                intersections[country] = a.percent_intersection(b)
                rho = spearman_from_lists(a, b)
                if not math.isnan(rho):
                    spearmans[country] = rho
            istats = quartiles(intersections.values())
            sstats = quartiles(spearmans.values())
            want_entry = dict(
                entry,
                intersection=_q(istats),
                spearman=_q(sstats),
                per_country_intersection={
                    c: _f(v) for c, v in sorted(intersections.items())
                },
            )
            assert (
                encode_artifact("overlap", "parity", entry).data
                == encode_artifact("overlap", "parity", want_entry).data
            )
