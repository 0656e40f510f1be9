"""Batched/vectorized stats kernels vs their scalar references.

The headline measurement: the full Figure 4 Fisher grid — every
category×country cell over all 45 shared countries at the paper's
``effective_n`` = 100,000 — through :func:`proportion_test_batch`
(one log-factorial table, repeated tables memoized, one windowed pmf
per distinct margin) against the per-cell scalar ``proportion_test``
oracle (``tests/oracles/stats.py``).  Two batch timings are reported:

* **cold** — the shared log-factorial table is rebuilt from scratch, a
  cost paid once per process.
* **steady-state** — the table is warm, as every call after the first
  sees.  The ≥10× assertion runs against this number.

Batched p-values may differ from the scalar reference in the last ulp
(``np.exp`` vs ``math.exp``); the per-country Bonferroni decisions must
be *identical*, which is what keeps the ``platforms`` artifact bytes
unchanged.  The silhouette and DBSCAN kernels are also timed against
their scalar references on a larger synthetic workload and must be
bit/label-identical.  Results land in ``BENCH_stats.json``.
"""

import time

import numpy as np

import repro.stats.fisher as fisher_mod
from repro.analysis.weighting import weighted_volume_by_category
from repro.core import Metric, Platform, REFERENCE_MONTH
from repro.stats.correction import bonferroni
from repro.stats.dbscan import dbscan
from repro.stats.fisher import proportion_test_batch
from repro.stats.silhouette import silhouette_samples
from tests.oracles.stats import (
    dbscan_reference,
    proportion_test,
    silhouette_samples_reference,
)

from _bench_utils import print_comparison, write_bench_json

MIN_FISHER_SPEEDUP = 10.0
EFFECTIVE_N = 100_000
TOP_N = 10_000
ALPHA = 0.05


def _merge_bench_json(section, payload):
    """Both benchmarks land in one BENCH_stats.json, keyed by section."""
    import json
    from pathlib import Path

    path = Path("BENCH_stats.json")
    merged = json.loads(path.read_text()) if path.exists() else {}
    merged[section] = payload
    write_bench_json("stats", merged)


def _figure4_cells(dataset, labels, metric):
    """Every (android share, windows share) cell of the Figure 4 grid,
    flattened, with per-country slice bounds for Bonferroni."""
    windows_lists = dataset.select(Platform.WINDOWS, metric, REFERENCE_MONTH)
    android_lists = dataset.select(Platform.ANDROID, metric, REFERENCE_MONTH)
    shared = sorted(set(windows_lists) & set(android_lists))
    dist_w = dataset.distribution(Platform.WINDOWS, metric)
    dist_a = dataset.distribution(Platform.ANDROID, metric)
    shares_a, shares_w, slices = [], [], []
    for country in shared:
        vol_w = weighted_volume_by_category(
            windows_lists[country], labels, dist_w, TOP_N
        )
        vol_a = weighted_volume_by_category(
            android_lists[country], labels, dist_a, TOP_N
        )
        categories = sorted(set(vol_w) | set(vol_a))
        start = len(shares_a)
        for category in categories:
            shares_a.append(vol_a.get(category, 0.0))
            shares_w.append(vol_w.get(category, 0.0))
        slices.append((start, len(shares_a)))
    return shares_a, shares_w, slices, len(shared)


def test_fisher_grid_speedup(benchmark, feb_dataset, labels):
    shares_a, shares_w, slices, n_countries = _figure4_cells(
        feb_dataset, labels, Metric.PAGE_LOADS
    )
    n_cells = len(shares_a)

    start = time.perf_counter()
    scalar = [
        proportion_test(a, w, EFFECTIVE_N).p_value
        for a, w in zip(shares_a, shares_w)
    ]
    scalar_seconds = time.perf_counter() - start

    # Cold: rebuild the shared log-factorial table from scratch.
    fisher_mod._LOG_FACTORIALS = np.zeros(1)
    start = time.perf_counter()
    proportion_test_batch(shares_a, shares_w, EFFECTIVE_N)
    cold_seconds = time.perf_counter() - start

    def batch_compute():
        return proportion_test_batch(shares_a, shares_w, EFFECTIVE_N)

    start = time.perf_counter()
    batch_results = batch_compute()
    batch_seconds = time.perf_counter() - start
    benchmark.pedantic(batch_compute, rounds=1, iterations=1)

    batch = [r.p_value for r in batch_results]
    speedup = scalar_seconds / batch_seconds
    cold_speedup = scalar_seconds / cold_seconds

    # Per-country Bonferroni decisions — the thing the artifact
    # serialization actually depends on — must be identical.
    decisions_identical = all(
        bonferroni(scalar[s:e], ALPHA) == bonferroni(batch[s:e], ALPHA)
        for s, e in slices
    )
    p_close = bool(np.allclose(batch, scalar, rtol=1e-12, atol=0.0))

    print_comparison(
        [
            ("countries", 45, n_countries, "all of the paper's markets"),
            ("grid cells", "", n_cells, "category × country"),
            ("effective n", 100_000, EFFECTIVE_N, "per proportion test"),
            ("scalar seconds", "", round(scalar_seconds, 3), "per-cell loop"),
            ("batch seconds (cold)", "", round(cold_seconds, 3),
             "includes table build"),
            ("batch seconds (steady)", "", round(batch_seconds, 3),
             "log-factorial table warm"),
            ("speedup (steady)", ">= 10x", round(speedup, 1), "asserted below"),
            ("speedup (cold)", "", round(cold_speedup, 1), ""),
        ],
        "Batched vs scalar — Figure 4 Fisher grid",
    )
    _merge_bench_json("fisher", {
        "workload": "figure4_fisher_grid",
        "countries": n_countries,
        "cells": n_cells,
        "effective_n": EFFECTIVE_N,
        "scalar_seconds": scalar_seconds,
        "batch_seconds_cold": cold_seconds,
        "batch_seconds_steady": batch_seconds,
        "speedup_cold": cold_speedup,
        "speedup_steady": speedup,
        "p_values_close": p_close,
        "bonferroni_decisions_identical": decisions_identical,
    })

    # Exactness first: a fast wrong answer is worthless.
    assert p_close
    assert decisions_identical
    assert speedup >= MIN_FISHER_SPEEDUP, (
        f"batch path only {speedup:.1f}x faster "
        f"({scalar_seconds:.2f}s scalar vs {batch_seconds:.2f}s batch)"
    )


def test_silhouette_dbscan_parity_at_scale(benchmark):
    """Vectorized silhouette/DBSCAN vs their scalar references on a
    planted-blob workload ~30× the country matrix.  Speedups are
    reported in BENCH_stats.json; only exactness is asserted (the ≥10×
    gate is the Fisher grid's)."""
    rng = np.random.default_rng(0)
    n_clusters, per_cluster = 12, 120
    centers = rng.uniform(0, 100, size=(n_clusters, 2))
    points = np.concatenate([
        center + rng.normal(scale=1.5, size=(per_cluster, 2))
        for center in centers
    ])
    labels_true = np.repeat(np.arange(n_clusters), per_cluster)
    d = np.sqrt(((points[:, None, :] - points[None, :, :]) ** 2).sum(-1))
    eps, min_samples = 1.5, 4

    start = time.perf_counter()
    sil_ref = silhouette_samples_reference(d, labels_true)
    sil_scalar_seconds = time.perf_counter() - start
    start = time.perf_counter()
    sil_fast = silhouette_samples(d, labels_true)
    sil_seconds = time.perf_counter() - start

    start = time.perf_counter()
    db_ref = dbscan_reference(d, eps, min_samples)
    db_scalar_seconds = time.perf_counter() - start

    def vector_compute():
        return dbscan(d, eps, min_samples)

    start = time.perf_counter()
    db_fast = vector_compute()
    db_seconds = time.perf_counter() - start
    benchmark.pedantic(vector_compute, rounds=1, iterations=1)

    sil_speedup = sil_scalar_seconds / sil_seconds
    db_speedup = db_scalar_seconds / db_seconds
    print_comparison(
        [
            ("points", "", len(points), f"{n_clusters} planted blobs"),
            ("silhouette scalar s", "", round(sil_scalar_seconds, 3), ""),
            ("silhouette kernel s", "", round(sil_seconds, 3), "bit-identical"),
            ("silhouette speedup", "", round(sil_speedup, 1), ""),
            ("dbscan scalar s", "", round(db_scalar_seconds, 3), ""),
            ("dbscan kernel s", "", round(db_seconds, 3), "label-identical"),
            ("dbscan speedup", "", round(db_speedup, 1), ""),
        ],
        "Vectorized vs scalar — silhouette and DBSCAN",
    )
    _merge_bench_json("clustering", {
        "workload": "planted_blobs",
        "points": len(points),
        "silhouette_scalar_seconds": sil_scalar_seconds,
        "silhouette_kernel_seconds": sil_seconds,
        "silhouette_speedup": sil_speedup,
        "silhouette_bit_identical": bool(
            np.array_equal(sil_fast.values, sil_ref.values)
        ),
        "dbscan_scalar_seconds": db_scalar_seconds,
        "dbscan_kernel_seconds": db_seconds,
        "dbscan_speedup": db_speedup,
        "dbscan_label_identical": bool(
            np.array_equal(db_fast.labels, db_ref.labels)
        ),
    })

    assert np.array_equal(sil_fast.values, sil_ref.values)
    assert np.array_equal(db_fast.labels, db_ref.labels)
    assert np.array_equal(db_fast.core_mask, db_ref.core_mask)
