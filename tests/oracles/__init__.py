"""Scalar reference implementations the fast paths must reproduce.

Each oracle is the executable definition of something production
computes a faster way: the per-slice telemetry scorer
(:mod:`tests.oracles.scorer`) for the batched grid scorer; the
quadratic Kendall tau, per-point silhouette, queue-based DBSCAN,
tie-walking rankdata and the scalar and one-table-at-a-time Fisher
tests (:mod:`tests.oracles.stats`) for their vectorised kernels; the
per-curve endemicity scorer (:mod:`tests.oracles.endemicity`) for the
rank-matrix one; the per-site running-sum global ranking
(:mod:`tests.oracles.crux`) for the bincount one; the per-site
category walks (:mod:`tests.oracles.weighting`) for the category-code
bincounts; the per-site coverage walk (:mod:`tests.oracles.sampling`)
for the membership-mask sum; and the per-call label walk
(:mod:`tests.oracles.labels`) for the bulk Lemire tables.  Parity
suites and the speedup benchmarks import them from here; nothing under
``src/`` does.
"""
