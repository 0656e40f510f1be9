"""Scalar reference implementations the fast paths must reproduce.

Each oracle is the executable definition of something production
computes a faster way: the per-slice telemetry scorer
(:mod:`tests.oracles.scorer`) for the batched grid scorer; the
quadratic Kendall tau, per-point silhouette, queue-based DBSCAN and
tie-walking rankdata (:mod:`tests.oracles.stats`) for their vectorised
kernels; and the per-curve endemicity scorer
(:mod:`tests.oracles.endemicity`) for the rank-matrix one.  Parity
suites and the speedup benchmarks import them from here; nothing under
``src/`` does.
"""
