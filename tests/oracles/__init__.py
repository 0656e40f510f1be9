"""Scalar reference implementations the fast paths must reproduce.

Each oracle is the executable definition of something production
computes a faster way: the per-slice telemetry scorer
(:mod:`tests.oracles.scorer`) for the batched grid scorer, and the
quadratic Kendall tau, per-point silhouette and queue-based DBSCAN
(:mod:`tests.oracles.stats`) for their vectorised kernels.  Parity
suites and the speedup benchmarks import them from here; nothing under
``src/`` does.
"""
