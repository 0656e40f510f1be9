"""Tests for the from-scratch DBSCAN, including label-exact parity
between the vectorized kernel and its scalar reference."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stats.dbscan import NOISE, dbscan, eps_sweep
from tests.oracles.stats import dbscan_reference


def _distance_matrix(points):
    pts = np.asarray(points, dtype=float).reshape(len(points), -1)
    return np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1))


class TestDBSCAN:
    def test_recovers_two_blobs(self):
        d = _distance_matrix([0.0, 0.1, 0.2, 5.0, 5.1, 5.2])
        result = dbscan(d, eps=0.5, min_samples=2)
        assert result.n_clusters == 2
        assert result.labels[0] == result.labels[1] == result.labels[2]
        assert result.labels[3] == result.labels[4] == result.labels[5]
        assert result.labels[0] != result.labels[3]
        assert result.n_noise == 0

    def test_isolated_point_is_noise(self):
        d = _distance_matrix([0.0, 0.1, 0.2, 100.0])
        result = dbscan(d, eps=0.5, min_samples=2)
        assert result.labels[3] == NOISE
        assert result.n_noise == 1

    def test_min_samples_gates_core_points(self):
        d = _distance_matrix([0.0, 0.1, 5.0, 5.1])
        strict = dbscan(d, eps=0.5, min_samples=3)
        assert strict.n_clusters == 0
        assert strict.n_noise == 4

    def test_border_points_join_first_cluster(self):
        # 0.0 and 0.4 are core-adjacent; 0.9 is within eps of 0.4 only.
        d = _distance_matrix([0.0, 0.4, 0.8, 0.9])
        result = dbscan(d, eps=0.5, min_samples=2)
        assert result.n_clusters == 1
        assert (result.labels != NOISE).all()

    def test_varying_density_failure_mode(self):
        """The Section 5.3.1 claim: one eps cannot serve a tight cluster
        and a loose cluster simultaneously."""
        tight = [0.0, 0.05, 0.10]
        loose = [10.0, 11.5, 13.0]
        d = _distance_matrix(tight + loose)
        small_eps = dbscan(d, eps=0.2, min_samples=2)
        assert small_eps.n_clusters == 1         # loose cluster dissolves
        assert small_eps.n_noise == 3
        large_eps = dbscan(d, eps=1.6, min_samples=2)
        assert large_eps.n_clusters == 2
        # ...but at that eps the tight cluster would swallow anything
        # within 1.6 of it; on denser data this merges clusters.

    def test_validation(self):
        d = _distance_matrix([0.0, 1.0])
        with pytest.raises(ValueError):
            dbscan(d, eps=0)
        with pytest.raises(ValueError):
            dbscan(d, eps=1, min_samples=0)
        with pytest.raises(ValueError):
            dbscan(np.zeros((2, 3)), eps=1)

    def test_members_partition_non_noise(self):
        d = _distance_matrix([0.0, 0.1, 5.0, 5.1, 99.0])
        result = dbscan(d, eps=0.5, min_samples=2)
        assigned = np.concatenate([
            result.members(c) for c in range(result.n_clusters)
        ])
        assert sorted(assigned.tolist()) == [0, 1, 2, 3]


class TestKernelParity:
    """Frontier-wave BFS must assign exactly the labels the per-point
    queue BFS assigns — including which cluster claims border points."""

    @given(
        n=st.integers(min_value=2, max_value=40),
        eps=st.floats(min_value=0.05, max_value=3.0, allow_nan=False),
        min_samples=st.integers(min_value=1, max_value=5),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_labels_identical_on_random_points(self, n, eps, min_samples, seed):
        rng = np.random.default_rng(seed)
        points = rng.normal(size=(n, 2))
        d = np.sqrt(((points[:, None, :] - points[None, :, :]) ** 2).sum(-1))
        fast = dbscan(d, eps, min_samples)
        slow = dbscan_reference(d, eps, min_samples)
        assert np.array_equal(fast.labels, slow.labels)
        assert np.array_equal(fast.core_mask, slow.core_mask)

    @given(
        eps=st.integers(min_value=1, max_value=4),
        min_samples=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_labels_identical_at_exact_eps_boundaries(self, eps, min_samples, seed):
        # Integer grid points with an integer eps: many distances land
        # exactly ON the eps boundary, the tie case where an off-by-ulp
        # neighborhood test would diverge.
        rng = np.random.default_rng(seed)
        points = rng.integers(0, 6, size=15).astype(float)
        d = np.abs(points[:, None] - points[None, :])
        fast = dbscan(d, float(eps), min_samples)
        slow = dbscan_reference(d, float(eps), min_samples)
        assert np.array_equal(fast.labels, slow.labels)
        assert np.array_equal(fast.core_mask, slow.core_mask)

    def test_border_point_claimed_by_same_cluster(self):
        # A chain with a point reachable from two clusters: seeding
        # order decides the owner, and both paths must agree.
        d = _distance_matrix([0.0, 0.4, 1.0, 1.6, 2.0])
        fast = dbscan(d, eps=0.5, min_samples=2)
        slow = dbscan_reference(d, eps=0.5, min_samples=2)
        assert np.array_equal(fast.labels, slow.labels)

    def test_reference_validates_too(self):
        with pytest.raises(ValueError):
            dbscan_reference(np.zeros((2, 2)), eps=0)


class TestEpsSweep:
    def test_sweep_shapes(self):
        d = _distance_matrix([0.0, 0.1, 5.0, 5.1])
        sweep = eps_sweep(d, np.array([0.05, 0.5, 10.0]), min_samples=2)
        assert len(sweep) == 3
        eps0, clusters0, noise0 = sweep[0]
        assert clusters0 == 0 and noise0 == 4
        _, clusters1, noise1 = sweep[1]
        assert clusters1 == 2 and noise1 == 0
        _, clusters2, _ = sweep[2]
        assert clusters2 == 1  # everything merges
