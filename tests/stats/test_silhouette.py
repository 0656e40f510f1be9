"""Tests for silhouette coefficients, including bit-exact parity
between the vectorized kernel and its scalar reference."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stats.silhouette import silhouette_samples, similarity_to_distance
from tests.oracles.stats import silhouette_samples_reference


def _two_blobs():
    """Distance matrix for two clean point groups."""
    points = np.array([[0.0], [0.1], [0.2], [5.0], [5.1], [5.2]])
    d = np.abs(points - points.T)
    labels = np.array([0, 0, 0, 1, 1, 1])
    return d, labels


class TestSilhouette:
    def test_clean_clusters_score_high(self):
        d, labels = _two_blobs()
        report = silhouette_samples(d, labels)
        assert report.average > 0.9
        assert report.cluster_average(0) > 0.9
        assert report.cluster_average(1) > 0.9

    def test_scrambled_labels_score_low(self):
        d, _ = _two_blobs()
        bad = np.array([0, 1, 0, 1, 0, 1])
        report = silhouette_samples(d, bad)
        assert report.average < 0.0

    def test_values_bounded(self):
        d, labels = _two_blobs()
        report = silhouette_samples(d, labels)
        assert np.all(report.values >= -1.0)
        assert np.all(report.values <= 1.0)

    def test_singleton_cluster_scores_zero(self):
        d = np.array([
            [0.0, 1.0, 5.0],
            [1.0, 0.0, 5.0],
            [5.0, 5.0, 0.0],
        ])
        labels = np.array([0, 0, 1])
        report = silhouette_samples(d, labels)
        assert report.values[2] == 0.0

    def test_per_cluster_keys(self):
        d, labels = _two_blobs()
        report = silhouette_samples(d, labels)
        assert set(report.per_cluster()) == {0, 1}

    def test_matches_sklearn_formula_by_hand(self):
        # 4 points, 2 clusters; verify one silhouette value manually.
        d = np.array([
            [0.0, 1.0, 4.0, 5.0],
            [1.0, 0.0, 3.0, 4.0],
            [4.0, 3.0, 0.0, 1.0],
            [5.0, 4.0, 1.0, 0.0],
        ])
        labels = np.array([0, 0, 1, 1])
        report = silhouette_samples(d, labels)
        # point 0: a = 1.0, b = mean(4,5) = 4.5, s = 3.5/4.5
        assert report.values[0] == pytest.approx(3.5 / 4.5)

    def test_requires_two_clusters(self):
        d, _ = _two_blobs()
        with pytest.raises(ValueError):
            silhouette_samples(d, np.zeros(6, dtype=int))

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            silhouette_samples(np.zeros((2, 3)), np.array([0, 1]))
        with pytest.raises(ValueError):
            silhouette_samples(np.zeros((2, 2)), np.array([0]))

    def test_negative_distances_rejected(self):
        with pytest.raises(ValueError):
            silhouette_samples(np.array([[0.0, -1.0], [-1.0, 0.0]]), np.array([0, 1]))


class TestKernelParity:
    """silhouette_samples must be *bit-identical* to the scalar loop —
    pipeline artifact bytes depend on it (DESIGN.md, "Stats kernels")."""

    @given(
        n=st.integers(min_value=2, max_value=40),
        k=st.integers(min_value=2, max_value=6),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_bit_identical_on_random_matrices(self, n, k, seed):
        rng = np.random.default_rng(seed)
        points = rng.normal(size=(n, 2))
        d = np.sqrt(((points[:, None, :] - points[None, :, :]) ** 2).sum(-1))
        # Random labels, forced to cover at least two clusters; ragged
        # sizes and singletons arise naturally.
        labels = rng.integers(0, min(k, n), size=n)
        labels[0] = 0
        labels[1] = 1
        fast = silhouette_samples(d, labels)
        slow = silhouette_samples_reference(d, labels)
        assert np.array_equal(fast.values, slow.values)
        assert np.array_equal(fast.labels, slow.labels)

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30, deadline=None)
    def test_bit_identical_with_duplicate_points(self, seed):
        # Duplicate points give zero distances and exercise the
        # denom == 0 path in both implementations.
        rng = np.random.default_rng(seed)
        points = rng.integers(0, 3, size=12).astype(float)
        d = np.abs(points[:, None] - points[None, :])
        labels = rng.integers(0, 3, size=12)
        labels[:2] = [0, 1]
        fast = silhouette_samples(d, labels)
        slow = silhouette_samples_reference(d, labels)
        assert np.array_equal(fast.values, slow.values)

    def test_bit_identical_with_offset_labels(self):
        d, base = _two_blobs()
        labels = base * 7 + 5          # non-contiguous cluster ids
        fast = silhouette_samples(d, labels)
        slow = silhouette_samples_reference(d, labels)
        assert np.array_equal(fast.values, slow.values)

    def test_reference_validates_too(self):
        d, _ = _two_blobs()
        with pytest.raises(ValueError):
            silhouette_samples_reference(d, np.zeros(6, dtype=int))


class TestSimilarityToDistance:
    def test_conversion(self):
        sim = np.array([[1.0, 0.3], [0.3, 1.0]])
        d = similarity_to_distance(sim)
        assert d[0, 1] == pytest.approx(0.7)
        assert d[0, 0] == 0.0

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            similarity_to_distance(np.array([[1.0, 1.5], [1.5, 1.0]]))
