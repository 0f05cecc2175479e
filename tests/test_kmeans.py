"""Tests for k-means clustering and BIC model selection."""

import importlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.techniques.simpoint.bbv import normalize_bbvs, project_bbvs
from repro.techniques.simpoint.kmeans import (
    PointSet,
    _kmeans_once,
    bic_score,
    kmeans,
    pick_k,
)
from repro.util.rng import child_rng

# The package re-exports ``kmeans`` under the module's name.
kmeans_module = importlib.import_module("repro.techniques.simpoint.kmeans")


def three_blobs(n_per=30, separation=10.0, seed=0):
    rng = child_rng(seed, "blobs")
    centers = np.array([[0.0, 0.0], [separation, 0.0], [0.0, separation]])
    points = np.vstack(
        [center + rng.normal(0, 0.5, (n_per, 2)) for center in centers]
    )
    return points


class TestKMeans:
    def test_finds_separated_clusters(self):
        points = three_blobs()
        result = kmeans(points, 3)
        sizes = sorted(result.cluster_sizes.tolist())
        assert sizes == [30, 30, 30]

    def test_k1_centroid_is_mean(self):
        points = three_blobs()
        result = kmeans(points, 1)
        assert np.allclose(result.centroids[0], points.mean(axis=0))

    def test_inertia_decreases_with_k(self):
        points = three_blobs()
        inertias = [kmeans(points, k).inertia for k in (1, 2, 3)]
        assert inertias[0] > inertias[1] > inertias[2]

    def test_deterministic(self):
        points = three_blobs()
        a = kmeans(points, 3, seed=5)
        b = kmeans(points, 3, seed=5)
        assert np.array_equal(a.assignments, b.assignments)

    def test_k_bounds(self):
        points = three_blobs(n_per=2)
        with pytest.raises(ValueError):
            kmeans(points, 0)
        with pytest.raises(ValueError):
            kmeans(points, 7)

    def test_every_point_assigned(self):
        points = three_blobs()
        result = kmeans(points, 3)
        assert len(result.assignments) == len(points)
        assert result.assignments.min() >= 0
        assert result.assignments.max() < 3


class TestBIC:
    def test_bic_prefers_true_k(self):
        points = three_blobs(separation=20.0)
        scores = {k: kmeans(points, k).bic for k in (1, 2, 3, 4, 5)}
        assert scores[3] > scores[1]
        assert scores[3] > scores[2]

    def test_pick_k_selects_reasonable_k(self):
        points = three_blobs(separation=20.0)
        result = pick_k(points, max_k=6)
        assert result.k in (3, 4)

    def test_pick_k_single_cluster_data(self):
        rng = child_rng(1, "single")
        points = rng.normal(0, 1.0, (60, 2))
        result = pick_k(points, max_k=5)
        assert result.k <= 3  # no strong structure

    def test_pick_k_caps_at_points(self):
        points = three_blobs(n_per=2)
        result = pick_k(points, max_k=50)
        assert result.k <= 6


class TestBBVPreparation:
    def test_normalize_rows_sum_to_one(self):
        bbvs = np.array([[2.0, 2.0], [0.0, 4.0]])
        out = normalize_bbvs(bbvs)
        assert np.allclose(out.sum(axis=1), 1.0)

    def test_normalize_zero_row_kept(self):
        bbvs = np.array([[0.0, 0.0], [1.0, 1.0]])
        out = normalize_bbvs(bbvs)
        assert np.allclose(out[0], 0.0)

    def test_normalize_requires_2d(self):
        with pytest.raises(ValueError):
            normalize_bbvs(np.zeros(4))

    def test_projection_shape(self):
        bbvs = np.random.default_rng(0).random((10, 100))
        out = project_bbvs(bbvs, dims=15, seed=1)
        assert out.shape == (10, 15)

    def test_projection_deterministic(self):
        bbvs = np.random.default_rng(0).random((10, 100))
        a = project_bbvs(bbvs, seed=1)
        b = project_bbvs(bbvs, seed=1)
        assert np.array_equal(a, b)

    def test_projection_skipped_for_small_dims(self):
        bbvs = np.random.default_rng(0).random((10, 8))
        out = project_bbvs(bbvs, dims=15)
        assert out.shape == (10, 8)

    def test_projection_preserves_distinctness(self):
        # Two very different BBVs stay apart after projection.
        a = np.zeros((2, 200))
        a[0, :100] = 1.0
        a[1, 100:] = 1.0
        out = project_bbvs(normalize_bbvs(a), seed=1)
        assert np.linalg.norm(out[0] - out[1]) > 0.01


def reference_kmeans_once(points, k, rng, max_iterations):
    """The per-call k-means loop that :class:`PointSet` replaced, verbatim.

    Every seeding step recomputes distances from the points, and the
    update step masks and averages one cluster at a time.
    """
    n = len(points)
    centroids = np.empty((k, points.shape[1]))
    first = int(rng.integers(n))
    centroids[0] = points[first]
    closest = np.sum((points - centroids[0]) ** 2, axis=1)
    for j in range(1, k):
        total = closest.sum()
        if total <= 0:
            centroids[j] = points[int(rng.integers(n))]
            continue
        probs = closest / total
        choice = int(rng.choice(n, p=probs))
        centroids[j] = points[choice]
        distances = np.sum((points - centroids[j]) ** 2, axis=1)
        np.minimum(closest, distances, out=closest)

    assignments = np.zeros(n, dtype=np.int64)
    for _ in range(max_iterations):
        distances = (
            np.sum(points**2, axis=1)[:, None]
            - 2.0 * points @ centroids.T
            + np.sum(centroids**2, axis=1)[None, :]
        )
        new_assignments = np.argmin(distances, axis=1)
        if np.array_equal(new_assignments, assignments) and _ > 0:
            break
        assignments = new_assignments
        for j in range(k):
            members = points[assignments == j]
            if len(members):
                centroids[j] = members.mean(axis=0)
    inertia = float(np.sum((points - centroids[assignments]) ** 2))
    return kmeans_module.KMeansResult(
        k=k, assignments=assignments, centroids=centroids, inertia=inertia
    )


def clustered_points(seed, n, d, distinct, scale):
    """``n`` points drawn from ``distinct`` rows: duplicates by design."""
    rng = np.random.default_rng(seed)
    rows = rng.normal(0.0, scale, (distinct, d))
    return rows[rng.integers(0, distinct, n)]


def assert_same_clusterings(points, ks, seeds=3):
    data = PointSet(points)
    for k in ks:
        for attempt in range(seeds):
            expected = reference_kmeans_once(
                points, k, child_rng(1, "kmeans", k, attempt), 100
            )
            actual = _kmeans_once(data, k, child_rng(1, "kmeans", k, attempt), 100)
            assert np.array_equal(actual.assignments, expected.assignments)
            assert np.array_equal(actual.centroids, expected.centroids)
            assert actual.inertia == expected.inertia


def assert_same_pick(points, max_k):
    actual = pick_k(points, max_k=max_k, seeds=3)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(
            kmeans_module,
            "_kmeans_once",
            lambda data, k, rng, iterations: reference_kmeans_once(
                data.points, k, rng, iterations
            ),
        )
        expected = pick_k(points, max_k=max_k, seeds=3)
    assert actual.k == expected.k
    assert np.array_equal(actual.assignments, expected.assignments)
    assert actual.inertia == expected.inertia
    assert actual.bic == expected.bic


class TestOracle:
    """Shared per-point quantities leave every clustering bit-identical.

    Seeding distance rows are computed with the reference's own
    expression, so a duplicate of a chosen seed is exactly 0.0 and the
    ``total <= 0`` branch fires exactly when the reference's does; the
    bincount update adds rows in the order ``mean(axis=0)`` does.
    """

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    @pytest.mark.parametrize("d", [1, 2, 15])
    def test_k_above_distinct_points(self, scale, d):
        # 40 points on 6 distinct rows: every k > 6 exhausts the
        # distinct rows during seeding and takes the ``total <= 0`` path.
        points = clustered_points(7, n=40, d=d, distinct=6, scale=scale)
        assert_same_clusterings(points, ks=range(1, 41))
        assert_same_pick(points, max_k=40)

    def test_all_points_identical(self):
        points = np.full((12, 3), 0.25)
        assert_same_clusterings(points, ks=range(1, 13))
        assert_same_pick(points, max_k=12)

    def test_pick_k_on_projected_bbvs(self):
        rng = np.random.default_rng(3)
        phases = rng.integers(0, 20, (5, 64)).astype(float)
        bbvs = phases[rng.integers(0, 5, 120)] + rng.integers(0, 3, (120, 64))
        points = project_bbvs(normalize_bbvs(bbvs), seed=1)
        assert_same_pick(points, max_k=30)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 60),
        d=st.integers(1, 16),
        distinct=st.integers(1, 60),
        exponent=st.floats(-3.0, 3.0),
        k=st.integers(1, 60),
    )
    def test_random_point_sets(self, seed, n, d, distinct, exponent, k):
        points = clustered_points(
            seed, n=n, d=d, distinct=min(distinct, n), scale=10.0**exponent
        )
        assert_same_clusterings(points, ks=[min(k, n)])
        assert_same_pick(points, max_k=min(k, n))
