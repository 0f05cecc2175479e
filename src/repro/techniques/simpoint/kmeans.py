"""K-means clustering with BIC model selection (SimPoint 1.0 style).

SimPoint clusters projected BBVs with k-means for every k up to
``max_k``, scores each clustering with the Bayesian Information
Criterion under a spherical-Gaussian model, and picks the smallest k
whose BIC reaches a fixed fraction (90%) of the best observed BIC.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Union

import numpy as np

from repro.util.rng import child_rng

#: SimPoint's BIC threshold: smallest k scoring >= 90% of the best BIC.
BIC_THRESHOLD = 0.9


@dataclass
class KMeansResult:
    """One k-means clustering: assignments, centroids and quality."""

    k: int
    assignments: np.ndarray  # (n,) cluster index per point
    centroids: np.ndarray  # (k, d)
    inertia: float  # sum of squared distances to assigned centroid
    bic: float = 0.0

    @property
    def cluster_sizes(self) -> np.ndarray:
        return np.bincount(self.assignments, minlength=self.k)


class PointSet:
    """Points to cluster, with the point-only quantities k-means reuses.

    A selection clusters the same points for every k and seed, so these
    are computed once per selection instead of once per call:

    * ``twice`` and ``squared_norms`` -- the point terms of the Lloyd
      assignment step's ``|p|^2 - 2 p.c + |c|^2``;
    * ``cells`` -- each value's column in the flattened centroid
      update, to which a point's cluster offset is added;
    * :meth:`distances_to` -- k-means++ seeds are always data points, so
      each seeding distance row is a lookup.  A row is computed the
      first time its point is picked, with the same expression the
      seeding step used before, so every row is exact (zero for a
      duplicate of the seed) and seeding draws are unchanged bit for
      bit.  At most ``n`` rows of ``n`` doubles are kept.
    """

    def __init__(self, points: np.ndarray) -> None:
        points = np.asarray(points, dtype=np.float64)
        if points.ndim != 2 or len(points) == 0:
            raise ValueError("points must be a non-empty 2-D array")
        n, d = points.shape
        self.points = points
        self.twice = 2.0 * points
        self.squared_norms = np.sum(points**2, axis=1)
        self.cells = np.tile(np.arange(d), n)
        self._rows: List[Optional[np.ndarray]] = [None] * n

    def __len__(self) -> int:
        return len(self.points)

    def distances_to(self, index: int) -> np.ndarray:
        """Squared distance from every point to point ``index`` (read-only)."""
        row = self._rows[index]
        if row is None:
            row = np.sum((self.points - self.points[index]) ** 2, axis=1)
            row.flags.writeable = False
            self._rows[index] = row
        return row


def _update_centroids(
    data: PointSet, assignments: np.ndarray, centroids: np.ndarray
) -> None:
    """Move each non-empty cluster's centroid to its members' mean.

    One flattened ``bincount`` adds each cluster's rows in point order,
    the order ``points[assignments == j].mean(axis=0)`` adds them in, so
    the centroids are bit-identical to that per-cluster loop.  A
    one-column mean is a 1-D reduction, which numpy sums pairwise
    instead, so that case keeps the loop.
    """
    points = data.points
    k, d = centroids.shape
    if d == 1:
        for j in range(k):
            members = points[assignments == j]
            if len(members):
                centroids[j] = members.mean(axis=0)
        return
    counts = np.bincount(assignments, minlength=k)[:, None]
    cells = np.repeat(assignments * d, d) + data.cells
    sums = np.bincount(cells, weights=points.ravel(), minlength=k * d)
    np.divide(sums.reshape(k, d), counts, out=centroids, where=counts > 0)


def _kmeans_once(
    data: PointSet, k: int, rng: np.random.Generator, max_iterations: int
) -> KMeansResult:
    points = data.points
    n = len(points)
    # k-means++ seeding.
    centroids = np.empty((k, points.shape[1]))
    first = int(rng.integers(n))
    centroids[0] = points[first]
    closest = data.distances_to(first).copy()
    for j in range(1, k):
        total = closest.sum()
        if total <= 0:
            centroids[j] = points[int(rng.integers(n))]
            continue
        probs = closest / total
        choice = int(rng.choice(n, p=probs))
        centroids[j] = points[choice]
        np.minimum(closest, data.distances_to(choice), out=closest)

    # |p|^2 laid out like the distance matrix: a contiguous operand
    # subtracts faster than a broadcast column.
    squared_norms = np.repeat(data.squared_norms, k).reshape(n, k)
    assignments = np.zeros(n, dtype=np.int64)
    for _ in range(max_iterations):
        # Assignment step: |p|^2 - 2 p.c + |c|^2, evaluated in place.
        distances = data.twice @ centroids.T
        np.subtract(squared_norms, distances, out=distances)
        distances += np.sum(centroids**2, axis=1)[None, :]
        new_assignments = np.argmin(distances, axis=1)
        if np.array_equal(new_assignments, assignments) and _ > 0:
            break
        assignments = new_assignments
        # Update step (empty clusters keep their centroid).
        _update_centroids(data, assignments, centroids)
    inertia = float(
        np.sum((points - centroids[assignments]) ** 2)
    )
    return KMeansResult(k=k, assignments=assignments, centroids=centroids, inertia=inertia)


def kmeans(
    points: Union[np.ndarray, PointSet],
    k: int,
    seeds: int = 7,
    max_iterations: int = 100,
    seed: int = 1,
) -> KMeansResult:
    """Best-of-``seeds`` k-means clustering of ``points`` into ``k``.

    Pass a :class:`PointSet` to share its precomputed quantities with
    other calls on the same points (as :func:`pick_k` does).
    """
    data = points if isinstance(points, PointSet) else PointSet(points)
    if not 1 <= k <= len(data):
        raise ValueError(f"k must be within [1, {len(data)}]")
    best: Optional[KMeansResult] = None
    for attempt in range(seeds):
        rng = child_rng(seed, "kmeans", k, attempt)
        result = _kmeans_once(data, k, rng, max_iterations)
        if best is None or result.inertia < best.inertia:
            best = result
    assert best is not None
    best.bic = bic_score(data.points, best)
    return best


def bic_score(points: np.ndarray, result: KMeansResult) -> float:
    """BIC of a clustering under a spherical-Gaussian mixture model.

    Follows Pelleg & Moore's X-means formulation, which SimPoint uses:
    maximum-likelihood variance over all points, per-cluster
    log-likelihood, and a parameter-count penalty of
    ``(k (d+1)) / 2 * log n``.
    """
    n, d = points.shape
    k = result.k
    if n <= k:
        return float("-inf")
    variance = result.inertia / (n - k)
    variance = max(variance, 1e-12)
    sizes = result.cluster_sizes
    log_likelihood = 0.0
    for size in sizes:
        if size <= 0:
            continue
        log_likelihood += (
            size * np.log(size / n)
            - size * d / 2.0 * np.log(2.0 * np.pi * variance)
            - (size - 1) * d / 2.0
        )
    num_parameters = k * (d + 1)
    return float(log_likelihood - num_parameters / 2.0 * np.log(n))


def pick_k(
    points: np.ndarray,
    max_k: int,
    seeds: int = 7,
    max_iterations: int = 100,
    seed: int = 1,
    threshold: float = BIC_THRESHOLD,
) -> KMeansResult:
    """Cluster for k = 1..max_k; return the SimPoint-selected clustering.

    SimPoint picks the smallest k whose BIC reaches ``threshold`` of
    the best BIC observed (BIC values are shifted to be non-negative
    before applying the threshold, as in the SimPoint release).
    """
    data = PointSet(points)
    max_k = min(max_k, len(data))
    results: List[KMeansResult] = [
        kmeans(data, k, seeds=seeds, max_iterations=max_iterations, seed=seed)
        for k in range(1, max_k + 1)
    ]
    bics = np.array([r.bic for r in results])
    finite = np.isfinite(bics)
    if not finite.any():
        return results[0]
    lo = bics[finite].min()
    shifted = np.where(finite, bics - lo, float("-inf"))
    best = shifted.max()
    if best <= 0:
        return results[int(np.argmax(shifted))]
    for result, score in zip(results, shifted):
        if score >= threshold * best:
            return result
    return results[int(np.argmax(shifted))]
