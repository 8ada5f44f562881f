"""Similarity measure (Section 4.1, Eq. 4.3-4.4).

Dissimilarity is a weighted Euclidean distance in feature space; the
similarity measure normalizes it by the maximum distance of the feature
space so that s = 1 - d/dmax lies in [0, 1].

``dmax`` is the paper's maximum distance between stored feature vectors.
Up to ``SimilarityMeasure._EXACT_DMAX_LIMIT`` (2000) rows it is the exact
maximum pairwise (weighted) distance; above that it is the (weighted)
diagonal of the vectors' bounding box, an upper bound on that maximum.

Per-dimension weights default to inverse squared range ("range
equalization"), which stops large-magnitude dimensions (e.g. raw volume in
the geometric-parameter FV) from drowning the rest; uniform weights are
also available, and relevance feedback can supply its own.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

RANGE_WEIGHTS = "range"
UNIFORM_WEIGHTS = "uniform"


def weighted_distance(
    query: np.ndarray, other: np.ndarray, weights: Optional[np.ndarray] = None
) -> float:
    """Weighted Euclidean distance of Eq. 4.3."""
    q = np.asarray(query, dtype=np.float64)
    x = np.asarray(other, dtype=np.float64)
    if q.shape != x.shape:
        raise ValueError(f"shape mismatch: {q.shape} vs {x.shape}")
    diff = q - x
    if weights is None:
        return float(np.sqrt((diff**2).sum()))
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != q.shape:
        raise ValueError(f"weights shape {w.shape} does not match {q.shape}")
    return float(np.sqrt((w * diff**2).sum()))


def weighted_distances(
    query: np.ndarray, matrix: np.ndarray, weights: Optional[np.ndarray] = None
) -> np.ndarray:
    """Eq. 4.3 distances from one query to every row of a matrix.

    The vectorized counterpart of :func:`weighted_distance` — one NumPy
    expression over the whole feature matrix instead of a Python loop.

    The matrix is *not* cast up front: with a float64 query the
    subtraction broadcast upcasts float32 rows exactly, so packed
    (float32, possibly memory-mapped) matrices are scanned zero-copy
    with results bitwise identical to a float64 pre-cast.
    """
    q = np.asarray(query, dtype=np.float64)
    mat = np.asarray(matrix)
    if mat.ndim != 2 or q.shape != (mat.shape[1],):
        raise ValueError(
            f"need query (d,) and matrix (n, d); got {q.shape} and {mat.shape}"
        )
    diff = mat - q
    if weights is None:
        return np.sqrt((diff**2).sum(axis=1))
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != q.shape:
        raise ValueError(f"weights shape {w.shape} does not match {q.shape}")
    return np.sqrt((w * diff**2).sum(axis=1))


def range_weights(matrix: np.ndarray, floor: float = 1e-12) -> np.ndarray:
    """Inverse-squared-range weights for a feature matrix.

    Dimensions with (near-)zero spread get weight 0 so constant dimensions
    never dominate through numerical noise.
    """
    mat = np.asarray(matrix, dtype=np.float64)
    if mat.ndim != 2:
        raise ValueError(f"matrix must be 2D, got shape {mat.shape}")
    spread = mat.max(axis=0) - mat.min(axis=0)
    weights = np.zeros(mat.shape[1])
    ok = spread > floor
    weights[ok] = 1.0 / spread[ok] ** 2
    return weights


class SimilarityMeasure:
    """Similarity scoring for one feature space (Eq. 4.4).

    Parameters
    ----------
    matrix:
        All stored vectors of the feature space (rows).
    weighting:
        ``"range"`` (default), ``"uniform"``, or an explicit per-dimension
        weight array.
    """

    def __init__(self, matrix: np.ndarray, weighting=RANGE_WEIGHTS) -> None:
        mat = np.asarray(matrix, dtype=np.float64)
        if mat.ndim != 2 or len(mat) == 0:
            raise ValueError("similarity needs a non-empty 2D feature matrix")
        if isinstance(weighting, str):
            if weighting == RANGE_WEIGHTS:
                self.weights: Optional[np.ndarray] = range_weights(mat)
            elif weighting == UNIFORM_WEIGHTS:
                self.weights = None
            else:
                raise ValueError(
                    f"unknown weighting {weighting!r}; use 'range', 'uniform', "
                    "or an array"
                )
        else:
            self.weights = np.asarray(weighting, dtype=np.float64)
            if self.weights.shape != (mat.shape[1],):
                raise ValueError(
                    f"weights shape {self.weights.shape} does not match "
                    f"feature dimension {mat.shape[1]}"
                )
        self.d_max = self._max_pairwise_distance(mat)
        if self.d_max <= 0:
            # All stored vectors identical: any distance is "far".
            self.d_max = 1.0

    _EXACT_DMAX_LIMIT = 2000

    def _max_pairwise_distance(self, mat: np.ndarray) -> float:
        """The paper's d_max: the maximum distance of points in feature
        space.  Exact for moderate collections; bounded by the weighted
        bounding-box diagonal for very large ones.

        The exact path evaluates :func:`weighted_distances` row by row —
        the very formula every scan uses — so the farthest stored pair's
        query distance equals ``d_max`` bitwise and a threshold-0 radius
        query keeps every shape.  (A Gram-matrix shortcut rounds
        differently and can land one ulp *below* the true maximum.)
        """
        if len(mat) <= self._EXACT_DMAX_LIMIT:
            best = 0.0
            for row in mat:
                d = weighted_distances(row, mat, self.weights)
                best = max(best, float(d.max()))
            return best
        scaled = mat if self.weights is None else mat * np.sqrt(self.weights)
        span = scaled.max(axis=0) - scaled.min(axis=0)
        return float(np.sqrt((span**2).sum()))

    def distance(self, query: np.ndarray, other: np.ndarray) -> float:
        """Weighted distance between two vectors (Eq. 4.3)."""
        return weighted_distance(query, other, self.weights)

    def distances(self, query: np.ndarray, matrix: np.ndarray) -> np.ndarray:
        """Weighted distances from the query to every matrix row."""
        return weighted_distances(query, matrix, self.weights)

    def similarities(self, query: np.ndarray, matrix: np.ndarray) -> np.ndarray:
        """Eq. 4.4 similarities to every matrix row (clamped to [0, 1])."""
        return np.clip(1.0 - self.distances(query, matrix) / self.d_max, 0.0, 1.0)

    def similarity_from_distance(self, distance: float) -> float:
        """Map a distance to the [0, 1] similarity of Eq. 4.4 (clamped)."""
        return float(np.clip(1.0 - distance / self.d_max, 0.0, 1.0))

    def similarity(self, query: np.ndarray, other: np.ndarray) -> float:
        """Similarity between two vectors."""
        return self.similarity_from_distance(self.distance(query, other))

    def radius_for_threshold(self, threshold: float) -> float:
        """Distance radius corresponding to a similarity threshold."""
        if not 0.0 <= threshold <= 1.0:
            raise ValueError(f"threshold must be in [0, 1], got {threshold}")
        return (1.0 - threshold) * self.d_max
