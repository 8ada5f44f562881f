"""Relevance feedback (Section 2.2 of the paper).

Two mechanisms, exactly as the paper describes:

* **Query reconstruction** — the query vector is moved toward the marked
  relevant shapes and away from the irrelevant ones (Rocchio's rule).
* **Weight reconfiguration** — per-dimension weights are re-estimated from
  the spread of the relevant set: a dimension on which relevant shapes
  agree gets a high weight (MindReader/MARS-style inverse variance).

The paper's experiments ran with relevance feedback *off*; the evaluation
harness does the same, but the mechanisms are exercised by the test suite
and the relevance-feedback example.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from .engine import Query, SearchEngine, SearchResult
from .similarity import weighted_distances


def reconstruct_query(
    query: np.ndarray,
    relevant: Sequence[np.ndarray],
    irrelevant: Sequence[np.ndarray] = (),
    alpha: float = 1.0,
    beta: float = 0.75,
    gamma: float = 0.25,
) -> np.ndarray:
    """Rocchio query reconstruction, normalized for Euclidean spaces.

    ``q' = (alpha*q + beta*mean(relevant) - gamma*mean(irrelevant)) / mass``
    with ``mass = alpha + beta - gamma`` (terms for empty sets dropped).
    Classic IR Rocchio skips the normalization because cosine similarity
    ignores magnitude; in a Euclidean feature space the unnormalized form
    overshoots away from the relevant region, so the convex-combination
    variant is used here.
    """
    q = np.asarray(query, dtype=np.float64)
    out = alpha * q
    mass = alpha
    if relevant:
        out = out + beta * np.mean([np.asarray(v) for v in relevant], axis=0)
        mass += beta
    if irrelevant:
        out = out - gamma * np.mean([np.asarray(v) for v in irrelevant], axis=0)
        mass -= gamma
    if abs(mass) < 1e-12:
        raise ValueError("alpha + beta - gamma must be non-zero")
    return out / mass


def reconfigure_weights(
    relevant: Sequence[np.ndarray],
    base_weights: Optional[np.ndarray] = None,
    floor: float = 1e-12,
) -> np.ndarray:
    """Inverse-variance weight reconfiguration from the relevant set.

    Dimensions where the relevant shapes cluster tightly receive high
    weight.  Weights are normalized to sum to the dimension count so their
    overall scale matches uniform weighting; with fewer than two relevant
    examples the base weights (or uniform) are returned unchanged.
    """
    vecs = [np.asarray(v, dtype=np.float64) for v in relevant]
    if len(vecs) < 2:
        if base_weights is not None:
            return np.asarray(base_weights, dtype=np.float64).copy()
        dim = len(vecs[0]) if vecs else 0
        return np.ones(dim)
    matrix = np.vstack(vecs)
    var = matrix.var(axis=0)
    weights = 1.0 / np.maximum(var, floor)
    weights *= matrix.shape[1] / weights.sum()
    return weights


class RelevanceFeedbackSession:
    """Iterative query refinement against one feature space.

    Mirrors the paper's interface loop: search, mark relevant/irrelevant,
    re-search with a reconstructed query and reconfigured weights.
    """

    def __init__(
        self,
        engine: SearchEngine,
        query: Query,
        feature_name: str,
        k: int = 10,
        alpha: float = 1.0,
        beta: float = 0.75,
        gamma: float = 0.25,
    ) -> None:
        self.engine = engine
        self.feature_name = feature_name
        self.k = int(k)
        self.alpha, self.beta, self.gamma = alpha, beta, gamma
        self.query_vector = engine.resolve_query_vector(query, feature_name)
        self.weights = engine.measure(feature_name).weights
        self.rounds = 0

    def search(self) -> List[SearchResult]:
        """Current-round retrieval with the session's query and weights.

        An exact scan of the packed column under the session's weights,
        ranked by (distance, shape id) like :meth:`SearchEngine.search_knn`.
        """
        view = self.engine.database.feature_view(self.feature_name)
        dists = weighted_distances(self.query_vector, view.matrix, self.weights)
        order = np.lexsort((view.ids, dists))[: self.k]
        pairs = [(int(view.ids[i]), float(dists[i])) for i in order]
        return self.engine._build_results(pairs, self.feature_name, None)

    def feedback(
        self, relevant_ids: Sequence[int], irrelevant_ids: Sequence[int] = ()
    ) -> None:
        """Apply one round of user markings."""
        db = self.engine.database
        relevant = [
            db.get(i).feature(self.feature_name) for i in relevant_ids
        ]
        irrelevant = [
            db.get(i).feature(self.feature_name) for i in irrelevant_ids
        ]
        self.query_vector = reconstruct_query(
            self.query_vector,
            relevant,
            irrelevant,
            alpha=self.alpha,
            beta=self.beta,
            gamma=self.gamma,
        )
        # Per-dimension variance estimated from fewer than three examples
        # is noise and routinely inverts the intended emphasis, so weight
        # reconfiguration waits for a third relevant mark.
        if len(relevant) >= 3:
            self.weights = reconfigure_weights(relevant, base_weights=self.weights)
        self.rounds += 1
