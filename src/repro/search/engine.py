"""Query processing (Section 2.4, Fig. 2).

The engine resolves a query (a shape already in the database, a fresh
mesh, or a raw feature vector), fetches or extracts the requested feature
vector, scans the packed feature column, and returns ranked results
with both the raw distance and the normalized similarity of Eq. 4.4.

k-NN and threshold queries have one retrieval path: an exact vectorized
scan over the packed columnar store, ranked by (distance, shape id).
The paper's Fig. 2 puts an R-tree here; the scan needs no build, beat
the R-tree on the measured serving paths (``docs/PERFORMANCE.md``) and
breaks ties deterministically, so the R-tree (:class:`~repro.index.RTree`)
survives only as a standalone artifact for the paper's index-efficiency
experiments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from ..db.database import ShapeDatabase
from ..geometry.mesh import TriangleMesh
from ..obs import get_registry
from ..robust.deadline import Deadline
from .similarity import RANGE_WEIGHTS, SimilarityMeasure

Query = Union[int, TriangleMesh, np.ndarray]


def _check_deadline(deadline: Optional[Deadline], where: str) -> None:
    """Cooperative deadline check at a stage boundary (no-op when None)."""
    if deadline is not None:
        deadline.check(where)


@dataclass
class SearchResult:
    """One retrieved shape."""

    shape_id: int
    distance: float
    similarity: float
    rank: int
    name: str = ""
    group: Optional[str] = None


class SearchEngine:
    """Content-based search over a :class:`ShapeDatabase`.

    Parameters
    ----------
    database:
        The shape database (must contain at least one shape per feature
        space queried).
    weighting:
        Weighting scheme handed to :class:`SimilarityMeasure` — ``"range"``
        (default), ``"uniform"``, or an explicit array per call-site.
    """

    def __init__(self, database: ShapeDatabase, weighting=RANGE_WEIGHTS) -> None:
        self.database = database
        self.weighting = weighting
        self._measures: Dict[str, Tuple[int, SimilarityMeasure]] = {}

    # ------------------------------------------------------------------
    def measure(self, feature_name: str) -> SimilarityMeasure:
        """Similarity measure of one feature space (cached).

        The cache is keyed on the database's store generation, so any
        insert/update/delete refreshes d_max and the default weights
        lazily on the next call — no explicit invalidation needed.
        """
        generation = self.database.store_generation
        cached = self._measures.get(feature_name)
        if cached is None or cached[0] != generation:
            view = self.database.feature_view(feature_name)
            cached = (
                generation,
                SimilarityMeasure(view.matrix, weighting=self.weighting),
            )
            self._measures[feature_name] = cached
        return cached[1]

    # ------------------------------------------------------------------
    def resolve_query_vector(self, query: Query, feature_name: str) -> np.ndarray:
        """Fig. 2's "shape in DB?" branch.

        * ``int`` — a database ID: the stored vector is fetched.
        * ``TriangleMesh`` — a new shape: the pipeline extracts the vector.
        * ``ndarray`` — used as-is.
        """
        if isinstance(query, (int, np.integer)):
            return self.database.get(int(query)).feature(feature_name)
        if isinstance(query, TriangleMesh):
            if self.database.pipeline is None:
                raise RuntimeError(
                    "database has no pipeline; cannot extract features "
                    "from a query mesh"
                )
            return self.database.pipeline.extract_one(query, feature_name)
        vec = np.asarray(query, dtype=np.float64)
        if vec.ndim != 1:
            raise ValueError(f"query vector must be 1D, got shape {vec.shape}")
        return vec

    def _build_results(
        self,
        pairs: List,
        feature_name: str,
        exclude: Optional[int],
    ) -> List[SearchResult]:
        measure = self.measure(feature_name)
        out: List[SearchResult] = []
        for shape_id, dist in pairs:
            if exclude is not None and shape_id == exclude:
                continue
            record = self.database.get(shape_id)
            out.append(
                SearchResult(
                    shape_id=shape_id,
                    distance=float(dist),
                    similarity=measure.similarity_from_distance(float(dist)),
                    rank=len(out) + 1,
                    name=record.name,
                    group=record.group,
                )
            )
        return out

    # ------------------------------------------------------------------
    def _linear_knn(
        self, feature_name: str, vec: np.ndarray, k: int
    ) -> List[Tuple[int, float]]:
        """Vectorized full-scan k-NN: one expression over the packed
        columnar view (zero-copy; no per-query vstack)."""
        view = self.database.feature_view(feature_name)
        dists = self.measure(feature_name).distances(vec, view.matrix)
        order = np.lexsort((view.ids, dists))[:k]
        return [(int(view.ids[i]), float(dists[i])) for i in order]

    def _linear_radius(
        self, feature_name: str, vec: np.ndarray, radius: float
    ) -> List[Tuple[int, float]]:
        """Vectorized full-scan range query over the packed view."""
        view = self.database.feature_view(feature_name)
        dists = self.measure(feature_name).distances(vec, view.matrix)
        within = np.flatnonzero(dists <= radius)
        order = within[np.lexsort((view.ids[within], dists[within]))]
        return [(int(view.ids[i]), float(dists[i])) for i in order]

    def search_knn(
        self,
        query: Query,
        feature_name: str,
        k: int = 10,
        exclude_query: bool = True,
        use_index: bool = True,
        deadline: Optional[Deadline] = None,
    ) -> List[SearchResult]:
        """k most similar shapes under one feature vector.

        When the query is a database ID and ``exclude_query`` is set, the
        query shape itself is dropped from the ranking (the paper never
        counts it — it is guaranteed to be retrieved).  Ranking is the
        exact scan's (distance, shape id) order.  A ``deadline`` is
        checked cooperatively at stage boundaries (resolve / probe /
        build) and aborts the query with
        :class:`~repro.robust.DeadlineExceededError` once spent.
        ``use_index`` is accepted and ignored (the index path is gone;
        older callers still pass it).
        """
        metrics = get_registry()
        with metrics.timed("search.knn"):
            _check_deadline(deadline, "resolve_query")
            vec = self.resolve_query_vector(query, feature_name)
            _check_deadline(deadline, "index_probe")
            exclude = int(query) if isinstance(query, (int, np.integer)) and exclude_query else None
            extra = 1 if exclude is not None else 0
            pairs = self._linear_knn(feature_name, vec, k + extra)
            metrics.inc("search.queries")
            metrics.inc("search.candidates_examined", len(pairs))
            _check_deadline(deadline, "build_results")
            return self._build_results(pairs, feature_name, exclude)[:k]

    def search_threshold(
        self,
        query: Query,
        feature_name: str,
        threshold: float,
        exclude_query: bool = True,
        use_index: bool = True,
        deadline: Optional[Deadline] = None,
    ) -> List[SearchResult]:
        """All shapes whose similarity exceeds ``threshold`` (Eq. 4.4).

        Ranked by (distance, shape id), like :meth:`search_knn`;
        ``deadline`` is honoured cooperatively and ``use_index`` ignored
        as there.
        """
        metrics = get_registry()
        with metrics.timed("search.threshold"):
            _check_deadline(deadline, "resolve_query")
            vec = self.resolve_query_vector(query, feature_name)
            _check_deadline(deadline, "index_probe")
            radius = self.measure(feature_name).radius_for_threshold(threshold)
            exclude = int(query) if isinstance(query, (int, np.integer)) and exclude_query else None
            pairs = self._linear_radius(feature_name, vec, radius)
            metrics.inc("search.queries")
            metrics.inc("search.candidates_examined", len(pairs))
            _check_deadline(deadline, "build_results")
            return self._build_results(pairs, feature_name, exclude)

    def explain(
        self,
        query: Query,
        shape_id: int,
        feature_name: str,
    ) -> List[Tuple[int, float, float]]:
        """Per-dimension breakdown of one query-result distance.

        Returns ``(dimension, weighted_squared_term, fraction)`` tuples
        sorted by descending contribution — which feature dimensions made
        this shape near or far.  Useful for engineering users judging why
        the system called two parts similar.
        """
        vec = self.resolve_query_vector(query, feature_name)
        stored = self.database.get(shape_id).feature(feature_name)
        measure = self.measure(feature_name)
        diff2 = (vec - stored) ** 2
        if measure.weights is not None:
            terms = measure.weights * diff2
        else:
            terms = diff2
        total = float(terms.sum())
        out = []
        for dim in np.argsort(-terms):
            term = float(terms[dim])
            fraction = term / total if total > 0 else 0.0
            out.append((int(dim), term, fraction))
        return out

    def rerank(
        self,
        candidate_ids: List[int],
        query: Query,
        feature_name: str,
        exclude_query: bool = True,
        deadline: Optional[Deadline] = None,
    ) -> List[SearchResult]:
        """Re-order an explicit candidate set under another feature vector.

        This is the filter step of the multi-step strategy (Section 4.2):
        distances are computed directly against the candidates.
        Degraded records that do not carry ``feature_name`` are not
        dropped from the candidate set — they are ranked after every
        record that does carry it, at distance ``d_max`` (similarity 0),
        in stable id order.
        """
        metrics = get_registry()
        with metrics.timed("search.rerank"):
            _check_deadline(deadline, "rerank")
            vec = self.resolve_query_vector(query, feature_name)
            measure = self.measure(feature_name)
            exclude = int(query) if isinstance(query, (int, np.integer)) and exclude_query else None
            if not candidate_ids:
                return []
            # One vectorized gather against the packed store — never a
            # per-candidate vstack.  Mutations bump the store generation,
            # which refreshes the measure cache above, so reranks after
            # update_features/delete see current vectors automatically.
            rows, carrying, missing = self.database.gather_features(
                feature_name, candidate_ids
            )
            pairs: List[Tuple[int, float]] = []
            if carrying:
                dists = measure.distances(vec, rows)
                pairs = [(sid, float(d)) for sid, d in zip(carrying, dists)]
            metrics.inc("search.candidates_examined", len(pairs))
            pairs.sort(key=lambda p: (p[1], p[0]))
            if missing:
                metrics.inc("search.degraded_candidates", len(missing))
                pairs.extend((sid, measure.d_max) for sid in sorted(missing))
            return self._build_results(pairs, feature_name, exclude)
