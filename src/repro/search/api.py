"""Unified query API: one request object, one entry point.

PR-5 grew three parallel entry points on the facade
(``query_by_example`` / ``query_by_threshold`` / ``multi_step``), each
with its own signature.  This module replaces them with a single
declarative :class:`SearchRequest` executed by ``ThreeDESS.search()``:

>>> response = system.search(SearchRequest(query=mesh, mode="knn", k=5))
>>> response.hits[0].shape_id, response.hits[0].similarity

The response carries per-hit *provenance* the legacy methods never
exposed: the raw distance and the Eq. 4.4 similarity side by side,
whether the hit is a degraded record (partial feature set — see
``docs/ROBUSTNESS.md``), and whether the retrieval ran through the
exact linear scan or a staged cascade.

The legacy facade methods (``query_by_example`` / ``query_by_threshold``
/ ``multi_step``) were removed after a one-PR deprecation cycle; the
migration table in ``docs/API.md`` records the mapping.

Searches accept an optional :class:`~repro.robust.Deadline`: the budget
is threaded into the engine and checked cooperatively at stage
boundaries, which is how the query service (``docs/SERVICE.md``)
enforces per-request timeouts.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

from ..robust.deadline import Deadline
from .cascade import CascadeStrategy, StageReport, run_cascade
from .engine import Query, SearchEngine, SearchResult

__all__ = [
    "SearchRequest",
    "SearchHit",
    "SearchResponse",
    "SEARCH_MODES",
    "execute_search",
]

#: Supported values of :attr:`SearchRequest.mode`.  ``"multi_step"`` is a
#: deprecated alias: it executes as the equivalent two-stage cascade.
SEARCH_MODES = ("knn", "threshold", "multi_step", "cascade")


@dataclass(frozen=True)
class SearchRequest:
    """A declarative query against the system.

    Parameters
    ----------
    query:
        A database shape ID, a fresh :class:`TriangleMesh`, or a raw
        feature vector (resolved per Fig. 2 of the paper).
    mode:
        ``"knn"`` (k most similar), ``"threshold"`` (every shape whose
        Eq. 4.4 similarity exceeds ``threshold``), ``"cascade"``
        (staged retrieval under a :class:`CascadeStrategy`), or the
        deprecated ``"multi_step"`` alias (Section 4.2 pool-then-filter,
        now executed as the equivalent cascade).
    feature_name:
        Feature space for ``knn``/``threshold`` modes, and for the
        default cascade strategy when ``strategy`` is None (ignored by
        ``multi_step``, which takes its spaces from ``steps``).
    k:
        Result budget for ``knn`` mode and the default cascade strategy.
    threshold:
        Similarity cutoff in [0, 1] for ``threshold`` mode.
    steps:
        Optional ``(feature_name, keep)`` pairs for ``multi_step`` mode;
        None uses the paper's plan (pool of 30 under moment invariants,
        top 10 reranked by geometric parameters).
    strategy:
        Optional :class:`CascadeStrategy` for ``cascade`` mode; None
        builds the default two-stage cascade (quantized scan over
        ``feature_name`` keeping ``max(4k, 50)``, exact rerank to ``k``).
    exclude_query:
        Drop the query shape itself from the ranking when the query is a
        database ID (the paper never counts it).

    ``knn`` and ``threshold`` always run the exact linear scan over the
    packed columnar store; cascade stages run against the packed and
    quantized columns.
    """

    query: Query
    mode: str = "knn"
    feature_name: str = "principal_moments"
    k: int = 10
    threshold: float = 0.9
    steps: Optional[Tuple[Tuple[str, int], ...]] = None
    strategy: Optional[CascadeStrategy] = None
    exclude_query: bool = True

    def __post_init__(self) -> None:
        if self.mode not in SEARCH_MODES:
            raise ValueError(
                f"unknown search mode {self.mode!r}; expected one of "
                f"{', '.join(SEARCH_MODES)}"
            )
        if self.mode in ("knn", "cascade") and self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.mode == "threshold" and not 0.0 <= self.threshold <= 1.0:
            raise ValueError(
                f"threshold must be in [0, 1], got {self.threshold}"
            )
        if self.strategy is not None:
            if not isinstance(self.strategy, CascadeStrategy):
                raise ValueError(
                    "strategy must be a CascadeStrategy, got "
                    f"{type(self.strategy).__name__}"
                )
            if self.mode != "cascade":
                raise ValueError(
                    f"strategy is only valid with mode='cascade', "
                    f"not {self.mode!r}"
                )
        if self.steps is not None:
            # Normalize to a tuple of tuples so the request stays
            # hashable/frozen even when built from lists.
            object.__setattr__(
                self,
                "steps",
                tuple((str(name), int(keep)) for name, keep in self.steps),
            )


@dataclass(frozen=True)
class SearchHit:
    """One retrieved shape, with provenance.

    Extends the legacy :class:`SearchResult` tuple of (id, distance,
    similarity, rank) with where the hit came from: ``degraded`` flags a
    record carrying only a partial feature set, ``path`` records whether
    this retrieval went through the exact linear scan (``"linear"``) or
    a staged cascade (``"cascade"``), and ``stage`` is the 1-based
    cascade stage whose score this hit carries (0 outside cascade
    retrievals).
    """

    shape_id: int
    rank: int
    distance: float
    similarity: float
    name: str = ""
    group: Optional[str] = None
    degraded: bool = False
    path: str = "linear"
    stage: int = 0


@dataclass(frozen=True)
class SearchResponse:
    """Outcome of one :class:`SearchRequest`."""

    request: SearchRequest
    hits: Tuple[SearchHit, ...] = ()
    #: Retrieval path: "linear" or "cascade".
    path: str = "linear"
    #: Per-stage provenance of a cascade retrieval (empty otherwise):
    #: candidates in/out, degraded survivors and elapsed time per stage.
    stages: Tuple[StageReport, ...] = ()

    def __len__(self) -> int:
        return len(self.hits)

    def __iter__(self) -> Iterator[SearchHit]:
        return iter(self.hits)

    @property
    def shape_ids(self) -> List[int]:
        return [hit.shape_id for hit in self.hits]

    def to_results(self) -> List[SearchResult]:
        """Downgrade to the legacy ``List[SearchResult]`` shape (for
        callers still consuming the pre-PR-5 result tuples)."""
        return [
            SearchResult(
                shape_id=hit.shape_id,
                distance=hit.distance,
                similarity=hit.similarity,
                rank=hit.rank,
                name=hit.name,
                group=hit.group,
            )
            for hit in self.hits
        ]


def execute_search(
    engine: SearchEngine,
    request: SearchRequest,
    deadline: Optional[Deadline] = None,
) -> SearchResponse:
    """Run a :class:`SearchRequest` against a :class:`SearchEngine`.

    ``deadline`` (if given) bounds the work: it is checked cooperatively
    at engine stage boundaries and raises
    :class:`~repro.robust.DeadlineExceededError` once spent.

    ``mode="multi_step"`` is a deprecation shim: it warns and runs the
    equivalent cascade (exact scan over the first step's feature, then
    one rerank per later step) — identical ids, distances and ordering
    to the removed ``multi_step_search`` linear path.
    """
    if request.mode in ("cascade", "multi_step"):
        if request.mode == "multi_step":
            warnings.warn(
                "SearchRequest(mode='multi_step') is deprecated; use "
                "mode='cascade' with a CascadeStrategy (see docs/SEARCH.md). "
                "This request runs as the equivalent cascade.",
                DeprecationWarning,
                stacklevel=2,
            )
            if request.steps is not None and len(request.steps) < 2:
                raise ValueError("a multi-step plan needs at least two steps")
            strategy = (
                CascadeStrategy.from_steps(request.steps)
                if request.steps is not None
                else CascadeStrategy.paper()
            )
        else:
            strategy = request.strategy or CascadeStrategy.default(
                request.feature_name, request.k
            )
        outcome = run_cascade(
            engine,
            request.query,
            strategy,
            exclude_query=request.exclude_query,
            deadline=deadline,
        )
        hits = tuple(
            SearchHit(
                shape_id=r.shape_id,
                rank=r.rank,
                distance=r.distance,
                similarity=r.similarity,
                name=r.name,
                group=r.group,
                degraded=engine.database.get(r.shape_id).is_degraded(),
                path="cascade",
                stage=outcome.scored_stage.get(r.shape_id, 0),
            )
            for r in outcome.results
        )
        return SearchResponse(
            request=request,
            hits=hits,
            path="cascade",
            stages=outcome.reports,
        )
    if request.mode == "knn":
        results = engine.search_knn(
            request.query,
            request.feature_name,
            k=request.k,
            exclude_query=request.exclude_query,
            deadline=deadline,
        )
    else:  # threshold
        results = engine.search_threshold(
            request.query,
            request.feature_name,
            threshold=request.threshold,
            exclude_query=request.exclude_query,
            deadline=deadline,
        )
    hits = tuple(
        SearchHit(
            shape_id=r.shape_id,
            rank=r.rank,
            distance=r.distance,
            similarity=r.similarity,
            name=r.name,
            group=r.group,
            degraded=engine.database.get(r.shape_id).is_degraded(),
            path="linear",
        )
        for r in results
    )
    return SearchResponse(request=request, hits=hits, path="linear")
