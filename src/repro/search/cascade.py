"""Multi-stage retrieval cascade (the staged-search strategy).

A cascade runs a query through a configurable pipeline of stages, each
cheaper per candidate than the next is accurate:

* **scan** — stage 1, always first: a linear pass over *one* packed
  feature column selecting a survivor pool.  In ``quantized`` form the
  pass reads the int8 sidecar (:mod:`repro.db.quantized`) — one byte per
  dimension instead of four — and its scores are *pruning* scores only;
  in exact form it is bit-for-bit the engine's linear k-NN scan.
* **rerank** — the existing vectorized weighted-Euclidean rerank
  (:meth:`SearchEngine.rerank`) over the surviving pool, under this
  stage's feature vector, truncated to its ``keep``.
* **graph** — optional last stage: skeletal-graph edit distance on the
  top slice.  Skipped gracefully (candidates pass through in their
  incoming order) when the query carries no geometry; candidates
  without meshes keep their previous score and rank after every
  graph-scored candidate.

Correctness contract: a cascade whose scan is exact and whose rerank
uses the same feature vector returns **bitwise-identical ids, distances
and ordering** to the one-shot linear path (``search_knn``) for any
pool size >= k.  The quantized scan trades that identity for
bandwidth; stage 2 always recomputes distances at full precision, so
quantization error can only cost pool membership, never distort a
reported distance.

Every stage emits a :class:`StageReport` (candidates in/out, elapsed,
degraded survivors) that flows into staged provenance on the API and
wire layers.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..obs import get_registry
from ..robust.deadline import Deadline
from ..db.quantized import approx_weighted_sq_distances
from .engine import Query, SearchEngine, SearchResult, _check_deadline
from .multistep import PAPER_POOL_SIZE, PAPER_PRESENT

__all__ = [
    "CASCADE_STAGE_KINDS",
    "CascadeStage",
    "CascadeStrategy",
    "CascadeOutcome",
    "StageReport",
    "run_cascade",
]

#: Recognised stage kinds, in the order they may appear.
CASCADE_STAGE_KINDS = ("scan", "rerank", "graph")

#: Default survivor pool when a default strategy is built for k results.
DEFAULT_POOL_FACTOR = 4

#: Per-candidate GED timeout for the graph stage (seconds).
GRAPH_STAGE_GED_TIMEOUT = 1.0

_STAGE_WIRE_FIELDS = frozenset(
    {"kind", "keep", "feature_name", "quantized", "budget_ms"}
)


@dataclass(frozen=True)
class CascadeStage:
    """One stage of a cascade.

    ``keep`` is the number of candidates surviving the stage.  ``scan``
    and ``rerank`` stages require a ``feature_name``; ``graph`` ignores
    it.  ``quantized`` is only meaningful on the scan stage.  An
    optional ``budget_ms`` bounds the stage's own work cooperatively.
    """

    kind: str
    keep: int
    feature_name: str = ""
    quantized: bool = False
    budget_ms: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind not in CASCADE_STAGE_KINDS:
            raise ValueError(
                f"unknown stage kind {self.kind!r}; "
                f"expected one of {CASCADE_STAGE_KINDS}"
            )
        if not isinstance(self.keep, int) or isinstance(self.keep, bool):
            raise ValueError(f"stage keep must be an int, got {self.keep!r}")
        if self.keep < 1:
            raise ValueError(f"stage keep must be >= 1, got {self.keep}")
        if self.kind in ("scan", "rerank") and not self.feature_name:
            raise ValueError(f"a {self.kind!r} stage needs a feature_name")
        if self.quantized and self.kind != "scan":
            raise ValueError("only the scan stage can be quantized")
        if self.budget_ms is not None and not self.budget_ms > 0:
            raise ValueError(
                f"stage budget_ms must be > 0, got {self.budget_ms}"
            )

    def to_wire(self) -> Dict[str, Any]:
        """Stage as a plain JSON-safe dict (wire protocol v2)."""
        payload: Dict[str, Any] = {"kind": self.kind, "keep": self.keep}
        if self.feature_name:
            payload["feature_name"] = self.feature_name
        if self.quantized:
            payload["quantized"] = True
        if self.budget_ms is not None:
            payload["budget_ms"] = self.budget_ms
        return payload

    @classmethod
    def from_wire(cls, payload: Mapping[str, Any]) -> "CascadeStage":
        """Parse a stage from its wire dict (strict field gating)."""
        if not isinstance(payload, Mapping):
            raise ValueError(f"stage must be an object, got {type(payload).__name__}")
        unknown = set(payload) - _STAGE_WIRE_FIELDS
        if unknown:
            raise ValueError(f"unknown stage fields: {sorted(unknown)}")
        if "kind" not in payload or "keep" not in payload:
            raise ValueError("stage needs 'kind' and 'keep'")
        budget = payload.get("budget_ms")
        if budget is not None and not isinstance(budget, (int, float)):
            raise ValueError(f"stage budget_ms must be a number, got {budget!r}")
        feature = payload.get("feature_name", "")
        if not isinstance(feature, str):
            raise ValueError("stage feature_name must be a string")
        quantized = payload.get("quantized", False)
        if not isinstance(quantized, bool):
            raise ValueError("stage quantized must be a boolean")
        keep = payload["keep"]
        if isinstance(keep, bool) or not isinstance(keep, int):
            raise ValueError(f"stage keep must be an int, got {keep!r}")
        return cls(
            kind=payload["kind"],
            keep=keep,
            feature_name=feature,
            quantized=quantized,
            budget_ms=float(budget) if budget is not None else None,
        )


@dataclass(frozen=True)
class CascadeStrategy:
    """An ordered, validated tuple of cascade stages.

    Invariants enforced here (so every consumer can trust a strategy):

    * at least one stage; the first is a ``scan`` and the only one;
    * a quantized scan must be followed by a ``rerank`` — its scores
      are pruning scores and may never be presented;
    * ``graph`` may only appear as the final stage;
    * stage keeps are non-increasing (a cascade only ever narrows).
    """

    stages: Tuple[CascadeStage, ...]

    def __post_init__(self) -> None:
        stages = tuple(self.stages)
        object.__setattr__(self, "stages", stages)
        if not stages:
            raise ValueError("a cascade needs at least one stage")
        if stages[0].kind != "scan":
            raise ValueError("the first cascade stage must be a scan")
        for stage in stages[1:]:
            if stage.kind == "scan":
                raise ValueError("only the first cascade stage may be a scan")
        for stage in stages[:-1]:
            if stage.kind == "graph":
                raise ValueError("a graph stage must be the last stage")
        if stages[0].quantized:
            if len(stages) < 2 or stages[1].kind != "rerank":
                raise ValueError(
                    "a quantized scan must be followed by a rerank stage "
                    "(its scores are pruning scores, not distances)"
                )
        keeps = [stage.keep for stage in stages]
        if any(a < b for a, b in zip(keeps, keeps[1:])):
            raise ValueError("stage keeps must be non-increasing")

    def __len__(self) -> int:
        return len(self.stages)

    @property
    def final_keep(self) -> int:
        """Presentation budget: the last stage's keep."""
        return self.stages[-1].keep

    # -- constructors --------------------------------------------------
    @classmethod
    def default(
        cls,
        feature_name: str,
        k: int,
        pool: Optional[int] = None,
        quantized: bool = True,
    ) -> "CascadeStrategy":
        """The standard two-stage cascade for ``k`` results.

        Stage 1 scans ``feature_name`` (quantized by default) keeping a
        pool of ``max(4k, 50)`` candidates; stage 2 reranks the pool
        exactly under the same feature and keeps ``k``.
        """
        if pool is None:
            pool = max(DEFAULT_POOL_FACTOR * k, 50)
        pool = max(pool, k)
        return cls(
            stages=(
                CascadeStage(
                    kind="scan",
                    keep=pool,
                    feature_name=feature_name,
                    quantized=quantized,
                ),
                CascadeStage(kind="rerank", keep=k, feature_name=feature_name),
            )
        )

    @classmethod
    def exact(
        cls, feature_name: str, k: int, pool: Optional[int] = None
    ) -> "CascadeStrategy":
        """The default cascade with a full-precision scan.

        Bitwise-identical in ids, distances and ordering to the one-shot
        linear path for any pool >= k.
        """
        return cls.default(feature_name, k, pool=pool, quantized=False)

    @classmethod
    def paper(cls) -> "CascadeStrategy":
        """The paper's multi-step experiment as a cascade: a pool of 30
        under moment invariants, reranked by geometric parameters, ten
        presented (Figures 13-15)."""
        return cls.from_steps(
            [
                ("moment_invariants", PAPER_POOL_SIZE),
                ("geometric_params", PAPER_PRESENT),
            ]
        )

    @classmethod
    def from_steps(
        cls, steps: Sequence[Tuple[str, int]]
    ) -> "CascadeStrategy":
        """The cascade equivalent of a legacy multi-step plan.

        The first (feature, keep) step becomes an exact scan, every
        later step a rerank — semantics identical to
        :func:`repro.search.multistep.multi_step_search`.
        """
        if len(steps) < 1:
            raise ValueError("from_steps needs at least one (feature, keep) step")
        first_name, first_keep = steps[0]
        stages: List[CascadeStage] = [
            CascadeStage(kind="scan", keep=int(first_keep), feature_name=str(first_name))
        ]
        for name, keep in steps[1:]:
            stages.append(
                CascadeStage(kind="rerank", keep=int(keep), feature_name=str(name))
            )
        return cls(stages=tuple(stages))

    # -- wire ----------------------------------------------------------
    def to_wire(self) -> List[Dict[str, Any]]:
        """Strategy as a JSON-safe list of stage dicts."""
        return [stage.to_wire() for stage in self.stages]

    @classmethod
    def from_wire(cls, payload: Any) -> "CascadeStrategy":
        """Parse a strategy from its wire form (a list of stage dicts)."""
        if not isinstance(payload, (list, tuple)):
            raise ValueError(
                f"strategy must be a list of stages, got {type(payload).__name__}"
            )
        return cls(stages=tuple(CascadeStage.from_wire(s) for s in payload))


@dataclass(frozen=True)
class StageReport:
    """Provenance of one executed cascade stage.

    ``path`` records how the stage actually ran — ``"quantized"`` or
    ``"exact"`` for the scan, ``"rerank"``, ``"graph"``, or
    ``"skipped"`` when an optional stage could not apply.  ``degraded``
    counts survivors flagged degraded leaving the stage.
    """

    stage: int
    kind: str
    feature_name: str
    candidates_in: int
    candidates_out: int
    degraded: int
    path: str
    elapsed_ms: float
    note: str = ""

    def to_wire(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "stage": self.stage,
            "kind": self.kind,
            "feature_name": self.feature_name,
            "candidates_in": self.candidates_in,
            "candidates_out": self.candidates_out,
            "degraded": self.degraded,
            "path": self.path,
            "elapsed_ms": round(self.elapsed_ms, 3),
        }
        if self.note:
            payload["note"] = self.note
        return payload


@dataclass
class CascadeOutcome:
    """What a cascade run produced: ranked results plus provenance."""

    results: List[SearchResult]
    reports: Tuple[StageReport, ...]
    #: shape_id -> 1-based index of the stage that produced its final score.
    scored_stage: Dict[int, int] = field(default_factory=dict)


# ----------------------------------------------------------------------
def _effective_deadline(
    outer: Optional[Deadline], stage: Optional[Deadline]
) -> Optional[Deadline]:
    """Whichever of two optional deadlines expires first."""
    if outer is None:
        return stage
    if stage is None:
        return outer
    return stage if stage.expires_at < outer.expires_at else outer


def _stage_deadline(stage: CascadeStage) -> Optional[Deadline]:
    if stage.budget_ms is None:
        return None
    return Deadline.after(stage.budget_ms / 1000.0)


def _degraded_count(engine: SearchEngine, results: List[SearchResult]) -> int:
    return sum(
        1
        for r in results
        if engine.database.get(r.shape_id).is_degraded()
    )


def _run_scan(
    engine: SearchEngine,
    query: Query,
    stage: CascadeStage,
    exclude: Optional[int],
    deadline: Optional[Deadline],
) -> Tuple[List[int], Optional[List[SearchResult]], int, int, str]:
    """Stage 1: select the survivor pool from one packed column.

    Returns ``(survivor_ids, results, candidates_in, degraded, path)``.
    ``results`` is populated only on the exact path (whose distances are
    presentable); the quantized path yields pruning scores only.
    """
    metrics = get_registry()
    vec = engine.resolve_query_vector(query, stage.feature_name)
    measure = engine.measure(stage.feature_name)
    _check_deadline(deadline, "cascade.scan")
    if stage.quantized:
        metrics.inc("cascade.quantized_scans")
        column = engine.database.quantized_view(stage.feature_name)
        weights = measure.weights
        if weights is None:
            weights = np.ones(column.dim, dtype=np.float64)
        scores = approx_weighted_sq_distances(column, vec, weights)
        ids, mask = column.ids, column.mask
        path = "quantized"
    else:
        metrics.inc("cascade.exact_scans")
        view = engine.database.feature_view(stage.feature_name)
        scores = measure.distances(vec, view.matrix)
        ids, mask = view.ids, view.mask
        path = "exact"
    candidates_in = int(len(ids))
    extra = 1 if exclude is not None else 0
    order = np.lexsort((ids, scores))[: stage.keep + extra]
    _check_deadline(deadline, "cascade.scan_select")
    if path == "exact":
        pairs = [(int(ids[i]), float(scores[i])) for i in order]
        results: Optional[List[SearchResult]] = engine._build_results(
            pairs, stage.feature_name, exclude
        )[: stage.keep]
        survivors = [r.shape_id for r in results]
        degraded = sum(1 for r in results if bool(mask[np.searchsorted(ids, r.shape_id)]))
    else:
        results = None
        survivors = []
        degraded = 0
        for i in order:
            sid = int(ids[i])
            if exclude is not None and sid == exclude:
                continue
            survivors.append(sid)
            if bool(mask[i]):
                degraded += 1
            if len(survivors) >= stage.keep:
                break
    return survivors, results, candidates_in, degraded, path


def _resolve_query_mesh(engine: SearchEngine, query: Query):
    """The query's geometry, if it has any (None for raw vectors)."""
    from ..geometry.mesh import TriangleMesh

    if isinstance(query, TriangleMesh):
        return query
    if isinstance(query, (int, np.integer)):
        return engine.database.get(int(query)).mesh
    return None


def _graph_cache(engine: SearchEngine) -> Dict[int, Any]:
    """Per-engine skeletal-graph cache, keyed on the store generation.

    Graphs derive from meshes; any mutation bumps the generation and
    drops the cache, mirroring the measure-cache coherence contract.
    """
    generation = engine.database.store_generation
    cached = getattr(engine, "_cascade_graph_cache", None)
    if cached is None or cached[0] != generation:
        cached = (generation, {})
        setattr(engine, "_cascade_graph_cache", cached)
    return cached[1]


def _run_graph_stage(
    engine: SearchEngine,
    query: Query,
    stage: CascadeStage,
    incoming: List[SearchResult],
    deadline: Optional[Deadline],
    stage_deadline: Optional[Deadline],
    stage_index: int,
    scored_stage: Dict[int, int],
) -> Tuple[List[SearchResult], str, str]:
    """Stage 3: rescore the top slice by skeletal-graph edit distance.

    Returns ``(results, path, note)``.  The whole stage is skipped —
    candidates pass through in incoming order — when the query has no
    geometry or the database has no extraction pipeline.  Candidates
    without meshes keep their previous score and rank after every
    graph-scored candidate, in their incoming relative order.
    """
    from ..skeleton.graph_distance import graph_edit_distance

    metrics = get_registry()
    sliced = incoming[: stage.keep]
    query_mesh = _resolve_query_mesh(engine, query)
    pipeline = engine.database.pipeline
    if query_mesh is None or pipeline is None:
        metrics.inc("cascade.graph_stage_skipped")
        note = "no query geometry" if query_mesh is None else "no pipeline"
        return list(sliced), "skipped", note
    query_graph = pipeline.make_context(query_mesh).skeletal_graph
    cache = _graph_cache(engine)
    scored: List[Tuple[float, int, SearchResult]] = []
    unscored: List[SearchResult] = []
    note = ""
    for pos, result in enumerate(sliced):
        _check_deadline(deadline, "cascade.graph")
        if stage_deadline is not None and stage_deadline.expired():
            # Budget spent: remaining candidates keep their stage-2
            # score and order rather than failing the whole query.
            unscored.extend(sliced[pos:])
            metrics.inc("cascade.graph_skips", len(sliced) - pos)
            note = "budget exhausted"
            break
        record = engine.database.get(result.shape_id)
        if record.mesh is None:
            metrics.inc("cascade.graph_skips")
            unscored.append(result)
            continue
        graph = cache.get(result.shape_id)
        if graph is None:
            graph = pipeline.make_context(record.mesh).skeletal_graph
            cache[result.shape_id] = graph
        ged = graph_edit_distance(
            query_graph, graph, timeout=GRAPH_STAGE_GED_TIMEOUT
        )
        scored.append((float(ged), result.shape_id, result))
    scored.sort(key=lambda item: (item[0], item[1]))
    out: List[SearchResult] = []
    for ged, sid, result in scored:
        out.append(
            SearchResult(
                shape_id=sid,
                distance=ged,
                similarity=1.0 / (1.0 + ged),
                rank=len(out) + 1,
                name=result.name,
                group=result.group,
            )
        )
        scored_stage[sid] = stage_index
    for result in unscored:
        out.append(
            SearchResult(
                shape_id=result.shape_id,
                distance=result.distance,
                similarity=result.similarity,
                rank=len(out) + 1,
                name=result.name,
                group=result.group,
            )
        )
    return out, "graph", note


def run_cascade(
    engine: SearchEngine,
    query: Query,
    strategy: CascadeStrategy,
    exclude_query: bool = True,
    deadline: Optional[Deadline] = None,
) -> CascadeOutcome:
    """Run a query through a cascade strategy.

    Semantics per stage kind are documented on :class:`CascadeStrategy`.
    The ``deadline`` bounds the whole run; each stage's ``budget_ms``
    additionally bounds that stage (whichever expires first wins).
    Scan/rerank stages abort with
    :class:`~repro.robust.DeadlineExceededError` when their budget is
    spent; the optional graph stage degrades instead — unscored
    candidates keep their previous rank.
    """
    if not isinstance(strategy, CascadeStrategy):
        raise TypeError(
            f"strategy must be a CascadeStrategy, got {type(strategy).__name__}"
        )
    metrics = get_registry()
    with metrics.timed("cascade.run"):
        metrics.inc("cascade.queries")
        exclude = (
            int(query)
            if isinstance(query, (int, np.integer)) and exclude_query
            else None
        )
        reports: List[StageReport] = []
        scored_stage: Dict[int, int] = {}
        survivors: List[int] = []
        results: List[SearchResult] = []
        for index, stage in enumerate(strategy.stages, start=1):
            _check_deadline(deadline, f"cascade.stage{index}")
            stage_dl = _stage_deadline(stage)
            effective = _effective_deadline(deadline, stage_dl)
            started = time.perf_counter()
            note = ""
            if stage.kind == "scan":
                survivors, scan_results, candidates_in, degraded, path = _run_scan(
                    engine, query, stage, exclude, effective
                )
                if scan_results is not None:
                    results = scan_results
                    for r in results:
                        scored_stage[r.shape_id] = index
                else:
                    results = []
            elif stage.kind == "rerank":
                candidates_in = len(survivors)
                results = engine.rerank(
                    survivors,
                    query,
                    stage.feature_name,
                    exclude_query=exclude_query,
                    deadline=effective,
                )[: stage.keep]
                results = [
                    SearchResult(
                        shape_id=r.shape_id,
                        distance=r.distance,
                        similarity=r.similarity,
                        rank=pos + 1,
                        name=r.name,
                        group=r.group,
                    )
                    for pos, r in enumerate(results)
                ]
                survivors = [r.shape_id for r in results]
                for r in results:
                    scored_stage[r.shape_id] = index
                degraded = _degraded_count(engine, results)
                path = "rerank"
            else:  # graph
                candidates_in = len(results)
                results, path, note = _run_graph_stage(
                    engine,
                    query,
                    stage,
                    results,
                    deadline,
                    stage_dl,
                    index,
                    scored_stage,
                )
                survivors = [r.shape_id for r in results]
                degraded = _degraded_count(engine, results)
            elapsed_ms = (time.perf_counter() - started) * 1000.0
            if stage_dl is not None and stage.kind != "graph":
                stage_dl.check(f"cascade.stage{index}.budget")
            metrics.histogram("cascade.stage_ms", unit="ms").observe(elapsed_ms)
            metrics.inc("cascade.candidates_in", candidates_in)
            metrics.inc("cascade.survivors", len(survivors))
            if degraded:
                metrics.inc("cascade.degraded_survivors", degraded)
            reports.append(
                StageReport(
                    stage=index,
                    kind=stage.kind,
                    feature_name=stage.feature_name,
                    candidates_in=candidates_in,
                    candidates_out=len(survivors),
                    degraded=degraded,
                    path=path,
                    elapsed_ms=elapsed_ms,
                    note=note,
                )
            )
        return CascadeOutcome(
            results=results,
            reports=tuple(reports),
            scored_stage=scored_stage,
        )
