"""The machine-readable metric-name catalog (single source of truth).

Every metric the instrumented code emits — counter, gauge, or histogram
name passed to :mod:`repro.obs` — must be declared here.  Two consumers
keep code and documentation from drifting:

* the ``RPL002`` lint rule (:mod:`repro.lint.rules`) statically checks
  every literal metric name at its emission site against this catalog;
* the metric table in ``docs/OBSERVABILITY.md`` is *generated* from this
  module (between the ``metric-catalog`` markers), so the docs cannot go
  stale without the sync check failing.

Regenerate / verify the docs with::

    python -m repro.obs.catalog --write docs/OBSERVABILITY.md
    python -m repro.obs.catalog --check docs/OBSERVABILITY.md

Names may contain one ``<placeholder>`` segment for families emitted
with a dynamic component (``pipeline.feature.<name>``, ``jobs.<type>``).

A docs file may restrict its generated region to a subset of sections by
naming their keys in the begin marker (``metric-catalog:begin
sections=service``) — ``docs/SERVICE.md`` embeds only the query-service
table this way while ``docs/OBSERVABILITY.md`` carries the full catalog.
The marker is self-describing, so ``--check``/``--write`` need no extra
flags.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Pattern, Sequence, Tuple

__all__ = [
    "MetricSpec",
    "CATALOG",
    "SECTION_ORDER",
    "SECTION_KEYS",
    "metric_names",
    "metric_patterns",
    "is_known_metric",
    "matches_metric_prefix",
    "render_markdown",
    "expected_docs_block",
    "docs_in_sync",
    "update_docs",
    "BEGIN_MARKER",
    "END_MARKER",
    "main",
]

#: Head shared by every begin marker (optionally followed by a
#: ``sections=key[,key...]`` attribute restricting the generated region).
_BEGIN_PREFIX = "<!-- metric-catalog:begin"


def _begin_marker(section_keys: Optional[Tuple[str, ...]] = None) -> str:
    attr = f" sections={','.join(section_keys)}" if section_keys else ""
    return (
        f"{_BEGIN_PREFIX}{attr} "
        "(generated from src/repro/obs/catalog.py; do not edit by hand) -->"
    )


#: Markers bounding the generated region inside docs/OBSERVABILITY.md.
BEGIN_MARKER = _begin_marker()
END_MARKER = "<!-- metric-catalog:end -->"


@dataclass(frozen=True)
class MetricSpec:
    """One declared metric.

    ``name`` may contain one or more ``<placeholder>`` segments for
    dynamically-suffixed families.  ``kind`` is ``counter`` / ``gauge``
    / ``histogram`` / ``derived`` (derived values are computed at
    snapshot time, never stored).  ``module`` names the emitting
    module(s) relative to ``src/repro/``.
    """

    name: str
    kind: str
    module: str
    meaning: str
    section: str


_PIPELINE = "Extraction pipeline (server tier)"
_SEARCH = "Search (interface tier)"
_INDEX = "Index (database tier)"
_STORE = "Packed feature store (database tier)"
_FACADE = "Facade"
_ROBUST = "Robustness (fault paths; see [ROBUSTNESS.md](ROBUSTNESS.md))"
_JOBS = "Background jobs (see [JOBS.md](JOBS.md))"
_SERVICE = "Query service (see [SERVICE.md](SERVICE.md))"
_DERIVED = "Derived (computed at snapshot time, not stored)"

#: Section headings in the order they render in docs/OBSERVABILITY.md.
SECTION_ORDER: Tuple[str, ...] = (
    _PIPELINE,
    _SEARCH,
    _INDEX,
    _STORE,
    _FACADE,
    _ROBUST,
    _JOBS,
    _SERVICE,
    _DERIVED,
)

#: Short keys naming sections in a ``sections=`` marker attribute.
SECTION_KEYS: Dict[str, str] = {
    "pipeline": _PIPELINE,
    "search": _SEARCH,
    "index": _INDEX,
    "store": _STORE,
    "facade": _FACADE,
    "robust": _ROBUST,
    "jobs": _JOBS,
    "service": _SERVICE,
    "derived": _DERIVED,
}

CATALOG: Tuple[MetricSpec, ...] = (
    # -- extraction pipeline (server tier) -----------------------------
    MetricSpec(
        "pipeline.extract",
        "histogram",
        "features/pipeline.py",
        "one full feature-extraction run for one mesh (all requested vectors)",
        _PIPELINE,
    ),
    MetricSpec(
        "pipeline.feature.<name>",
        "histogram",
        "features/pipeline.py",
        "one extractor (e.g. `pipeline.feature.eigenvalues`); the first "
        "voxel/skeleton-based extractor also pays for the shared stages it "
        "triggers lazily",
        _PIPELINE,
    ),
    MetricSpec(
        "pipeline.normalize",
        "histogram",
        "features/base.py",
        "pose/scale normalization (Eqs. 3.2–3.4), once per "
        "`ExtractionContext`",
        _PIPELINE,
    ),
    MetricSpec(
        "pipeline.voxelize",
        "histogram",
        "features/base.py",
        "N³ voxelization of the normalized mesh (Eq. 3.5)",
        _PIPELINE,
    ),
    MetricSpec(
        "pipeline.skeletonize",
        "histogram",
        "features/base.py",
        "topology-preserving thinning + optional spur pruning",
        _PIPELINE,
    ),
    MetricSpec(
        "pipeline.skeletal_graph",
        "histogram",
        "features/base.py",
        "entity segmentation into the skeletal graph",
        _PIPELINE,
    ),
    MetricSpec(
        "skeleton.thin",
        "histogram",
        "skeleton/thinning.py",
        "one `thin()` call, whichever kernel (the benchable unit inside "
        "`pipeline.skeletonize`)",
        _PIPELINE,
    ),
    MetricSpec(
        "cache.hits",
        "counter",
        "features/cache.py",
        "`CachingPipeline` content-cache hits (memory or disk)",
        _PIPELINE,
    ),
    MetricSpec(
        "cache.disk_hits",
        "counter",
        "features/cache.py",
        "the subset of hits served from the `PersistentFeatureStore`",
        _PIPELINE,
    ),
    MetricSpec(
        "cache.disk_corrupt",
        "counter",
        "features/cache.py",
        "corrupt/unreadable store entries deleted and treated as misses",
        _PIPELINE,
    ),
    MetricSpec(
        "cache.misses",
        "counter",
        "features/cache.py, features/parallel.py",
        "content-cache misses (full extraction runs)",
        _PIPELINE,
    ),
    MetricSpec(
        "cache.evictions",
        "counter",
        "features/cache.py",
        "LRU evictions past `max_entries`",
        _PIPELINE,
    ),
    MetricSpec(
        "cache.size",
        "gauge",
        "features/cache.py",
        "current number of cached entries",
        _PIPELINE,
    ),
    MetricSpec(
        "parallel.batch",
        "histogram",
        "features/parallel.py",
        "one `ParallelPipeline.extract_batch` fan-out (pool or serial path)",
        _PIPELINE,
    ),
    MetricSpec(
        "parallel.tasks",
        "counter",
        "features/parallel.py",
        "meshes submitted to batch extraction",
        _PIPELINE,
    ),
    MetricSpec(
        "parallel.errors",
        "counter",
        "features/parallel.py",
        "per-mesh extraction failures captured in `ExtractionOutcome.error`",
        _PIPELINE,
    ),
    # -- search (interface tier) ---------------------------------------
    MetricSpec(
        "search.knn",
        "histogram",
        "search/engine.py",
        "one `search_knn` call (query resolution + index search + result "
        "build)",
        _SEARCH,
    ),
    MetricSpec(
        "search.threshold",
        "histogram",
        "search/engine.py",
        "one `search_threshold` call",
        _SEARCH,
    ),
    MetricSpec(
        "search.rerank",
        "histogram",
        "search/engine.py",
        "one filter step over an explicit candidate set",
        _SEARCH,
    ),
    MetricSpec(
        "search.multistep",
        "histogram",
        "search/multistep.py",
        "one whole multi-step plan (pool retrieval + all filter steps)",
        _SEARCH,
    ),
    MetricSpec(
        "search.queries",
        "counter",
        "search/engine.py",
        "queries issued (k-NN + threshold)",
        _SEARCH,
    ),
    MetricSpec(
        "search.candidates_examined",
        "counter",
        "search/engine.py",
        "candidates returned by the scan or scored during rerank",
        _SEARCH,
    ),
    MetricSpec(
        "search.multistep.steps",
        "counter",
        "search/multistep.py",
        "total steps executed across multi-step plans",
        _SEARCH,
    ),
    MetricSpec(
        "cascade.run",
        "histogram",
        "search/cascade.py",
        "one whole cascade retrieval (all stages)",
        _SEARCH,
    ),
    MetricSpec(
        "cascade.stage_ms",
        "histogram",
        "search/cascade.py",
        "elapsed time of one executed cascade stage (any kind)",
        _SEARCH,
    ),
    MetricSpec(
        "cascade.queries",
        "counter",
        "search/cascade.py",
        "cascade retrievals run (`mode=\"cascade\"` plus the deprecated "
        "`multi_step` shim)",
        _SEARCH,
    ),
    MetricSpec(
        "cascade.quantized_scans",
        "counter",
        "search/cascade.py",
        "stage-1 scans answered from the int8 quantized sidecar",
        _SEARCH,
    ),
    MetricSpec(
        "cascade.exact_scans",
        "counter",
        "search/cascade.py",
        "stage-1 scans run at full precision (exact mode / shim)",
        _SEARCH,
    ),
    MetricSpec(
        "cascade.candidates_in",
        "counter",
        "search/cascade.py",
        "candidates entering cascade stages (summed over stages)",
        _SEARCH,
    ),
    MetricSpec(
        "cascade.survivors",
        "counter",
        "search/cascade.py",
        "candidates surviving cascade stages (summed over stages)",
        _SEARCH,
    ),
    MetricSpec(
        "cascade.degraded_survivors",
        "counter",
        "search/cascade.py",
        "degraded (partial-feature) records among stage survivors",
        _SEARCH,
    ),
    MetricSpec(
        "cascade.graph_skips",
        "counter",
        "search/cascade.py",
        "graph-stage candidates left at their previous score (no mesh, "
        "or the stage budget ran out)",
        _SEARCH,
    ),
    MetricSpec(
        "cascade.graph_stage_skipped",
        "counter",
        "search/cascade.py",
        "graph stages skipped whole (query without geometry, or no "
        "extraction pipeline)",
        _SEARCH,
    ),
    # -- index (database tier) -----------------------------------------
    MetricSpec(
        "index.rtree.node_accesses",
        "counter",
        "index/rtree.py",
        "R-tree nodes touched (all trees in the process; per-tree counts "
        "stay on `RTree.node_accesses`)",
        _INDEX,
    ),
    MetricSpec(
        "index.linear.point_accesses",
        "counter",
        "index/bruteforce.py",
        "points scanned by the linear baseline",
        _INDEX,
    ),
    # -- packed feature store (database tier) --------------------------
    MetricSpec(
        "store.appends",
        "counter",
        "db/matrix_store.py",
        "feature rows appended to the packed columnar store (tail-append "
        "fast path and copy-on-write inserts alike)",
        _STORE,
    ),
    MetricSpec(
        "store.rebuilds",
        "counter",
        "db/matrix_store.py",
        "copy-on-write column rebuilds (deletes, out-of-order inserts, "
        "replacements)",
        _STORE,
    ),
    MetricSpec(
        "store.mmap_attaches",
        "counter",
        "db/matrix_store.py",
        "columns attached as read-only memory maps from a packed `.npy` "
        "tier (zero-copy loads)",
        _STORE,
    ),
    MetricSpec(
        "store.fallback_rebuilds",
        "counter",
        "db/database.py",
        "database loads that rebuilt the packed store from records "
        "(directory without a usable packed tier, or salvage mismatch)",
        _STORE,
    ),
    MetricSpec(
        "store.rows",
        "gauge",
        "db/matrix_store.py",
        "total feature rows currently packed (sum over feature families)",
        _STORE,
    ),
    MetricSpec(
        "store.bytes",
        "gauge",
        "db/matrix_store.py",
        "bytes held (or mapped) by the packed matrices",
        _STORE,
    ),
    MetricSpec(
        "store.quantized_builds",
        "counter",
        "db/matrix_store.py",
        "int8 quantized views built in-process from a packed column "
        "(cache miss on the current generation)",
        _STORE,
    ),
    MetricSpec(
        "store.quantized_attaches",
        "counter",
        "db/matrix_store.py",
        "quantized columns attached from the persisted sidecar at load "
        "time (no rebuild needed)",
        _STORE,
    ),
    MetricSpec(
        "store.quantized_fallbacks",
        "counter",
        "db/database.py",
        "persisted quantized columns discarded at load (shape/dtype "
        "mismatch vs the packed tier); the view is lazily rebuilt instead",
        _STORE,
    ),
    # -- facade --------------------------------------------------------
    MetricSpec(
        "system.insert",
        "histogram",
        "core/system.py",
        "one `ThreeDESS.insert` (extraction + indexing + cache "
        "invalidation)",
        _FACADE,
    ),
    MetricSpec(
        "system.insert_batch",
        "histogram",
        "core/system.py",
        "one `ThreeDESS.insert_batch` (bulk extraction, serial or parallel, "
        "+ indexing)",
        _FACADE,
    ),
    MetricSpec(
        "system.query",
        "histogram",
        "core/system.py",
        "one facade query (`ThreeDESS.search`)",
        _FACADE,
    ),
    # -- robustness (fault paths) --------------------------------------
    MetricSpec(
        "robust.validation_failures",
        "counter",
        "features/parallel.py",
        "meshes rejected by pre-flight validation before extraction",
        _ROBUST,
    ),
    MetricSpec(
        "robust.quarantined",
        "counter",
        "db/database.py",
        "bulk-insert inputs that failed and were reported, not inserted",
        _ROBUST,
    ),
    MetricSpec(
        "robust.worker_timeouts",
        "counter",
        "features/parallel.py",
        "extraction workers terminated at the per-task deadline",
        _ROBUST,
    ),
    MetricSpec(
        "robust.worker_crashes",
        "counter",
        "features/parallel.py",
        "extraction workers that died without reporting (segfault/OOM kill)",
        _ROBUST,
    ),
    MetricSpec(
        "robust.degraded_extractions",
        "counter",
        "features/pipeline.py",
        "`extract_partial` runs that produced a partial feature set",
        _ROBUST,
    ),
    MetricSpec(
        "robust.degraded_records",
        "counter",
        "db/database.py",
        "shapes inserted with a partial feature set",
        _ROBUST,
    ),
    MetricSpec(
        "robust.corrupt_files",
        "counter",
        "db/storage.py, features/cache.py",
        "files failing checksum/readability verification (database files + "
        "persistent cache entries)",
        _ROBUST,
    ),
    MetricSpec(
        "robust.dropped_records",
        "counter",
        "db/storage.py",
        "records dropped by a `strict=False` salvage load",
        _ROBUST,
    ),
    MetricSpec(
        "robust.healed_records",
        "counter",
        "db/database.py",
        "degraded records restored to a full feature set by re-extraction",
        _ROBUST,
    ),
    MetricSpec(
        "search.degraded_candidates",
        "counter",
        "search/engine.py",
        "rerank candidates lacking the filter feature (ranked last at "
        "similarity 0)",
        _ROBUST,
    ),
    MetricSpec(
        "chaos.hits",
        "counter",
        "robust/chaos.py",
        "injection-point hits evaluated while a fault plan is armed",
        _ROBUST,
    ),
    MetricSpec(
        "chaos.injected",
        "counter",
        "robust/chaos.py",
        "faults actually fired (error/latency/torn/kill) by the armed plan",
        _ROBUST,
    ),
    # -- background jobs -----------------------------------------------
    MetricSpec(
        "pool.tasks",
        "counter",
        "jobs/pool.py",
        "tasks completed by persistent-pool workers (success or returned "
        "failure)",
        _JOBS,
    ),
    MetricSpec(
        "pool.timeouts",
        "counter",
        "jobs/pool.py",
        "pool workers SIGKILLed at the per-task deadline",
        _JOBS,
    ),
    MetricSpec(
        "pool.crashes",
        "counter",
        "jobs/pool.py",
        "pool workers that died mid-task without reporting",
        _JOBS,
    ),
    MetricSpec(
        "pool.respawns",
        "counter",
        "jobs/pool.py",
        "pool workers discarded (killed, crashed, or pruned) over the "
        "pool's lifetime",
        _JOBS,
    ),
    MetricSpec(
        "pool.retries",
        "counter",
        "jobs/pool.py",
        "tasks requeued onto a fresh worker after a retryable failure",
        _JOBS,
    ),
    MetricSpec(
        "jobs.enqueued",
        "counter",
        "jobs/queue.py",
        "jobs appended to a queue journal",
        _JOBS,
    ),
    MetricSpec(
        "jobs.claimed",
        "counter",
        "jobs/queue.py",
        "jobs moved to `running` (each claim is one attempt)",
        _JOBS,
    ),
    MetricSpec(
        "jobs.completed",
        "counter",
        "jobs/queue.py",
        "jobs finished `done`",
        _JOBS,
    ),
    MetricSpec(
        "jobs.failed",
        "counter",
        "jobs/queue.py",
        "job runs that failed with attempts remaining",
        _JOBS,
    ),
    MetricSpec(
        "jobs.dead",
        "counter",
        "jobs/queue.py",
        "jobs that exhausted their attempt budget",
        _JOBS,
    ),
    MetricSpec(
        "jobs.job",
        "histogram",
        "jobs/runner.py",
        "one job execution (any type), claim to journaled outcome",
        _JOBS,
    ),
    MetricSpec(
        "jobs.<type>",
        "histogram",
        "jobs/runner.py",
        "handler time per job type (e.g. `jobs.re-extract`)",
        _JOBS,
    ),
    MetricSpec(
        "db.reextract",
        "histogram",
        "db/database.py",
        "one full re-extraction of a stored record's geometry",
        _JOBS,
    ),
    # -- query service -------------------------------------------------
    MetricSpec(
        "service.request.<endpoint>",
        "histogram",
        "service/server.py",
        "wall time of one request per endpoint (e.g. "
        "`service.request.search`), admission wait included",
        _SERVICE,
    ),
    MetricSpec(
        "service.requests",
        "counter",
        "service/server.py",
        "requests admitted and executed (any endpoint, any outcome)",
        _SERVICE,
    ),
    MetricSpec(
        "service.rejected",
        "counter",
        "service/server.py",
        "requests refused with 503 + `Retry-After` (admission queue full)",
        _SERVICE,
    ),
    MetricSpec(
        "service.timeouts",
        "counter",
        "service/server.py",
        "requests that ran out of deadline budget (504), queued or "
        "mid-search",
        _SERVICE,
    ),
    MetricSpec(
        "service.client_errors",
        "counter",
        "service/server.py",
        "malformed or unroutable requests answered 4xx",
        _SERVICE,
    ),
    MetricSpec(
        "service.errors",
        "counter",
        "service/server.py",
        "requests failed by a server-side error (500)",
        _SERVICE,
    ),
    MetricSpec(
        "service.active",
        "gauge",
        "service/server.py",
        "search requests currently executing",
        _SERVICE,
    ),
    MetricSpec(
        "service.queue_depth",
        "gauge",
        "service/server.py",
        "search requests waiting for an execution slot",
        _SERVICE,
    ),
    MetricSpec(
        "service.reload",
        "histogram",
        "service/snapshot.py",
        "one snapshot reload (database load + atomic swap)",
        _SERVICE,
    ),
    MetricSpec(
        "service.reloads",
        "counter",
        "service/snapshot.py",
        "snapshot generations swapped in (SIGHUP, `/admin/reload`, or "
        "the jobs watcher)",
        _SERVICE,
    ),
    MetricSpec(
        "service.watch.cycles",
        "counter",
        "service/watcher.py",
        "background drainer cycles that found and ran queued jobs",
        _SERVICE,
    ),
    MetricSpec(
        "service.watch.jobs",
        "counter",
        "service/watcher.py",
        "jobs executed by the background drainer (done or failed)",
        _SERVICE,
    ),
    MetricSpec(
        "service.state",
        "gauge",
        "service/server.py",
        "server health state (0 healthy, 1 degraded, 2 draining)",
        _SERVICE,
    ),
    MetricSpec(
        "service.drains",
        "counter",
        "service/server.py",
        "graceful drains started (SIGTERM or `stop(drain=True)`)",
        _SERVICE,
    ),
    MetricSpec(
        "service.drain.shed",
        "counter",
        "service/server.py",
        "requests refused with 503 `service.draining` during a drain",
        _SERVICE,
    ),
    MetricSpec(
        "service.idempotent_replays",
        "counter",
        "service/server.py",
        "admin requests answered from the idempotency replay cache "
        "(client retried an already-applied mutation)",
        _SERVICE,
    ),
    MetricSpec(
        "service.warmup",
        "histogram",
        "service/warmup.py",
        "one cache-warmup pass (matrix views paged in + scorer caches "
        "primed after a snapshot load)",
        _SERVICE,
    ),
    MetricSpec(
        "service.client.requests",
        "counter",
        "service/client.py",
        "HTTP requests attempted by `ServiceClient` (including retries)",
        _SERVICE,
    ),
    MetricSpec(
        "service.client.retries",
        "counter",
        "service/client.py",
        "`ServiceClient` attempts that were retried after a retryable "
        "failure (backoff + jitter)",
        _SERVICE,
    ),
    MetricSpec(
        "service.client.failures",
        "counter",
        "service/client.py",
        "`ServiceClient` calls that exhausted the retry budget or hit a "
        "non-retryable error",
        _SERVICE,
    ),
    MetricSpec(
        "service.client.breaker_open",
        "counter",
        "service/client.py",
        "circuit-breaker transitions to open (error rate over threshold)",
        _SERVICE,
    ),
    MetricSpec(
        "service.client.breaker_state",
        "gauge",
        "service/client.py",
        "circuit-breaker state (0 closed, 1 half-open, 2 open)",
        _SERVICE,
    ),
    MetricSpec(
        "service.client.wire_downgrades",
        "counter",
        "service/client.py",
        "clients that renegotiated from protocol v2 to v1 against a "
        "pre-versioning server (once per client lifetime)",
        _SERVICE,
    ),
    # -- derived -------------------------------------------------------
    MetricSpec(
        "cache.hit_rate",
        "derived",
        "obs/registry.py",
        "`cache.hits / (cache.hits + cache.misses)`",
        _DERIVED,
    ),
    MetricSpec(
        "search.candidates_per_query",
        "derived",
        "obs/registry.py",
        "`search.candidates_examined / search.queries`",
        _DERIVED,
    ),
)

_PLACEHOLDER_RE = re.compile(r"<[^<>]+>")


def metric_names() -> FrozenSet[str]:
    """Exact (placeholder-free) catalog names, derived entries included."""
    return frozenset(
        spec.name for spec in CATALOG if not _PLACEHOLDER_RE.search(spec.name)
    )


def _pattern_for(name: str) -> Pattern[str]:
    parts = _PLACEHOLDER_RE.split(name)
    return re.compile(".+".join(re.escape(part) for part in parts) + r"\Z")


def metric_patterns() -> Tuple[Pattern[str], ...]:
    """Compiled regexes for the catalog entries carrying placeholders."""
    return tuple(
        _pattern_for(spec.name)
        for spec in CATALOG
        if _PLACEHOLDER_RE.search(spec.name)
    )


def is_known_metric(name: str) -> bool:
    """Whether a fully-static metric name is declared in the catalog."""
    if name in metric_names():
        return True
    return any(pattern.match(name) for pattern in metric_patterns())


def matches_metric_prefix(prefix: str) -> bool:
    """Whether a *partially*-static name (an f-string's literal head)
    can still resolve to a declared metric.

    Used by the RPL002 lint rule for dynamically-formatted names such as
    ``f"jobs.{job.type}"`` (prefix ``"jobs."``): the check passes when
    any catalog entry could complete the prefix.  An empty prefix (fully
    dynamic name) is conservatively accepted.
    """
    if not prefix:
        return True
    for spec in CATALOG:
        head = _PLACEHOLDER_RE.split(spec.name)[0]
        if spec.name.startswith(prefix) or head.startswith(prefix):
            return True
    return False


# ----------------------------------------------------------------------
# docs generation (the table in docs/OBSERVABILITY.md)
# ----------------------------------------------------------------------
def _resolve_section_keys(
    section_keys: Optional[Sequence[str]],
) -> Optional[Tuple[str, ...]]:
    """Validate marker section keys; None means the full catalog."""
    if section_keys is None:
        return None
    unknown = [key for key in section_keys if key not in SECTION_KEYS]
    if unknown:
        raise ValueError(
            f"unknown metric-catalog section key(s) {', '.join(unknown)}; "
            f"expected a subset of {', '.join(sorted(SECTION_KEYS))}"
        )
    return tuple(section_keys)


def render_markdown(section_keys: Optional[Sequence[str]] = None) -> str:
    """The metric tables, grouped by section, as GitHub Markdown.

    ``section_keys`` (from :data:`SECTION_KEYS`) restricts the output to
    a subset of sections; None renders the full catalog.
    """
    keys = _resolve_section_keys(section_keys)
    wanted = (
        None if keys is None else {SECTION_KEYS[key] for key in keys}
    )
    by_section: Dict[str, List[MetricSpec]] = {}
    for spec in CATALOG:
        by_section.setdefault(spec.section, []).append(spec)
    blocks: List[str] = []
    for section in SECTION_ORDER:
        if wanted is not None and section not in wanted:
            continue
        specs = by_section.get(section, [])
        if not specs:
            continue
        lines = [f"### {section}", ""]
        if section == _DERIVED:
            lines.append("| metric | meaning |")
            lines.append("|---|---|")
            for spec in specs:
                lines.append(f"| `{spec.name}` | {spec.meaning} |")
        else:
            lines.append("| metric | type | emitted in | meaning |")
            lines.append("|---|---|---|---|")
            for spec in specs:
                lines.append(
                    f"| `{spec.name}` | {spec.kind} | `{spec.module}` "
                    f"| {spec.meaning} |"
                )
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks)


def expected_docs_block(section_keys: Optional[Sequence[str]] = None) -> str:
    """The full generated region, markers included."""
    keys = _resolve_section_keys(section_keys)
    return (
        f"{_begin_marker(keys)}\n\n{render_markdown(keys)}\n\n{END_MARKER}"
    )


_SECTIONS_ATTR_RE = re.compile(r"\bsections=([a-z0-9_,-]+)")


def _split_docs(text: str) -> Tuple[str, str, str, Optional[Tuple[str, ...]]]:
    """(before, generated-region, after, section-keys) of a docs file.

    The begin marker is self-describing: an optional ``sections=`` attr
    names the :data:`SECTION_KEYS` subset the region carries (None for
    the full catalog).  Raises ``ValueError`` when the markers are
    missing, malformed, or name unknown sections.
    """
    begin = text.find(_BEGIN_PREFIX)
    end = text.find(END_MARKER)
    if begin < 0 or end < 0 or end < begin:
        raise ValueError(
            "metric-catalog markers not found (or out of order); expected "
            f"{BEGIN_MARKER!r} ... {END_MARKER!r}"
        )
    marker_close = text.find("-->", begin)
    if marker_close < 0 or marker_close > end:
        raise ValueError("unterminated metric-catalog begin marker")
    attr = _SECTIONS_ATTR_RE.search(text[begin : marker_close + 3])
    keys = _resolve_section_keys(
        tuple(attr.group(1).split(",")) if attr else None
    )
    return (
        text[:begin],
        text[begin : end + len(END_MARKER)],
        text[end + len(END_MARKER) :],
        keys,
    )


def docs_in_sync(path: str) -> bool:
    """Whether the generated region of ``path`` matches the catalog.

    The sections covered are read from the file's own begin marker.
    """
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    _, current, _, keys = _split_docs(text)
    return current == expected_docs_block(keys)


def update_docs(path: str) -> bool:
    """Rewrite the generated region of ``path``; True when it changed.

    Preserves the section subset declared in the file's begin marker.
    """
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    before, current, after, keys = _split_docs(text)
    expected = expected_docs_block(keys)
    if current == expected:
        return False
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(before + expected + after)
    return True


class _ExitCode(enum.IntEnum):
    """Exit codes of ``python -m repro.obs.catalog``."""

    OK = 0
    STALE = 1
    ERROR = 2


def main(argv: Optional[Sequence[str]] = None) -> int:
    """``python -m repro.obs.catalog [--check | --write] [DOCS_PATH]``."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.catalog",
        description="verify or regenerate the metric table in "
        "docs/OBSERVABILITY.md from the machine-readable catalog",
    )
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument(
        "--check",
        action="store_true",
        help="exit 1 when the docs table is stale (default)",
    )
    mode.add_argument(
        "--write", action="store_true", help="rewrite the docs table in place"
    )
    parser.add_argument(
        "path",
        nargs="?",
        default="docs/OBSERVABILITY.md",
        help="docs file carrying the metric-catalog markers",
    )
    args = parser.parse_args(argv)
    try:
        if args.write:
            changed = update_docs(args.path)
            print(
                f"{args.path}: {'regenerated' if changed else 'already in sync'}"
            )
            return _ExitCode.OK
        if docs_in_sync(args.path):
            print(f"{args.path}: metric catalog in sync")
            return _ExitCode.OK
        print(
            f"{args.path}: metric catalog is STALE; run "
            f"`python -m repro.obs.catalog --write {args.path}`"
        )
        return _ExitCode.STALE
    except (OSError, ValueError) as exc:
        print(f"error: {exc}")
        return _ExitCode.ERROR


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
