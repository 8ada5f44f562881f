"""The 3DESS facade: the three-tier system of Fig. 1 behind one object.

``ThreeDESS`` wires the INTERFACE operations (query by example, query by
browsing, relevance feedback), the SERVER modules (feature extraction,
clustering), and the DATABASE tier (record store + packed feature columns)
together, so an application works with one handle:

>>> system = ThreeDESS()
>>> part_id = system.insert(mesh, group="brackets")
>>> response = system.search(SearchRequest(query=mesh, mode="knn", k=10))

Queries go through one entry point — :meth:`ThreeDESS.search` with a
declarative :class:`~repro.search.api.SearchRequest` — which returns a
:class:`~repro.search.api.SearchResponse` carrying per-hit provenance
(distance, similarity, degraded flag, linear-vs-cascade path).  The older
``query_by_example`` / ``query_by_threshold`` / ``multi_step`` methods
were removed after their deprecation cycle (migration table in
``docs/API.md``).

Background healing: degraded records (partial feature sets from faulted
ingestion) can be queued for re-extraction and repaired in place via
:meth:`enqueue_reextraction` / :meth:`run_jobs` (see ``docs/JOBS.md``).
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from ..cluster.hierarchy import ClusterNode, build_hierarchy
from ..db.database import ShapeDatabase
from ..features.pipeline import FeaturePipeline
from ..geometry.io import load_mesh
from ..geometry.mesh import TriangleMesh
from ..obs import get_registry
from ..robust.deadline import Deadline
from ..search.api import SearchRequest, SearchResponse, execute_search
from ..search.engine import Query, SearchEngine
from ..search.feedback import RelevanceFeedbackSession
from .config import SystemConfig


class ThreeDESS:
    """3D Engineering Shape Search system (the paper's prototype).

    Parameters
    ----------
    config:
        System knobs; defaults reproduce the paper's configuration.
    database:
        Optionally adopt an existing populated database (its pipeline is
        replaced by one built from ``config`` if absent).
    """

    def __init__(
        self,
        config: Optional[SystemConfig] = None,
        database: Optional[ShapeDatabase] = None,
    ) -> None:
        self.config = config if config is not None else SystemConfig()
        self.config.validate()
        if self.config.metrics_enabled is not None:
            if self.config.metrics_enabled:
                get_registry().enable()
            else:
                get_registry().disable()
        if self.config.chaos_plan is not None:
            from ..robust import chaos

            chaos.controller().arm(chaos.FaultPlan.parse(self.config.chaos_plan))
        pipeline = FeaturePipeline(
            feature_names=self.config.feature_names,
            voxel_resolution=self.config.voxel_resolution,
            target_volume=self.config.target_volume,
        )
        if self.config.feature_cache or self.config.feature_cache_dir:
            from ..features.cache import CachingPipeline, PersistentFeatureStore

            store = (
                PersistentFeatureStore(self.config.feature_cache_dir)
                if self.config.feature_cache_dir
                else None
            )
            pipeline = CachingPipeline(
                pipeline,
                max_entries=self.config.feature_cache_entries,
                store=store,
            )
        if database is None:
            database = ShapeDatabase(pipeline)
        elif database.pipeline is None:
            database.pipeline = pipeline
        self.database = database
        self.engine = SearchEngine(database, weighting=self.config.weighting)
        self._hierarchies: Dict[str, ClusterNode] = {}

    # ------------------------------------------------------------------
    # INTERFACE: inserting and submitting queries
    # ------------------------------------------------------------------
    def insert(
        self,
        mesh: TriangleMesh,
        name: Optional[str] = None,
        group: Optional[str] = None,
    ) -> int:
        """Insert a shape: extract and store all its feature vectors."""
        with get_registry().timed("system.insert"):
            shape_id = self.database.insert_mesh(mesh, name=name, group=group)
            self._hierarchies = {}
        return shape_id

    def insert_file(self, path: Union[str, os.PathLike], group: Optional[str] = None) -> int:
        """Insert a shape from a CAD file (OFF/STL/OBJ)."""
        return self.insert(load_mesh(path), group=group)

    def insert_batch(
        self,
        meshes: Sequence[TriangleMesh],
        names: Optional[Sequence[Optional[str]]] = None,
        groups: Optional[Sequence[Optional[str]]] = None,
        workers: Optional[int] = None,
    ):
        """Bulk-insert meshes with parallel feature extraction.

        ``workers`` defaults to ``config.extraction_workers``; results are
        identical to inserting serially one by one (IDs follow input
        order, failed meshes are reported, not raised).  Returns a
        :class:`~repro.db.database.BulkInsertResult`.
        """
        if workers is None:
            workers = self.config.extraction_workers
        with get_registry().timed("system.insert_batch"):
            result = self.database.insert_meshes(
                meshes,
                names=names,
                groups=groups,
                workers=workers,
                validate=self.config.validate_meshes,
                degraded=self.config.degraded_inserts,
                timeout=self.config.extraction_timeout,
                retries=self.config.extraction_retries,
            )
            self._hierarchies = {}
        return result

    def insert_files(
        self,
        paths: Sequence[Union[str, os.PathLike]],
        groups: Optional[Sequence[Optional[str]]] = None,
        workers: Optional[int] = None,
    ):
        """Bulk-insert CAD files (OFF/STL/OBJ) via :meth:`insert_batch`."""
        meshes = [load_mesh(path) for path in paths]
        return self.insert_batch(meshes, groups=groups, workers=workers)

    def search(
        self,
        request: SearchRequest,
        deadline: Optional[Deadline] = None,
    ) -> SearchResponse:
        """Run a declarative query — the single search entry point.

        Subsumes the removed ``query_by_example`` (``mode="knn"``),
        ``query_by_threshold`` (``mode="threshold"``), and ``multi_step``
        (``mode="multi_step"``) methods.  The response carries per-hit
        provenance: distance, Eq. 4.4 similarity, whether the record is
        degraded, and the linear-vs-cascade retrieval path.  ``deadline``
        (used by the query service) bounds the work cooperatively; an
        exhausted budget raises
        :class:`~repro.robust.DeadlineExceededError`.
        """
        with get_registry().timed("system.query"):
            return execute_search(self.engine, request, deadline=deadline)

    def feedback_session(
        self, query: Query, feature_name: str = "principal_moments", k: int = 10
    ) -> RelevanceFeedbackSession:
        """Start an interactive relevance-feedback loop."""
        return RelevanceFeedbackSession(self.engine, query, feature_name, k=k)

    # ------------------------------------------------------------------
    # INTERFACE: search by browsing
    # ------------------------------------------------------------------
    def browse_hierarchy(self, feature_name: str = "principal_moments") -> ClusterNode:
        """Drill-down cluster tree over one feature space (cached).

        As the paper notes, the classification differs per feature vector,
        so a hierarchy is built (and cached) per feature name.
        """
        cached = self._hierarchies.get(feature_name)
        if cached is None:
            matrix, ids = self.database.feature_matrix(feature_name)
            cached = build_hierarchy(
                matrix,
                ids,
                branching=self.config.browse_branching,
                leaf_size=self.config.browse_leaf_size,
                rng=np.random.default_rng(self.config.clustering_seed),
            )
            self._hierarchies[feature_name] = cached
        return cached

    def sample_shapes(self, feature_name: str = "principal_moments") -> List[int]:
        """Representative shapes (one per top-level cluster) — the paper's
        pick-a-model-instead-of-drawing-one interface."""
        root = self.browse_hierarchy(feature_name)
        if root.is_leaf:
            return [root.representative_id]
        return [child.representative_id for child in root.children]

    # ------------------------------------------------------------------
    # Background jobs: healing degraded records
    # ------------------------------------------------------------------
    def enqueue_reextraction(
        self, queue: Union[str, os.PathLike, "JobQueue"]
    ) -> List[str]:
        """Queue a ``re-extract`` job for every degraded record.

        ``queue`` is a journal path (or an open
        :class:`~repro.jobs.queue.JobQueue`).  Enqueueing is idempotent:
        a record with an unfinished re-extract job is not queued twice.
        Returns the job IDs covering the degraded records (existing or
        new).  Drain with :meth:`run_jobs`.
        """
        from ..jobs import RE_EXTRACT, JobQueue

        owned = not isinstance(queue, JobQueue)
        q = JobQueue(queue) if owned else queue
        try:
            return [
                q.enqueue(RE_EXTRACT, {"shape_id": sid}).job_id
                for sid in self.database.degraded_ids()
            ]
        finally:
            if owned:
                q.close()

    def run_jobs(
        self,
        queue: Union[str, os.PathLike, "JobQueue"],
        max_jobs: Optional[int] = None,
    ) -> "JobRunReport":
        """Drain the job queue against this system's database.

        Executes queued ``re-extract`` jobs (healing degraded records in
        place); search caches key on the store generation, so subsequent
        queries see the healed vectors.
        Returns the :class:`~repro.jobs.runner.JobRunReport`.
        """
        from ..jobs import RE_EXTRACT, JobQueue, JobRunner, ReextractHandler
        from ..service.warmup import WARM_CACHE, WarmCacheHandler

        owned = not isinstance(queue, JobQueue)
        q = JobQueue(queue) if owned else queue
        try:
            runner = JobRunner(
                q,
                {
                    RE_EXTRACT: ReextractHandler(self.database),
                    WARM_CACHE: WarmCacheHandler(self),
                },
            )
            report = runner.run(max_jobs=max_jobs)
        finally:
            if owned:
                q.close()
        if report.done:
            self._hierarchies = {}
        return report

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        """Snapshot of the process-wide metrics registry.

        Covers per-stage extraction timings, cache hit/miss counters, and
        query latencies recorded since the last :meth:`reset_stats` (see
        ``docs/OBSERVABILITY.md`` for the metric catalog).  Metrics are process-local: concurrent systems in one
        process share the registry.
        """
        return get_registry().snapshot()

    def stats_table(self) -> str:
        """The metrics snapshot rendered as the per-stage table of
        ``three-dess stats``."""
        return get_registry().render_table()

    def reset_stats(self) -> None:
        """Zero every metric on the process-wide registry."""
        get_registry().reset()

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, directory: Union[str, os.PathLike]) -> None:
        """Persist the shape database."""
        self.database.save(directory)

    @classmethod
    def load(
        cls,
        directory: Union[str, os.PathLike],
        config: Optional[SystemConfig] = None,
        load_meshes: bool = True,
        strict: bool = True,
    ) -> "ThreeDESS":
        """Restore a system from a saved database directory.

        ``strict=False`` salvages a corrupted directory: intact records
        load, damaged ones are dropped (see
        ``system.database.dropped_records``).
        """
        cfg = config if config is not None else SystemConfig()
        pipeline = FeaturePipeline(
            feature_names=cfg.feature_names,
            voxel_resolution=cfg.voxel_resolution,
            target_volume=cfg.target_volume,
        )
        db = ShapeDatabase.load(
            directory,
            pipeline=pipeline,
            load_meshes=load_meshes,
            strict=strict,
        )
        return cls(config=cfg, database=db)

    def __len__(self) -> int:
        return len(self.database)
