"""Parallel batch feature extraction (the off-line stage of a search
engine, GIFT-style) with fault isolation.

Extraction — normalization, voxelization, thinning — is embarrassingly
parallel across shapes: no extractor shares state between meshes, and the
whole path is deterministic NumPy, so fanning a batch over worker
processes yields bitwise-identical vectors to the serial loop.
`ParallelPipeline` adds what a raw pool does not give:

* **ordered results** — outcomes come back indexed by input position, so
  downstream ID assignment is independent of completion order;
* **per-task error capture** — one degenerate mesh produces a recorded
  :class:`ExtractionOutcome` failure (stage + error code from the
  :mod:`repro.robust` taxonomy), not a dead batch;
* **pre-flight validation** — with ``validate=True`` every mesh passes
  :func:`repro.robust.validate.check_mesh` before extraction, so NaN
  vertices and degenerate geometry are quarantined without burning a
  worker;
* **degraded-mode extraction** — with ``degraded=True`` a shape whose
  skeletonization (or any feature subset) fails still yields the feature
  vectors that *can* be computed, marked partial via ``failures``;
* **worker crash isolation, timeouts + bounded retries** — every
  parallel batch runs on a :class:`repro.jobs.pool.WorkerPool`:
  long-lived workers fed over pipes.  A worker that dies mid-task
  (segfault, OOM kill) is respawned and its task retried (``retries``)
  before being reported as ``extract.worker_crash``; with
  ``task_timeout`` set, a task past its deadline has its worker killed
  and is retried the same way, then reported as ``extract.timeout``.
  Deterministic failures (any non-retryable :mod:`repro.robust` code)
  short-circuit the retry budget.  No deadlocked pools, ever;
* **cache integration** — when the wrapped pipeline is a
  :class:`~repro.features.cache.CachingPipeline`, cached shapes are
  answered in the parent process and only misses are shipped to workers;
  complete worker results are folded back into the cache.

There are exactly two execution paths.  Without a timeout, ``workers <=
1`` or a single pending mesh runs an in-process serial loop with the same
result/ordering/error contract, so callers never branch; everything else
runs on the worker pool.  Setting ``task_timeout`` always uses the pool —
a wall-clock budget is only enforceable against a process that can be
killed.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..geometry.mesh import TriangleMesh
from ..jobs.pool import WorkerPool
from ..obs import get_registry
from ..robust.errors import (
    FailureInfo,
    InvalidParameterError,
    classify_exception,
)
from ..robust.validate import check_mesh
from .pipeline import FeaturePipeline


@dataclass(frozen=True)
class PipelineSpec:
    """Picklable description of a FeaturePipeline, rebuilt in each worker."""

    feature_names: Tuple[str, ...]
    voxel_resolution: int
    target_volume: float
    prune_spur_length: Optional[int]

    @classmethod
    def of(cls, pipeline) -> "PipelineSpec":
        """Spec of a FeaturePipeline or anything forwarding its knobs."""
        return cls(
            feature_names=tuple(pipeline.feature_names),
            voxel_resolution=int(pipeline.voxel_resolution),
            target_volume=float(pipeline.target_volume),
            prune_spur_length=pipeline.prune_spur_length,
        )

    def build(self) -> FeaturePipeline:
        return FeaturePipeline(
            feature_names=list(self.feature_names),
            voxel_resolution=self.voxel_resolution,
            target_volume=self.target_volume,
            prune_spur_length=self.prune_spur_length,
        )


@dataclass
class ExtractionOutcome:
    """Result of extracting one mesh of a batch.

    Three shapes exist:

    * **success** — ``features`` set, ``error`` None, ``failures`` empty;
    * **degraded success** — ``features`` holds the subset that computed,
      ``failures`` maps each missing feature name to its
      :class:`~repro.robust.errors.FailureInfo`;
    * **failure** — ``error``/``failure`` set, ``features`` None.
    """

    index: int
    features: Optional[Dict[str, np.ndarray]] = None
    error: Optional[str] = None
    #: Structured cause of a failed outcome (stage, code, digest).
    failure: Optional[FailureInfo] = None
    #: Per-feature failures of a degraded (partial) success.
    failures: Dict[str, FailureInfo] = field(default_factory=dict)
    #: Extraction attempts consumed (> 1 after a timeout/crash retry).
    attempts: int = 1

    @classmethod
    def from_failure(
        cls, index: int, failure: FailureInfo, attempts: int = 1
    ) -> "ExtractionOutcome":
        return cls(
            index=index,
            error=failure.message,
            failure=failure,
            attempts=attempts,
        )

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def degraded(self) -> bool:
        """Succeeded, but with a partial feature set."""
        return self.ok and bool(self.failures)


def _extract_one(
    pipeline, mesh: TriangleMesh, degraded: bool
) -> Tuple[Dict[str, np.ndarray], Dict[str, FailureInfo]]:
    """``(features, per-feature failures)`` of one mesh: partial
    extraction in degraded mode (when the pipeline supports it), else
    full extraction with no failures."""
    if degraded and hasattr(pipeline, "extract_partial"):
        return pipeline.extract_partial(mesh)
    return pipeline.extract(mesh), {}


@dataclass(frozen=True)
class _ExtractionWorkerFactory:
    """Picklable per-worker initializer for the worker pool.

    Executed once inside each :class:`~repro.jobs.pool.WorkerPool`
    worker: builds the pipeline (extractor objects constructed once per
    *process*, not per task) and returns the mesh -> (features,
    failures) task handler.
    """

    spec: PipelineSpec
    degraded: bool

    def __call__(self):
        return functools.partial(
            _extract_one, self.spec.build(), degraded=self.degraded
        )


class ParallelPipeline:
    """Fan mesh -> feature-vector extraction out over worker processes.

    Parameters
    ----------
    pipeline:
        The pipeline to replicate in each worker.  A
        :class:`~repro.features.cache.CachingPipeline` is honoured: hits
        are served from cache, complete worker results populate it.
    workers:
        Process count.  ``<= 1`` (default 0) runs serially in-process —
        same outcomes, no pool overhead — unless ``task_timeout`` forces
        subprocess isolation.  The :class:`repro.jobs.pool.WorkerPool`
        is spawned on the first parallel batch and reused by later ones
        until :meth:`close`.
    task_timeout:
        Per-task wall-clock budget in seconds.  When set, every task runs
        in a killable worker process that is *killed* at the deadline; a
        timed-out or crashed task is retried ``retries`` times on a fresh
        worker before its outcome is recorded as a failure
        (``extract.timeout`` / ``extract.worker_crash``).
    retries:
        Extra attempts after a timeout or worker crash (default 1: "one
        retry on a fresh worker").  Deterministic extraction errors
        (non-retryable :mod:`repro.robust` codes, e.g. a
        ``MeshValidationError``) are never retried — the same mesh fails
        the same way, so they short-circuit the budget.
    validate:
        Run :func:`repro.robust.validate.check_mesh` before extraction;
        invalid meshes become validation-stage failures without touching
        a worker.
    degraded:
        Use partial extraction (see
        :meth:`~repro.features.pipeline.FeaturePipeline.extract_partial`).
    """

    def __init__(
        self,
        pipeline,
        workers: int = 0,
        task_timeout: Optional[float] = None,
        retries: int = 1,
        validate: bool = False,
        degraded: bool = False,
    ) -> None:
        if workers < 0:
            raise InvalidParameterError(
                f"workers must be >= 0, got {workers}",
                code="usage.bad_workers",
            )
        if task_timeout is not None and task_timeout <= 0:
            raise InvalidParameterError(
                f"task_timeout must be > 0, got {task_timeout}",
                code="usage.bad_timeout",
            )
        if retries < 0:
            raise InvalidParameterError(
                f"retries must be >= 0, got {retries}",
                code="usage.bad_retries",
            )
        self.pipeline = pipeline
        self.workers = int(workers)
        self.task_timeout = task_timeout
        self.retries = int(retries)
        self.validate = bool(validate)
        self.degraded = bool(degraded)
        self._worker_pool: Optional[WorkerPool] = None  # spawned lazily

    def close(self) -> None:
        """Shut down the worker pool, if one was spawned.

        Safe to call repeatedly; the pool respawns on the next batch.
        """
        if self._worker_pool is not None:
            self._worker_pool.close()
            self._worker_pool = None

    def __enter__(self) -> "ParallelPipeline":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- pipeline interface forwarding --------------------------------
    @property
    def feature_names(self):
        return self.pipeline.feature_names

    def dimensions(self):
        return self.pipeline.dimensions()

    def extract(self, mesh: TriangleMesh) -> Dict[str, np.ndarray]:
        """Single-mesh extraction (delegates to the wrapped pipeline)."""
        return self.pipeline.extract(mesh)

    # -- batch extraction ---------------------------------------------
    def extract_batch(
        self, meshes: Iterable[TriangleMesh]
    ) -> List[ExtractionOutcome]:
        """Extract features for a mesh batch; outcomes in input order."""
        meshes = list(meshes)
        metrics = get_registry()
        outcomes: List[Optional[ExtractionOutcome]] = [None] * len(meshes)

        cache = self.pipeline if hasattr(self.pipeline, "lookup") else None
        pending: List[int] = []
        for i, mesh in enumerate(meshes):
            if self.validate:
                problem = check_mesh(mesh)
                if problem is not None:
                    outcomes[i] = ExtractionOutcome.from_failure(
                        i, classify_exception(problem)
                    )
                    metrics.inc("robust.validation_failures")
                    continue
            if cache is not None:
                cached = cache.lookup(mesh)
                if cached is not None:
                    outcomes[i] = ExtractionOutcome(index=i, features=cached)
                    continue
            pending.append(i)

        with metrics.timed("parallel.batch"):
            if pending and (
                self.task_timeout is not None
                or (self.workers > 1 and len(pending) > 1)
            ):
                self._run_pool(meshes, pending, outcomes)
            else:
                self._run_serial(meshes, pending, outcomes)

        metrics.inc("parallel.tasks", len(meshes))
        metrics.inc(
            "parallel.errors",
            sum(1 for o in outcomes if o is not None and not o.ok),
        )
        assert all(o is not None for o in outcomes)
        return outcomes  # type: ignore[return-value]

    def _run_serial(
        self,
        meshes: Sequence[TriangleMesh],
        pending: Sequence[int],
        outcomes: List[Optional[ExtractionOutcome]],
    ) -> None:
        for i in pending:
            try:
                features, failures = _extract_one(
                    self.pipeline, meshes[i], self.degraded
                )
            except Exception as exc:
                outcomes[i] = ExtractionOutcome.from_failure(
                    i, classify_exception(exc)
                )
            else:
                outcomes[i] = ExtractionOutcome(
                    index=i, features=features, failures=failures
                )

    def _run_pool(
        self,
        meshes: Sequence[TriangleMesh],
        pending: Sequence[int],
        outcomes: List[Optional[ExtractionOutcome]],
    ) -> None:
        cache = self.pipeline if hasattr(self.pipeline, "remember") else None
        if self._worker_pool is None:
            # Sized from ``workers``, not from this batch: the pool is
            # reused, and ``map`` only forks as many workers as it needs.
            self._worker_pool = WorkerPool(
                _ExtractionWorkerFactory(
                    PipelineSpec.of(self.pipeline), self.degraded
                ),
                workers=max(1, self.workers),
                task_timeout=self.task_timeout,
                retries=self.retries,
            )
        metrics = get_registry()
        results = self._worker_pool.map([meshes[i] for i in pending])
        for i, task in zip(pending, results):
            if task.failure is not None:
                if task.failure.code == "extract.timeout":
                    metrics.inc("robust.worker_timeouts")
                elif task.failure.code == "extract.worker_crash":
                    metrics.inc("robust.worker_crashes")
                outcomes[i] = ExtractionOutcome.from_failure(
                    i, task.failure, attempts=task.attempts
                )
                continue
            features, failures = task.value
            outcomes[i] = ExtractionOutcome(
                index=i,
                features=features,
                failures=failures,
                attempts=task.attempts,
            )
            # Fold the worker result into the parent-side cache (full
            # results only: a partial set must re-extract next time).
            if cache is not None:
                cache.misses += 1
                metrics.inc("cache.misses")
                if not failures:
                    cache.remember(meshes[i], features)
