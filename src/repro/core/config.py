"""System configuration for the 3DESS facade."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..features.base import DEFAULT_VOXEL_RESOLUTION
from ..features.registry import PAPER_FEATURES
from ..moments.normalization import DEFAULT_TARGET_VOLUME
from ..search.similarity import RANGE_WEIGHTS


@dataclass
class SystemConfig:
    """Tunable knobs of the search system.

    Attributes
    ----------
    feature_names:
        Feature vectors extracted for every inserted shape (the paper's
        four by default).
    voxel_resolution:
        Grid resolution N for voxelization/skeletonization.
    target_volume:
        Normalization constant C of Eq. 3.3.
    weighting:
        Similarity weighting scheme ("range" or "uniform").
    browse_branching / browse_leaf_size:
        Shape of the drill-down hierarchy for search-by-browsing.
    """

    feature_names: List[str] = field(default_factory=lambda: list(PAPER_FEATURES))
    voxel_resolution: int = DEFAULT_VOXEL_RESOLUTION
    target_volume: float = DEFAULT_TARGET_VOLUME
    weighting: str = RANGE_WEIGHTS
    browse_branching: int = 3
    browse_leaf_size: int = 6
    clustering_seed: Optional[int] = 0
    #: Content-addressed feature cache (skips re-extraction of identical
    #: geometry, e.g. re-imported CAD files).
    feature_cache: bool = False
    feature_cache_entries: int = 1024
    #: Directory of the persistent (on-disk) feature cache tier; setting
    #: it implies ``feature_cache`` and makes bulk ingestion incremental
    #: across runs.  None (default) keeps the cache memory-only.
    feature_cache_dir: Optional[str] = None
    #: Worker processes for bulk ingestion (``insert_batch`` /
    #: ``three-dess build-db --workers``); 0 or 1 extracts serially.
    extraction_workers: int = 0
    #: Per-shape wall-clock budget (seconds) for bulk extraction.  When
    #: set, every extraction runs in a killable worker process that is
    #: terminated at the deadline — a hung shape cannot stall ingestion.
    #: None (default) applies no timeout.
    extraction_timeout: Optional[float] = None
    #: Extra attempts after a worker timeout or crash (transient
    #: failures only; deterministic extraction errors never retry).
    extraction_retries: int = 1
    #: Pre-flight mesh validation during bulk ingestion (NaN vertices,
    #: degenerate faces, ...); invalid meshes are reported, not extracted.
    validate_meshes: bool = True
    #: Keep shapes whose extraction partially fails (e.g. the skeleton
    #: features time out) as *degraded* records carrying the feature
    #: vectors that did compute, instead of rejecting the shape.
    degraded_inserts: bool = True
    #: Metrics recording on the process-wide ``repro.obs`` registry:
    #: True/False enable/disable it when the system is constructed;
    #: None (default) leaves the registry's current state untouched.
    metrics_enabled: Optional[bool] = None
    #: Deterministic fault-injection plan (``repro.robust.chaos``):
    #: inline JSON or a plan-file path, armed process-wide when the
    #: system is constructed.  None (default) leaves the chaos
    #: controller untouched (the ``REPRO_CHAOS`` env var still works).
    #: Test/CI machinery — never set this in production.
    chaos_plan: Optional[str] = None

    def validate(self) -> None:
        """Raise ValueError on inconsistent settings."""
        if not self.feature_names:
            raise ValueError("at least one feature vector is required")
        if self.voxel_resolution < 2:
            raise ValueError("voxel resolution must be >= 2")
        if self.target_volume <= 0:
            raise ValueError("target volume must be positive")
        if self.browse_branching < 2:
            raise ValueError("browse branching must be >= 2")
        if self.browse_leaf_size < 1:
            raise ValueError("browse leaf size must be >= 1")
        if self.feature_cache_entries < 1:
            raise ValueError("feature cache size must be >= 1")
        if self.extraction_workers < 0:
            raise ValueError("extraction workers must be >= 0")
        if self.extraction_timeout is not None and self.extraction_timeout <= 0:
            raise ValueError("extraction timeout must be positive")
        if self.extraction_retries < 0:
            raise ValueError("extraction retries must be >= 0")
