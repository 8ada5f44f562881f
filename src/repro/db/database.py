"""The shape database: records + the packed per-feature matrix store.

Mirrors the paper's DATABASE tier (Section 2.3): whenever a shape is
inserted, a database ID is generated, all feature vectors are extracted
and stored, and the (vector, ID) pair is appended to the packed column
of every feature space.  The paper puts an R-tree over each feature
space; here the exact vectorized scan over the packed columns answers
every query (it needs no build and beat the R-tree on the measured
serving paths, see ``docs/PERFORMANCE.md``), and
:class:`~repro.index.RTree` remains a standalone artifact for the
paper's index experiments.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..features.parallel import ParallelPipeline
from ..features.pipeline import FeaturePipeline
from ..geometry.mesh import TriangleMesh
from ..obs import get_registry
from .matrix_store import ColumnView, FeatureMatrixStore
from .quantized import QuantizedColumn
from .records import ShapeRecord
from .storage import (
    DroppedRecord,
    load_packed_features,
    load_quantized_features,
    load_records,
    salvage_records,
    save_records,
)

@dataclass
class BulkInsertError:
    """One failed mesh of a bulk insertion.

    ``stage``/``code``/``digest`` carry the machine-readable cause from
    the :mod:`repro.robust` taxonomy (e.g. ``validate``/``mesh.empty``,
    ``extract``/``extract.timeout``); ``message`` stays human-readable.
    """

    index: int
    name: str
    message: str
    stage: str = "unknown"
    code: str = "unknown"
    digest: str = ""


@dataclass
class BulkInsertResult:
    """Outcome of :meth:`ShapeDatabase.insert_meshes`.

    ``shape_ids`` holds one entry per input mesh, in input order: the
    assigned database ID for successes, ``None`` for failures (which are
    detailed in ``errors``).  ``degraded_ids`` lists the inserted shapes
    that carry only a partial feature set (see degraded-mode extraction).
    """

    shape_ids: List[Optional[int]] = field(default_factory=list)
    errors: List[BulkInsertError] = field(default_factory=list)
    degraded_ids: List[int] = field(default_factory=list)

    @property
    def inserted_ids(self) -> List[int]:
        return [sid for sid in self.shape_ids if sid is not None]

    def summary(self) -> str:
        """One-line ingestion summary for logs and the CLI."""
        full = len(self.inserted_ids) - len(self.degraded_ids)
        return (
            f"{len(self.shape_ids)} meshes: {full} full, "
            f"{len(self.degraded_ids)} degraded, {len(self.errors)} failed"
        )


class ShapeDatabase:
    """In-memory shape store over a packed columnar feature store.

    Parameters
    ----------
    pipeline:
        Feature-extraction pipeline run on every inserted mesh.  Databases
        restored from disk may pass ``pipeline=None`` and work purely from
        stored vectors (no new mesh inserts until a pipeline is attached).

    Feature vectors live twice: per record (the object path) and packed
    into the columnar :class:`FeatureMatrixStore` (one contiguous
    float32 matrix per feature family, rows sorted by shape id).  Both
    copies are float32-canonical — vectors are cast once at insertion —
    so the packed scan and the legacy object path are bitwise
    interchangeable.  ``feature_matrix``/``feature_view`` are O(1) reads
    of the store; the store's ``generation`` counter lets consumers
    (similarity measures, batch scorers) cache derived state and refresh
    lazily after ``update_features``/``delete``.
    """

    def __init__(self, pipeline: Optional[FeaturePipeline] = None) -> None:
        self.pipeline = pipeline
        self._records: Dict[int, ShapeRecord] = {}
        self._matrix_store = FeatureMatrixStore()
        self._next_id = 1
        #: Records dropped by the last ``load(..., strict=False)`` salvage.
        self.dropped_records: List[DroppedRecord] = []

    @staticmethod
    def _canon(vector: np.ndarray) -> np.ndarray:
        """Canonical float32 form every stored vector is cast to once."""
        return np.ascontiguousarray(vector, dtype=np.float32)

    # ------------------------------------------------------------------
    # Record access
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[ShapeRecord]:
        return iter(sorted(self._records.values(), key=lambda r: r.shape_id))

    def __contains__(self, shape_id: int) -> bool:
        return shape_id in self._records

    def get(self, shape_id: int) -> ShapeRecord:
        """Record for ``shape_id`` (KeyError when absent)."""
        try:
            return self._records[shape_id]
        except KeyError as exc:
            raise KeyError(f"no shape with id {shape_id}") from exc

    def ids(self) -> List[int]:
        """All shape ids, ascending."""
        return sorted(self._records)

    def feature_names(self) -> List[str]:
        """Feature vectors present in the database."""
        names = set()
        for rec in self._records.values():
            names.update(rec.features)
        return sorted(names)

    # ------------------------------------------------------------------
    # Insertion / deletion
    # ------------------------------------------------------------------
    def insert_mesh(
        self,
        mesh: TriangleMesh,
        name: Optional[str] = None,
        group: Optional[str] = None,
        metadata: Optional[Dict[str, str]] = None,
    ) -> int:
        """Insert a mesh: extract all pipeline features, store, return ID."""
        if self.pipeline is None:
            raise RuntimeError(
                "database has no feature pipeline; use insert_record or "
                "attach a FeaturePipeline"
            )
        features = self.pipeline.extract(mesh)
        record = ShapeRecord(
            shape_id=self._allocate_id(),
            name=name if name is not None else (mesh.name or "shape"),
            mesh=mesh,
            group=group,
            features=features,
            metadata=dict(metadata or {}),
        )
        self._store(record)
        return record.shape_id

    def insert_meshes(
        self,
        meshes: Sequence[TriangleMesh],
        names: Optional[Sequence[Optional[str]]] = None,
        groups: Optional[Sequence[Optional[str]]] = None,
        workers: int = 0,
        validate: bool = True,
        degraded: bool = True,
        timeout: Optional[float] = None,
        retries: int = 1,
    ) -> BulkInsertResult:
        """Bulk insertion with optional parallel feature extraction.

        Extraction fans out over ``workers`` processes (``0``/``1`` =
        serial, same results); IDs are assigned in input order regardless
        of completion order, so serial and parallel ingestion produce
        identical database state.  A mesh whose extraction fails is
        recorded in the result's ``errors`` and skipped — it never aborts
        the batch and consumes no ID.

        The robustness knobs mirror :class:`ParallelPipeline`:
        ``validate`` runs the pre-flight mesh validator, ``degraded``
        keeps partial feature sets (the record is inserted with
        ``metadata["degraded"] = "1"`` plus per-feature failure codes),
        and ``timeout``/``retries`` bound each extraction's wall clock
        using killable worker processes.
        """
        if self.pipeline is None:
            raise RuntimeError(
                "database has no feature pipeline; use insert_record or "
                "attach a FeaturePipeline"
            )
        meshes = list(meshes)
        if names is not None and len(names) != len(meshes):
            raise ValueError(f"{len(names)} names for {len(meshes)} meshes")
        if groups is not None and len(groups) != len(meshes):
            raise ValueError(f"{len(groups)} groups for {len(meshes)} meshes")
        parallel = ParallelPipeline(
            self.pipeline,
            workers=workers,
            task_timeout=timeout,
            retries=retries,
            validate=validate,
            degraded=degraded,
        )
        metrics = get_registry()
        result = BulkInsertResult()
        try:
            outcomes = parallel.extract_batch(meshes)
        finally:
            parallel.close()
        for outcome in outcomes:
            i = outcome.index
            mesh = meshes[i]
            name = names[i] if names is not None else None
            if name is None:
                name = mesh.name or "shape"
            if not outcome.ok:
                failure = outcome.failure
                result.shape_ids.append(None)
                result.errors.append(
                    BulkInsertError(
                        index=i,
                        name=name,
                        message=outcome.error,
                        stage=failure.stage if failure else "unknown",
                        code=failure.code if failure else "unknown",
                        digest=failure.digest if failure else "",
                    )
                )
                metrics.inc("robust.quarantined")
                continue
            metadata: Dict[str, str] = {}
            if outcome.failures:
                metadata["degraded"] = "1"
                for fname, failure in sorted(outcome.failures.items()):
                    metadata[f"missing.{fname}"] = failure.code
            record = ShapeRecord(
                shape_id=self._allocate_id(),
                name=name,
                mesh=mesh,
                group=groups[i] if groups is not None else None,
                features=outcome.features,
                metadata=metadata,
            )
            self._store(record)
            result.shape_ids.append(record.shape_id)
            if outcome.failures:
                result.degraded_ids.append(record.shape_id)
                metrics.inc("robust.degraded_records")
        return result

    # ------------------------------------------------------------------
    # Degraded records and background healing
    # ------------------------------------------------------------------
    def degraded_records(self) -> List[ShapeRecord]:
        """Records carrying only a partial feature set, ascending by id.

        These are the shapes degraded-mode ingestion kept alive after a
        partial extraction failure — the work list of the ``re-extract``
        background job (:mod:`repro.jobs`)."""
        return [rec for rec in self if rec.is_degraded()]

    def degraded_ids(self) -> List[int]:
        """Shape ids of all degraded records, ascending."""
        return [rec.shape_id for rec in self.degraded_records()]

    def update_features(
        self,
        shape_id: int,
        features: Dict[str, np.ndarray],
        failures: Optional[Dict[str, "object"]] = None,
    ) -> None:
        """Swap a record's feature vectors in place.

        The packed store's rows are replaced with the new set; the degraded
        markers (``metadata["degraded"]`` / ``missing.*``) are rewritten
        from ``failures`` (cleared when the new set is complete).  The
        record keeps its id, name, group, and geometry — search results
        change only through the healed vectors.
        """
        record = self.get(shape_id)
        record.features = {
            fname: self._canon(vec) for fname, vec in features.items()
        }
        record.metadata = {
            key: value
            for key, value in record.metadata.items()
            if key != "degraded" and not key.startswith("missing.")
        }
        if failures:
            record.metadata["degraded"] = "1"
            for fname, failure in sorted(failures.items()):
                code = getattr(failure, "code", None) or str(failure)
                record.metadata[f"missing.{fname}"] = code
        self._matrix_store.replace(
            shape_id, record.features, degraded=record.is_degraded()
        )

    def reextract_record(self, shape_id: int) -> Dict[str, np.ndarray]:
        """Re-run *full* extraction for one record and heal it in place.

        Used by the ``re-extract`` background job to upgrade degraded
        records to the complete feature set.  Raises when the database
        has no pipeline, the record carries no geometry, or extraction
        still fails — the job layer turns that into a failed/dead job.
        Returns the healed feature dict.
        """
        from ..robust.errors import FeatureExtractionError

        record = self.get(shape_id)
        if self.pipeline is None:
            raise RuntimeError(
                "database has no feature pipeline; cannot re-extract"
            )
        if record.mesh is None:
            raise FeatureExtractionError(
                f"record {shape_id} has no stored geometry to re-extract",
                code="extract.no_geometry",
            )
        with get_registry().timed("db.reextract"):
            features = self.pipeline.extract(record.mesh)
        was_degraded = record.is_degraded()
        self.update_features(shape_id, features)
        if was_degraded:
            get_registry().inc("robust.healed_records")
        return features

    def insert_record(self, record: ShapeRecord, register_rows: bool = True) -> int:
        """Insert a pre-built record (id of 0 or taken ids are reassigned).

        ``register_rows=False`` skips the packed-store append — only for
        load paths that attach pre-built packed columns afterwards.
        """
        if record.shape_id in self._records or record.shape_id <= 0:
            record.shape_id = self._allocate_id()
        else:
            self._next_id = max(self._next_id, record.shape_id + 1)
        self._store(record, register_rows=register_rows)
        return record.shape_id

    def delete(self, shape_id: int) -> None:
        """Remove a record and its packed feature rows."""
        self.get(shape_id)  # KeyError when absent
        self._matrix_store.delete(shape_id)
        del self._records[shape_id]

    def _allocate_id(self) -> int:
        shape_id = self._next_id
        self._next_id += 1
        return shape_id

    def _store(self, record: ShapeRecord, register_rows: bool = True) -> None:
        record.features = {
            fname: self._canon(vec) for fname, vec in record.features.items()
        }
        self._records[record.shape_id] = record
        if register_rows:
            degraded = record.is_degraded()
            for fname, vec in record.features.items():
                self._matrix_store.append(
                    fname, record.shape_id, vec, degraded=degraded
                )

    # ------------------------------------------------------------------
    # Feature-space access (used by the search engine)
    # ------------------------------------------------------------------
    @property
    def matrix_store(self) -> FeatureMatrixStore:
        """The packed columnar store behind ``feature_matrix``."""
        return self._matrix_store

    @property
    def store_generation(self) -> int:
        """Monotonic counter bumped by every feature mutation.

        Consumers key caches (similarity measures, batch matrices) on it
        instead of needing explicit invalidation calls."""
        return self._matrix_store.generation

    def feature_view(self, feature_name: str) -> ColumnView:
        """O(1) read-only columnar view of one feature space.

        ``view.matrix`` is the contiguous float32 scan matrix (never a
        per-query vstack), ``view.ids`` the aligned ascending shape ids,
        ``view.mask`` the degraded flags.  Raises ``KeyError`` when no
        shape carries the feature.
        """
        try:
            return self._matrix_store.view(feature_name)
        except KeyError:
            raise KeyError(f"no shapes carry feature {feature_name!r}") from None

    def quantized_view(self, feature_name: str) -> QuantizedColumn:
        """int8-quantized sidecar view of one feature space.

        The cascade's stage-1 scan matrix (see :mod:`repro.db.quantized`).
        Served from the persisted ``quantized/`` tier when one was
        attached at load time, rebuilt lazily from the packed column
        otherwise; either way coherent with ``store_generation``.
        Raises ``KeyError`` when no shape carries the feature.
        """
        try:
            return self._matrix_store.quantized_view(feature_name)
        except KeyError:
            raise KeyError(f"no shapes carry feature {feature_name!r}") from None

    def feature_matrix(self, feature_name: str) -> Tuple[np.ndarray, List[int]]:
        """(matrix, ids) of all stored vectors for one feature.

        Backed by the packed store: the matrix is a read-only float32
        view, rows aligned with ``ids`` (ascending).  O(1) after the
        first call per mutation generation.
        """
        view = self.feature_view(feature_name)
        return view.matrix, view.id_list

    def gather_features(
        self, feature_name: str, shape_ids: Sequence[int]
    ) -> Tuple[np.ndarray, List[int], List[int]]:
        """Candidate rows for a rerank: ``(rows, carrying, missing)``.

        ``rows`` stacks the stored vectors of the candidates that carry
        the feature (in input order); ``missing`` lists the candidates
        that do not (degraded records) — one vectorized lookup against
        the packed store instead of a per-record vstack.
        """
        return self._matrix_store.gather(feature_name, shape_ids)

    def bulk_append_vectors(
        self,
        names: Sequence[str],
        groups: Sequence[Optional[str]],
        features: Dict[str, np.ndarray],
        degraded: Optional[np.ndarray] = None,
        metadata: Optional[Sequence[Dict[str, str]]] = None,
    ) -> List[int]:
        """Append a batch of pre-extracted feature rows (the scale path).

        ``features`` maps each feature name to an ``(n, dim)`` matrix;
        row ``i`` across all matrices belongs to one new shape with
        ``names[i]``/``groups[i]``.  Ids are allocated ascending so every
        batch is a vectorized tail-append into the packed store, and the
        created records' vectors are *views into the store* — the corpus
        is held once, not once per record.
        """
        n = len(names)
        if len(groups) != n:
            raise ValueError(f"{len(groups)} groups for {n} names")
        if metadata is not None and len(metadata) != n:
            raise ValueError(f"{len(metadata)} metadata dicts for {n} names")
        for fname, matrix in features.items():
            if len(matrix) != n:
                raise ValueError(
                    f"feature {fname!r} has {len(matrix)} rows for {n} names"
                )
        if degraded is not None and len(degraded) != n:
            raise ValueError(f"{len(degraded)} degraded flags for {n} names")
        if n == 0:
            return []
        ids = np.arange(self._next_id, self._next_id + n, dtype=np.int64)
        self._next_id += n
        row_views: Dict[str, Tuple[np.ndarray, int]] = {}
        for fname in sorted(features):
            self._matrix_store.extend(fname, ids, features[fname], degraded)
            view = self._matrix_store.view(fname)
            row_views[fname] = (view.matrix, len(view) - n)
        flags = (
            np.zeros(n, dtype=bool)
            if degraded is None
            else np.asarray(degraded, dtype=bool)
        )
        out: List[int] = []
        for i in range(n):
            sid = int(ids[i])
            meta = dict(metadata[i]) if metadata is not None else {}
            if flags[i]:
                meta.setdefault("degraded", "1")
            self._records[sid] = ShapeRecord(
                shape_id=sid,
                name=names[i],
                mesh=None,
                group=groups[i],
                features={
                    fname: mat[start + i] for fname, (mat, start) in row_views.items()
                },
                metadata=meta,
            )
            out.append(sid)
        return out

    # ------------------------------------------------------------------
    # Ground truth helpers (Section 4 evaluation)
    # ------------------------------------------------------------------
    def classification_map(self) -> Dict[str, List[int]]:
        """Group label -> shape ids (noise shapes excluded)."""
        out: Dict[str, List[int]] = {}
        for rec in self:
            if rec.group is not None:
                out.setdefault(rec.group, []).append(rec.shape_id)
        return out

    def group_of(self, shape_id: int) -> Optional[str]:
        """Group label of a shape (None for noise shapes)."""
        return self.get(shape_id).group

    def relevant_to(self, shape_id: int) -> List[int]:
        """Ground-truth similar set A for a query shape (excluding it)."""
        group = self.group_of(shape_id)
        if group is None:
            return []
        return [
            rec.shape_id
            for rec in self
            if rec.group == group and rec.shape_id != shape_id
        ]

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, directory: Union[str, os.PathLike]) -> None:
        """Persist all records (see :mod:`repro.db.storage`)."""
        save_records(list(self), directory)

    @classmethod
    def load(
        cls,
        directory: Union[str, os.PathLike],
        pipeline: Optional[FeaturePipeline] = None,
        load_meshes: bool = True,
        strict: bool = True,
        mmap_features: bool = True,
    ) -> "ShapeDatabase":
        """Restore a database directory.

        ``strict=True`` (default) raises :class:`~repro.db.storage.StorageError`
        on any integrity violation.  ``strict=False`` salvages every intact
        record, dropping the ones touched by corruption; the drop report is
        available as ``db.dropped_records`` (empty on a clean load).

        When the directory carries the packed columnar tier, the feature
        store is attached from the ``.npy`` files (memory-mapped with
        ``mmap_features=True``) and record vectors become views into it
        — zero-copy scans, the corpus held once.  Directories without
        the tier (or with a corrupt one, under salvage) rebuild the
        store from the records.
        """
        db = cls(pipeline=pipeline)
        dropped: List[DroppedRecord] = []
        if strict:
            records = load_records(directory, load_meshes=load_meshes)
        else:
            records, dropped = salvage_records(
                directory, load_meshes=load_meshes
            )
        packed = load_packed_features(directory, strict=strict, mmap=mmap_features)
        attach = packed is not None and cls._packed_consistent(packed, records)
        for record in records:
            db.insert_record(record, register_rows=not attach)
        if attach:
            assert packed is not None
            for fname, col in packed.items():
                db._matrix_store.attach(
                    fname, col.ids, col.matrix, col.mask, mmap=mmap_features
                )
                view = db._matrix_store.view(fname)
                for pos, sid in enumerate(view.id_list):
                    db._records[sid].features[fname] = view.matrix[pos]
            # The int8 sidecar tier rides on top of the packed columns.
            # It is doubly derived, so failures never fail the load: a
            # missing/corrupt/stale sidecar just rebuilds lazily from
            # the attached column on first cascade query.
            quantized = load_quantized_features(
                directory, strict=False, mmap=mmap_features
            )
            for fname, side in (quantized or {}).items():
                if fname not in packed:
                    continue
                try:
                    db._matrix_store.attach_quantized(
                        fname, side.codes, side.scale, side.offset,
                        mmap=mmap_features,
                    )
                except (KeyError, ValueError):
                    get_registry().inc("store.quantized_fallbacks")
        else:
            get_registry().inc("store.fallback_rebuilds")
        db.dropped_records = dropped
        return db

    @staticmethod
    def _packed_consistent(
        packed: Dict[str, "object"], records: List[ShapeRecord]
    ) -> bool:
        """Whether packed columns cover exactly the loaded records.

        A salvage load may have dropped records the packed tier still
        carries (or vice versa); attaching would desynchronize ids and
        rows, so such loads rebuild the store from the records instead.
        """
        by_feature: Dict[str, List[ShapeRecord]] = {}
        for rec in sorted(records, key=lambda r: r.shape_id):
            for fname in rec.features:
                by_feature.setdefault(fname, []).append(rec)
        if set(by_feature) != set(packed):
            return False
        for fname, carrying in by_feature.items():
            col = packed[fname]
            ids = getattr(col, "ids")
            matrix = getattr(col, "matrix")
            if len(ids) != len(carrying):
                return False
            if any(
                int(ids[pos]) != rec.shape_id for pos, rec in enumerate(carrying)
            ):
                return False
            if any(
                np.asarray(rec.features[fname]).shape != (matrix.shape[1],)
                for rec in carrying
            ):
                return False
        return True
