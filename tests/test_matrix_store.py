"""The packed columnar feature store: view semantics, packed-vs-legacy
scan equivalence (bitwise), persistence round-trips (mmap and not), and
salvage behavior when the packed tier is corrupted."""

from __future__ import annotations

import numpy as np
import pytest

from repro.db import (
    FeatureMatrixStore,
    ShapeDatabase,
    ShapeRecord,
    StorageError,
    load_packed_features,
)
from repro.search.engine import SearchEngine
from repro.search.similarity import weighted_distances

FEATURES = ("alpha", "beta")
DIMS = {"alpha": 4, "beta": 7}


def make_record(shape_id: int, rng, group=None) -> ShapeRecord:
    return ShapeRecord(
        shape_id=shape_id,
        name=f"s{shape_id}",
        group=group,
        features={f: rng.normal(size=DIMS[f]) for f in FEATURES},
    )


@pytest.fixture
def db():
    rng = np.random.default_rng(7)
    database = ShapeDatabase(pipeline=None)
    for i in range(40):
        database.insert_record(make_record(0, rng, group="g" if i % 3 else None))
    return database


def legacy_knn(db, feature_name, query, k):
    """The pre-packed-store scan: per-record vstack + the same sort."""
    ids = [rec.shape_id for rec in db if feature_name in rec.features]
    matrix = np.vstack([db.get(i).features[feature_name] for i in ids])
    engine = SearchEngine(db)
    weights = engine.measure(feature_name).weights
    dists = weighted_distances(np.asarray(query, dtype=np.float64), matrix, weights)
    order = np.lexsort((np.asarray(ids), dists))[:k]
    return [(ids[i], float(dists[i])) for i in order]


class TestStoreUnit:
    def test_append_and_view(self):
        store = FeatureMatrixStore()
        store.append("f", 1, [1.0, 2.0])
        store.append("f", 5, [3.0, 4.0])
        view = store.view("f")
        assert view.ids.tolist() == [1, 5]
        assert view.id_list == [1, 5]
        assert view.matrix.dtype == np.float32
        assert not view.matrix.flags.writeable
        assert len(view) == 2

    def test_view_cached_per_generation(self):
        store = FeatureMatrixStore()
        store.append("f", 1, [1.0])
        v1 = store.view("f")
        assert store.view("f") is v1
        store.append("f", 2, [2.0])
        v2 = store.view("f")
        assert v2 is not v1
        assert v2.generation > v1.generation

    def test_out_of_order_insert_keeps_sorted(self):
        store = FeatureMatrixStore()
        store.append("f", 10, [1.0])
        store.append("f", 3, [2.0])
        store.append("f", 7, [3.0])
        view = store.view("f")
        assert view.ids.tolist() == [3, 7, 10]
        assert view.matrix[:, 0].tolist() == [2.0, 3.0, 1.0]

    def test_duplicate_id_rejected(self):
        store = FeatureMatrixStore()
        store.append("f", 1, [1.0])
        with pytest.raises(ValueError, match="already has a row"):
            store.append("f", 1, [2.0])

    def test_dimension_mismatch_rejected(self):
        store = FeatureMatrixStore()
        store.append("f", 1, [1.0, 2.0])
        with pytest.raises(ValueError, match="dimension mismatch"):
            store.append("f", 2, [1.0])

    def test_extend_requires_ascending_new_ids(self):
        store = FeatureMatrixStore()
        store.extend("f", np.array([1, 2], dtype=np.int64), np.zeros((2, 3)))
        with pytest.raises(ValueError, match="exceed every stored id"):
            store.extend("f", np.array([2, 3], dtype=np.int64), np.zeros((2, 3)))
        with pytest.raises(ValueError, match="strictly ascending"):
            store.extend("f", np.array([9, 8], dtype=np.int64), np.zeros((2, 3)))

    def test_delete_drops_row_everywhere(self):
        store = FeatureMatrixStore()
        for sid in (1, 2, 3):
            store.append("f", sid, [float(sid)])
            store.append("g", sid, [float(sid), 0.0])
        store.delete(2)
        assert store.view("f").ids.tolist() == [1, 3]
        assert store.view("g").ids.tolist() == [1, 3]
        assert not store.has("f", 2)
        assert store.total_rows == 4

    def test_gather_partitions_missing(self):
        store = FeatureMatrixStore()
        for sid in (2, 4, 6):
            store.append("f", sid, [float(sid)])
        rows, carrying, missing = store.gather("f", [6, 3, 2, 7])
        assert carrying == [6, 2]
        assert missing == [3, 7]
        assert rows[:, 0].tolist() == [6.0, 2.0]

    def test_degraded_mask_tracked(self):
        store = FeatureMatrixStore()
        store.append("f", 1, [1.0], degraded=True)
        store.append("f", 2, [2.0], degraded=False)
        assert store.view("f").mask.tolist() == [True, False]

    def test_exported_views_survive_mutation(self):
        store = FeatureMatrixStore()
        store.append("f", 1, [1.0])
        store.append("f", 2, [2.0])
        view = store.view("f")
        frozen = view.matrix.copy()
        store.delete(1)
        store.append("f", 0, [9.0])  # out-of-order: rebuild
        assert np.array_equal(view.matrix, frozen)


class TestDatabaseIntegration:
    def test_feature_matrix_is_store_view(self, db):
        matrix, ids = db.feature_matrix("alpha")
        view = db.feature_view("alpha")
        assert matrix is view.matrix
        assert ids == view.id_list
        assert np.shares_memory(matrix, db.feature_view("alpha").matrix)

    def test_packed_knn_identical_to_legacy(self, db):
        engine = SearchEngine(db)
        rng = np.random.default_rng(11)
        for feature in FEATURES:
            for _ in range(5):
                q = rng.normal(size=DIMS[feature])
                got = [
                    (r.shape_id, r.distance)
                    for r in engine.search_knn(
                        q, feature, k=9, exclude_query=False
                    )
                ]
                assert got == legacy_knn(db, feature, q, 9)

    def test_tie_break_matches_legacy(self):
        # Identical vectors force distance ties; order must be by id.
        database = ShapeDatabase(pipeline=None)
        for _ in range(6):
            database.insert_record(
                ShapeRecord(0, "t", None, features={"f": np.array([1.0, 2.0])})
            )
        engine = SearchEngine(database)
        got = [
            (r.shape_id, r.distance)
            for r in engine.search_knn(
                np.array([1.0, 2.0]), "f", k=6, exclude_query=False
            )
        ]
        assert got == legacy_knn(database, "f", np.array([1.0, 2.0]), 6)
        assert [sid for sid, _ in got] == sorted(sid for sid, _ in got)

    def test_mutations_invalidate_without_explicit_call(self, db):
        engine = SearchEngine(db)
        victim = db.ids()[0]
        q = db.get(db.ids()[1]).features["alpha"]
        before = engine.search_knn(q, "alpha", k=5, exclude_query=False)
        assert before[0].distance == 0.0
        db.delete(victim)
        after = engine.search_knn(
            q, "alpha", k=5, exclude_query=False
        )
        assert victim not in [r.shape_id for r in after]
        assert [
            (r.shape_id, r.distance) for r in after
        ] == legacy_knn(db, "alpha", q, 5)

    def test_update_features_reflected_in_scans(self, db):
        engine = SearchEngine(db)
        target = db.ids()[3]
        new = {f: np.full(DIMS[f], 0.5) for f in FEATURES}
        db.update_features(target, new)
        got = engine.search_knn(
            np.full(DIMS["beta"], 0.5), "beta", k=1, exclude_query=False
        )
        assert got[0].shape_id == target
        assert got[0].distance == 0.0
        row = db.feature_view("beta").matrix[
            db.feature_view("beta").id_list.index(target)
        ]
        assert np.array_equal(row, np.full(DIMS["beta"], 0.5, dtype=np.float32))

    def test_rerank_uses_store_after_mutations(self, db):
        engine = SearchEngine(db)
        candidates = db.ids()[:10]
        q = np.zeros(DIMS["alpha"])
        first = engine.rerank(candidates, q, "alpha", exclude_query=False)
        db.update_features(
            candidates[0], {f: np.zeros(DIMS[f]) for f in FEATURES}
        )
        second = engine.rerank(candidates, q, "alpha", exclude_query=False)
        assert second[0].shape_id == candidates[0]
        assert second[0].distance == 0.0
        assert first[0].distance > 0.0

    def test_bulk_append_matches_incremental(self):
        rng = np.random.default_rng(3)
        mats = {f: rng.normal(size=(12, DIMS[f])).astype(np.float32) for f in FEATURES}
        bulk = ShapeDatabase(pipeline=None)
        ids = bulk.bulk_append_vectors(
            [f"n{i}" for i in range(12)], [None] * 12, mats
        )
        incremental = ShapeDatabase(pipeline=None)
        for i in range(12):
            incremental.insert_record(
                ShapeRecord(
                    0, f"n{i}", None,
                    features={f: mats[f][i] for f in FEATURES},
                )
            )
        assert ids == incremental.ids()
        for f in FEATURES:
            assert np.array_equal(
                bulk.feature_view(f).matrix, incremental.feature_view(f).matrix
            )
        # Bulk records hold views into the store, not copies.
        rec = bulk.get(ids[0])
        assert np.shares_memory(
            rec.features["alpha"], bulk.feature_view("alpha").matrix
        )


class TestPersistence:
    def test_mmap_roundtrip_bitwise(self, db, tmp_path):
        root = tmp_path / "db"
        db.save(root)
        mapped = ShapeDatabase.load(root, mmap_features=True)
        plain = ShapeDatabase.load(root, mmap_features=False)
        assert mapped.matrix_store.mmap_backed
        for f in FEATURES:
            original = db.feature_view(f)
            via_map = mapped.feature_view(f)
            via_obj = plain.feature_view(f)
            assert via_map.matrix.tobytes() == original.matrix.tobytes()
            assert via_obj.matrix.tobytes() == original.matrix.tobytes()
            assert via_map.ids.tolist() == original.ids.tolist()
            assert via_map.mask.tolist() == original.mask.tolist()
            # The mapped column serves straight from the .npy file.
            assert isinstance(
                via_map.matrix.base, np.memmap
            ) or isinstance(via_map.matrix, np.memmap)

    def test_loaded_knn_identical(self, db, tmp_path):
        root = tmp_path / "db"
        db.save(root)
        loaded = ShapeDatabase.load(root)
        q = np.linspace(-1.0, 1.0, DIMS["alpha"])
        engine = SearchEngine(loaded)
        got = [
            (r.shape_id, r.distance)
            for r in engine.search_knn(
                q, "alpha", k=7, exclude_query=False
            )
        ]
        assert got == legacy_knn(db, "alpha", q, 7)

    def test_record_rows_alias_store_after_load(self, db, tmp_path):
        root = tmp_path / "db"
        db.save(root)
        loaded = ShapeDatabase.load(root)
        sid = loaded.ids()[0]
        assert np.shares_memory(
            loaded.get(sid).features["alpha"], loaded.feature_view("alpha").matrix
        )

    def test_mutation_after_mmap_load_materializes(self, db, tmp_path):
        root = tmp_path / "db"
        db.save(root)
        loaded = ShapeDatabase.load(root, mmap_features=True)
        assert loaded.matrix_store.mmap_backed
        loaded.insert_record(
            ShapeRecord(
                0, "new", None,
                features={f: np.ones(DIMS[f]) for f in FEATURES},
            )
        )
        assert not loaded.matrix_store.mmap_backed
        assert loaded.feature_view("alpha").ids.tolist() == loaded.ids()

    def test_corrupt_packed_matrix_strict_raises(self, db, tmp_path):
        root = tmp_path / "db"
        db.save(root)
        target = root / "packed" / "alpha.matrix.npy"
        blob = bytearray(target.read_bytes())
        blob[-4] ^= 0xFF
        target.write_bytes(bytes(blob))
        with pytest.raises(StorageError, match="packed"):
            load_packed_features(root, strict=True)
        with pytest.raises(StorageError):
            ShapeDatabase.load(root, strict=True)

    def test_corrupt_packed_matrix_salvages_from_records(self, db, tmp_path):
        root = tmp_path / "db"
        db.save(root)
        target = root / "packed" / "alpha.matrix.npy"
        blob = bytearray(target.read_bytes())
        blob[-4] ^= 0xFF
        target.write_bytes(bytes(blob))
        assert load_packed_features(root, strict=False) is None
        salvaged = ShapeDatabase.load(root, strict=False)
        assert len(salvaged) == len(db)
        assert not salvaged.matrix_store.mmap_backed
        for f in FEATURES:
            assert (
                salvaged.feature_view(f).matrix.tobytes()
                == db.feature_view(f).matrix.tobytes()
            )

    def test_missing_packed_file_salvages(self, db, tmp_path):
        root = tmp_path / "db"
        db.save(root)
        (root / "packed" / "beta.ids.npy").unlink()
        salvaged = ShapeDatabase.load(root, strict=False)
        assert len(salvaged) == len(db)
        assert salvaged.feature_view("beta").ids.tolist() == db.ids()
