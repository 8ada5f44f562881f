"""Shape database: records, search over the stored vectors, persistence."""

import numpy as np
import pytest

from repro.db import ShapeDatabase, ShapeRecord, StorageError, load_records, save_records
from repro.features import FeaturePipeline
from repro.geometry import box, cylinder, torus
from repro.search import SearchEngine


@pytest.fixture
def db():
    database = ShapeDatabase(FeaturePipeline(voxel_resolution=12))
    database.insert_mesh(box((2, 3, 4)), group="boxes")
    database.insert_mesh(box((2.1, 3.1, 3.8)), group="boxes")
    database.insert_mesh(cylinder(1, 4, 16), group="cyls")
    database.insert_mesh(torus(2, 0.5, 16, 8))
    return database


def knn(database, query, k):
    """(id, distance) pairs of an engine k-NN by vector over principal moments."""
    hits = SearchEngine(database).search_knn(query, "principal_moments", k=k)
    return [(hit.shape_id, hit.distance) for hit in hits]


def knn_ids(database, query, k):
    return [shape_id for shape_id, _ in knn(database, query, k)]


class TestRecords:
    def test_feature_lookup(self, db):
        rec = db.get(1)
        assert rec.feature("principal_moments").shape == (3,)

    def test_missing_feature_raises_with_names(self, db):
        with pytest.raises(KeyError, match="available"):
            db.get(1).feature("nope")

    def test_is_noise(self, db):
        assert db.get(4).is_noise()
        assert not db.get(1).is_noise()


class TestCrud:
    def test_ids_sequential(self, db):
        assert db.ids() == [1, 2, 3, 4]

    def test_contains_and_len(self, db):
        assert len(db) == 4
        assert 1 in db
        assert 99 not in db

    def test_get_missing(self, db):
        with pytest.raises(KeyError):
            db.get(99)

    def test_iteration_ordered(self, db):
        assert [r.shape_id for r in db] == [1, 2, 3, 4]

    def test_delete_removes_from_index(self, db):
        q = db.get(1).feature("principal_moments")
        assert 2 in knn_ids(db, q, k=4)
        db.delete(2)
        assert sorted(knn_ids(db, q, k=4)) == [1, 3, 4]
        within = SearchEngine(db).search_threshold(q, "principal_moments", threshold=0.0)
        assert sorted(h.shape_id for h in within) == [1, 3, 4]
        assert len(db) == 3

    def test_insert_without_pipeline_raises(self):
        empty = ShapeDatabase(pipeline=None)
        with pytest.raises(RuntimeError):
            empty.insert_mesh(box((1, 1, 1)))

    def test_insert_record_reassigns_taken_id(self, db):
        rec = ShapeRecord(shape_id=1, name="dup", features={"f": np.zeros(2)})
        new_id = db.insert_record(rec)
        assert new_id == 5

    def test_feature_names(self, db):
        assert "principal_moments" in db.feature_names()
        assert "eigenvalues" in db.feature_names()

    def test_dimension_mismatch_rejected(self, db):
        bad = ShapeRecord(
            shape_id=0, name="bad", features={"principal_moments": np.zeros(7)}
        )
        with pytest.raises(ValueError, match="dimension"):
            db.insert_record(bad)


class TestQueries:
    def test_nearest_self_first(self, db):
        q = db.get(1).feature("principal_moments")
        hits = knn(db, q, k=2)
        assert hits[0][0] == 1
        assert hits[0][1] == pytest.approx(0.0)

    def test_nearest_sees_new_insert(self, db):
        rec = ShapeRecord(
            shape_id=0,
            name="twin",
            features={"principal_moments": db.get(3).feature("principal_moments")},
        )
        new_id = db.insert_record(rec)
        q = db.get(3).feature("principal_moments")
        assert knn_ids(db, q, k=2) == [3, new_id]

    def test_within_radius(self, db):
        q = db.get(1).feature("principal_moments")
        hits = SearchEngine(db).search_threshold(q, "principal_moments", threshold=0.0)
        assert len(hits) == 4

    def test_unknown_feature_index(self, db):
        with pytest.raises(KeyError):
            SearchEngine(db).search_knn(db.get(1).shape_id, "nope", k=1)

    def test_feature_matrix_alignment(self, db):
        matrix, ids = db.feature_matrix("principal_moments")
        assert matrix.shape == (4, 3)
        assert ids == [1, 2, 3, 4]

    def test_feature_matrix_missing(self, db):
        with pytest.raises(KeyError):
            db.feature_matrix("nope")


class TestGroundTruth:
    def test_classification_map(self, db):
        cmap = db.classification_map()
        assert cmap == {"boxes": [1, 2], "cyls": [3]}

    def test_relevant_to_excludes_query(self, db):
        assert db.relevant_to(1) == [2]
        assert db.relevant_to(3) == []

    def test_noise_has_no_relevant(self, db):
        assert db.relevant_to(4) == []

    def test_group_of(self, db):
        assert db.group_of(1) == "boxes"
        assert db.group_of(4) is None


class TestPersistence:
    def test_roundtrip(self, db, tmp_path):
        db.save(tmp_path / "store")
        back = ShapeDatabase.load(tmp_path / "store")
        assert len(back) == len(db)
        assert back.get(1).group == "boxes"
        assert np.allclose(
            back.get(1).feature("principal_moments"),
            db.get(1).feature("principal_moments"),
        )
        assert back.get(1).mesh.n_faces == db.get(1).mesh.n_faces

    def test_load_without_meshes(self, db, tmp_path):
        db.save(tmp_path / "store")
        back = ShapeDatabase.load(tmp_path / "store", load_meshes=False)
        assert back.get(1).mesh is None
        q = back.get(1).feature("principal_moments")
        assert knn_ids(back, q, k=1) == [1]

    def test_queries_after_reload_match(self, db, tmp_path):
        q = db.get(1).feature("principal_moments")
        before = knn(db, q, k=4)
        db.save(tmp_path / "store")
        back = ShapeDatabase.load(tmp_path / "store")
        assert knn(back, q, k=4) == before

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(StorageError):
            load_records(tmp_path)

    def test_metadata_roundtrip(self, tmp_path):
        rec = ShapeRecord(
            shape_id=3,
            name="meta",
            features={"f": np.arange(4.0)},
            metadata={"source": "unit-test"},
        )
        save_records([rec], tmp_path / "s")
        back = load_records(tmp_path / "s")
        assert back[0].metadata == {"source": "unit-test"}
        assert np.array_equal(back[0].features["f"], np.arange(4.0))

    def test_queries_follow_update_features(self, db, tmp_path):
        features = dict(db.get(4).features)
        features["principal_moments"] = db.get(1).feature("principal_moments")
        db.update_features(4, features)
        q = db.get(1).feature("principal_moments")
        hits = knn(db, q, k=2)
        assert [i for i, _ in hits] == [1, 4]
        assert hits[1][1] == 0.0
        db.save(tmp_path / "store")
        assert knn(ShapeDatabase.load(tmp_path / "store"), q, k=4) == knn(db, q, k=4)
