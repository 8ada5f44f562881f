"""Streaming and synthetic corpus generation (the scale tier)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import (
    SYNTHETIC_FEATURE_DIMS,
    build_streaming_database,
    build_synthetic_database,
    stream_corpus,
    synthetic_vector_batches,
)
from repro.index import RTree
from repro.search.engine import SearchEngine

RES = 10


def flatten(batches):
    return [shape for batch in batches for shape in batch]


class TestStreamCorpus:
    def test_batch_size_never_changes_the_corpus(self):
        small = flatten(stream_corpus(30, seed=9, batch_size=4))
        large = flatten(stream_corpus(30, seed=9, batch_size=30))
        assert [s.name for s in small] == [s.name for s in large]
        assert [s.group for s in small] == [s.group for s in large]
        for a, b in zip(small, large):
            assert np.array_equal(a.mesh.vertices, b.mesh.vertices)
            assert np.array_equal(a.mesh.faces, b.mesh.faces)

    def test_batches_are_bounded(self):
        sizes = [len(b) for b in stream_corpus(23, seed=1, batch_size=5)]
        assert sizes == [5, 5, 5, 5, 3]

    def test_families_cycle(self):
        shapes = flatten(stream_corpus(27, seed=1, batch_size=27))
        assert shapes[0].group == shapes[26].group
        assert len({s.group for s in shapes}) == 26

    def test_seed_changes_geometry(self):
        a = flatten(stream_corpus(3, seed=1, batch_size=3))
        b = flatten(stream_corpus(3, seed=2, batch_size=3))
        assert not np.array_equal(a[0].mesh.vertices, b[0].mesh.vertices)

    def test_invalid_args_rejected(self):
        with pytest.raises(ValueError):
            list(stream_corpus(-1))
        with pytest.raises(ValueError):
            list(stream_corpus(5, batch_size=0))


class TestStreamingBuild:
    def test_meshes_dropped_and_db_complete(self):
        db = build_streaming_database(
            4, seed=5, batch_size=2, voxel_resolution=RES
        )
        assert len(db) == 4
        for rec in db:
            assert rec.mesh is None
            assert rec.features
        assert db.matrix_store.total_rows > 0

    def test_keep_meshes(self):
        db = build_streaming_database(
            2, seed=5, batch_size=2, voxel_resolution=RES, keep_meshes=True
        )
        assert all(rec.mesh is not None for rec in db)

    def test_batch_size_independent_features(self):
        one = build_streaming_database(4, seed=5, batch_size=1, voxel_resolution=RES)
        four = build_streaming_database(4, seed=5, batch_size=4, voxel_resolution=RES)
        for fname in one.matrix_store.columns():
            assert (
                one.feature_view(fname).matrix.tobytes()
                == four.feature_view(fname).matrix.tobytes()
            )


class TestSynthetic:
    def test_batches_cover_and_shape(self):
        batches = list(synthetic_vector_batches(250, seed=2, batch_size=100))
        assert [len(n) for n, _, _ in batches] == [100, 100, 50]
        names, groups, features = batches[0]
        assert names[0] == "synthetic_0000000"
        assert groups[0] == "g0000" and groups[64] == "g0000"
        for fname, dim in SYNTHETIC_FEATURE_DIMS.items():
            assert features[fname].shape == (100, dim)
            assert features[fname].dtype == np.float32

    def test_deterministic(self):
        a = list(synthetic_vector_batches(150, seed=2, batch_size=64))
        b = list(synthetic_vector_batches(150, seed=2, batch_size=64))
        for (_, _, fa), (_, _, fb) in zip(a, b):
            for fname in fa:
                assert np.array_equal(fa[fname], fb[fname])

    def test_members_cluster_around_their_center(self):
        db = build_synthetic_database(640, seed=4, batch_size=256, n_groups=8)
        engine = SearchEngine(db)
        sid = db.ids()[0]
        hits = engine.search_knn(sid, "principal_moments", k=8)
        same_group = sum(
            1 for h in hits if db.get(h.shape_id).group == db.get(sid).group
        )
        assert same_group >= 6  # 0.15 sigma noise keeps clusters tight

    def test_bulk_build_then_index_rebuild(self):
        db = build_synthetic_database(300, seed=4, batch_size=128)
        assert len(db) == 300
        assert db.matrix_store.total_rows == 300 * len(SYNTHETIC_FEATURE_DIMS)
        engine = SearchEngine(db)
        q = db.get(db.ids()[7]).features["eigenvalues"]
        linear = engine.search_knn(q, "eigenvalues", k=6, exclude_query=False)
        # The paper's R-tree, bulk-loaded from the packed view, agrees
        # with the engine's exact scan.
        view = db.feature_view("eigenvalues")
        tree = RTree.bulk_load(view.matrix, view.id_list)
        indexed = tree.nearest(
            q, k=6, weights=engine.measure("eigenvalues").weights
        )
        assert [r.shape_id for r in linear] == [sid for sid, _ in indexed]
        for a, (_, dist) in zip(linear, indexed):
            assert a.distance == pytest.approx(dist, abs=0.0)

    def test_custom_dims(self):
        db = build_synthetic_database(
            50, seed=1, batch_size=25, feature_dims={"only": 2}
        )
        assert db.matrix_store.columns() == ["only"]
        assert db.feature_view("only").matrix.shape == (50, 2)

    def test_invalid_args_rejected(self):
        with pytest.raises(ValueError):
            list(synthetic_vector_batches(-1))
        with pytest.raises(ValueError):
            list(synthetic_vector_batches(5, batch_size=0))
        with pytest.raises(ValueError):
            list(synthetic_vector_batches(5, n_groups=0))
