"""The ThreeDESS facade and its configuration."""

import numpy as np
import pytest

from repro import SystemConfig, ThreeDESS
from repro.geometry import box, cylinder, torus
from repro.search.api import SearchRequest


@pytest.fixture
def system():
    cfg = SystemConfig(voxel_resolution=12)
    sys3d = ThreeDESS(cfg)
    sys3d.insert(box((2, 3, 4)), name="b1", group="boxes")
    sys3d.insert(box((2.1, 3.1, 3.9)), name="b2", group="boxes")
    sys3d.insert(box((1.9, 2.8, 4.2)), name="b3", group="boxes")
    sys3d.insert(cylinder(1, 4, 16), name="c1", group="cyls")
    sys3d.insert(cylinder(1.05, 4.2, 16), name="c2", group="cyls")
    sys3d.insert(torus(2, 0.5, 16, 8), name="noise")
    return sys3d


class TestConfig:
    def test_defaults_valid(self):
        SystemConfig().validate()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"feature_names": []},
            {"voxel_resolution": 1},
            {"target_volume": 0.0},
            {"extraction_workers": -1},
            {"browse_branching": 1},
            {"browse_leaf_size": 0},
        ],
    )
    def test_invalid_configs(self, kwargs):
        with pytest.raises(ValueError):
            SystemConfig(**kwargs).validate()


class TestFacade:
    def test_len(self, system):
        assert len(system) == 6

    def test_search_knn_by_id(self, system):
        hits = system.search(SearchRequest(query=1, mode="knn", k=2)).hits
        assert {h.shape_id for h in hits} == {2, 3}

    def test_search_knn_by_mesh(self, system):
        hits = system.search(
            SearchRequest(query=box((2, 3, 4)), mode="knn", k=2)
        ).hits
        assert all(h.group == "boxes" for h in hits)

    def test_search_threshold(self, system):
        hits = system.search(
            SearchRequest(query=1, mode="threshold", threshold=0.0)
        ).hits
        assert len(hits) == 5

    def test_search_multi_step_default_plan(self, system):
        hits = system.search(SearchRequest(query=1, mode="multi_step")).hits
        assert len(hits) <= 10

    def test_search_multi_step_custom_plan(self, system):
        hits = system.search(
            SearchRequest(
                query=1,
                mode="multi_step",
                steps=(("principal_moments", 4), ("geometric_params", 2)),
            )
        ).hits
        assert len(hits) == 2

    def test_legacy_facade_methods_removed(self, system):
        # Removed after the PR-5 deprecation cycle; docs/API.md records
        # the SearchRequest equivalents.
        for name in ("query_by_example", "query_by_threshold", "multi_step"):
            assert not hasattr(system, name)

    def test_insert_file(self, system, tmp_path):
        from repro.geometry import save_mesh

        path = tmp_path / "part.off"
        save_mesh(box((2, 3, 4.1)), path)
        new_id = system.insert_file(path, group="boxes")
        assert new_id == 7
        assert system.database.get(new_id).group == "boxes"

    def test_insert_invalidates_similarity_cache(self, system):
        m1 = system.engine.measure("principal_moments")
        system.insert(box((5, 5, 5)))
        assert system.engine.measure("principal_moments") is not m1


class TestBrowsing:
    def test_hierarchy_covers_database(self, system):
        root = system.browse_hierarchy()
        assert sorted(root.member_ids) == system.database.ids()

    def test_hierarchy_cached_per_feature(self, system):
        a = system.browse_hierarchy("principal_moments")
        assert system.browse_hierarchy("principal_moments") is a
        b = system.browse_hierarchy("geometric_params")
        assert b is not a

    def test_sample_shapes_are_representatives(self, system):
        samples = system.sample_shapes()
        assert samples
        assert set(samples) <= set(system.database.ids())

    def test_feedback_session(self, system):
        session = system.feedback_session(1, k=3)
        results = session.search()
        assert len(results) == 3


class TestPersistence:
    def test_save_load_roundtrip(self, system, tmp_path):
        system.save(tmp_path / "db")
        back = ThreeDESS.load(tmp_path / "db", config=SystemConfig(voxel_resolution=12))
        assert len(back) == len(system)
        request = SearchRequest(query=1, mode="knn", k=3)
        hits_a = [h.shape_id for h in system.search(request).hits]
        hits_b = [h.shape_id for h in back.search(request).hits]
        assert hits_a == hits_b

    def test_load_without_meshes_queries_by_id(self, system, tmp_path):
        system.save(tmp_path / "db")
        back = ThreeDESS.load(
            tmp_path / "db",
            config=SystemConfig(voxel_resolution=12),
            load_meshes=False,
        )
        response = back.search(SearchRequest(query=1, mode="knn", k=1))
        assert response.hits[0].shape_id in {2, 3}


class TestFeatureCache:
    def test_cache_enabled_dedupes_extraction(self):
        from repro import SystemConfig, ThreeDESS
        from repro.features import CachingPipeline

        sys3d = ThreeDESS(SystemConfig(voxel_resolution=10, feature_cache=True))
        assert isinstance(sys3d.database.pipeline, CachingPipeline)
        sys3d.insert(box((2, 3, 4)))
        sys3d.insert(box((2, 3, 4)))
        assert sys3d.database.pipeline.hits == 1

    def test_cache_size_validated(self):
        from repro import SystemConfig

        with pytest.raises(ValueError):
            SystemConfig(feature_cache_entries=0).validate()
