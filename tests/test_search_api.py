"""Tests for the unified query API (:mod:`repro.search.api`).

These tests exercise only the new ``SearchRequest``/``search()`` surface
directly (the deprecated shims are called solely under
``pytest.deprecated_call``), so the suite stays green under
``python -W error::DeprecationWarning`` — the CI leg that proves the
project itself is off the legacy API.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import SearchHit, SearchRequest, SearchResponse, SystemConfig, ThreeDESS
from repro.geometry.primitives import box, cylinder, tube
from repro.search.api import SEARCH_MODES, execute_search
from repro.search.engine import SearchResult

RES = 10


@pytest.fixture(scope="module")
def system():
    sys3d = ThreeDESS(SystemConfig(voxel_resolution=RES))
    sys3d.insert(box((2, 3, 4)), name="b1", group="boxes")
    sys3d.insert(box((2.1, 3.1, 3.9)), name="b2", group="boxes")
    sys3d.insert(box((5, 5, 1)), name="plate")
    sys3d.insert(cylinder(2, 6), name="rod", group="rods")
    sys3d.insert(tube(3, 2, 5), name="bushing")
    return sys3d


class TestSearchRequestValidation:
    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            SearchRequest(query=1, mode="psychic")

    def test_bad_k_rejected(self):
        with pytest.raises(ValueError, match="k must be"):
            SearchRequest(query=1, mode="knn", k=0)

    def test_bad_threshold_rejected(self):
        with pytest.raises(ValueError, match="threshold"):
            SearchRequest(query=1, mode="threshold", threshold=1.5)

    def test_threshold_bounds_inclusive(self):
        SearchRequest(query=1, mode="threshold", threshold=0.0)
        SearchRequest(query=1, mode="threshold", threshold=1.0)

    def test_steps_normalized_to_tuples(self):
        request = SearchRequest(
            query=1,
            mode="multi_step",
            steps=[("principal_moments", 3), ("geometric_params", 2)],
        )
        assert request.steps == (
            ("principal_moments", 3),
            ("geometric_params", 2),
        )

    def test_modes_catalog(self):
        assert SEARCH_MODES == ("knn", "threshold", "multi_step", "cascade")

    def test_strategy_requires_cascade_mode(self):
        from repro.search import CascadeStrategy

        with pytest.raises(ValueError, match="cascade"):
            SearchRequest(
                query=1,
                mode="knn",
                strategy=CascadeStrategy.default("principal_moments", 5),
            )

    def test_strategy_must_be_strategy_object(self):
        with pytest.raises(ValueError, match="CascadeStrategy"):
            SearchRequest(query=1, mode="cascade", strategy=[("scan", 5)])


class TestUnifiedSearch:
    def test_knn_response_shape(self, system):
        response = system.search(SearchRequest(query=1, mode="knn", k=3))
        assert isinstance(response, SearchResponse)
        assert len(response) == 3
        assert response.shape_ids[0] == 2  # the near-duplicate box
        hit = response.hits[0]
        assert isinstance(hit, SearchHit)
        assert hit.rank == 1
        assert hit.name == "b2" and hit.group == "boxes"
        assert 0.0 <= hit.similarity <= 1.0
        assert hit.distance >= 0.0
        assert [h.rank for h in response] == [1, 2, 3]

    def test_threshold_mode(self, system):
        response = system.search(
            SearchRequest(query=1, mode="threshold", threshold=0.0)
        )
        # threshold 0 admits every other shape.
        assert len(response) == len(system) - 1

    def test_multi_step_mode_is_deprecated_shim(self, system):
        # mode="multi_step" still answers — as the equivalent cascade —
        # but warns; new code uses mode="cascade" with a strategy.
        with pytest.deprecated_call():
            response = system.search(
                SearchRequest(
                    query=1,
                    mode="multi_step",
                    steps=(("principal_moments", 4), ("geometric_params", 2)),
                )
            )
        assert len(response) == 2
        assert response.path == "cascade"
        assert [s.kind for s in response.stages] == ["scan", "rerank"]

    def test_cascade_mode_default_strategy(self, system):
        response = system.search(SearchRequest(query=1, mode="cascade", k=3))
        assert len(response) == 3
        assert response.path == "cascade"
        assert all(h.path == "cascade" for h in response.hits)
        assert all(h.stage >= 1 for h in response.hits)
        assert [s.stage for s in response.stages] == [1, 2]
        # The default strategy's exact rerank agrees with one-shot knn.
        knn = system.search(SearchRequest(query=1, mode="knn", k=3))
        assert response.shape_ids == knn.shape_ids

    def test_mesh_query(self, system):
        response = system.search(
            SearchRequest(query=box((2, 3, 4)), mode="knn", k=1)
        )
        assert response.shape_ids == [1]

    def test_index_vs_linear_provenance(self, system):
        # knn and threshold have one retrieval path: the exact scan.
        knn = system.search(SearchRequest(query=1, mode="knn", k=2))
        within = system.search(
            SearchRequest(query=1, mode="threshold", threshold=0.0)
        )
        for response in (knn, within):
            assert response.path == "linear"
            assert all(h.path == "linear" for h in response.hits)
        engine_ids = [r.shape_id for r in system.engine.search_knn(1, "principal_moments", k=2)]
        assert knn.shape_ids == engine_ids

    def test_degraded_provenance(self):
        sys3d = ThreeDESS(SystemConfig(voxel_resolution=RES))
        sys3d.insert(box((2, 3, 4)), name="clean")
        sys3d.insert(box((2.1, 3.1, 3.9)), name="tainted")
        # Mark record 2 degraded the way faulted ingestion does.
        record = sys3d.database.get(2)
        record.metadata["degraded"] = "1"
        response = sys3d.search(SearchRequest(query=1, mode="knn", k=1))
        assert response.hits[0].shape_id == 2
        assert response.hits[0].degraded

    def test_to_results_downgrade(self, system):
        response = system.search(SearchRequest(query=1, mode="knn", k=2))
        results = response.to_results()
        assert all(isinstance(r, SearchResult) for r in results)
        assert [r.shape_id for r in results] == response.shape_ids
        assert [r.rank for r in results] == [1, 2]

    def test_execute_search_on_engine(self, system):
        response = execute_search(
            system.engine, SearchRequest(query=1, mode="knn", k=2)
        )
        assert response.shape_ids == system.search(
            SearchRequest(query=1, mode="knn", k=2)
        ).shape_ids


class TestLegacyFacadeRemoved:
    """The PR-5 deprecation cycle ended: the shim methods are gone.

    ``system.search(SearchRequest(...))`` is the only facade entry
    point; docs/API.md keeps the migration table.
    """

    @pytest.mark.parametrize(
        "name", ["query_by_example", "query_by_threshold", "multi_step"]
    )
    def test_method_gone(self, system, name):
        with pytest.raises(AttributeError):
            getattr(system, name)

    def test_deprecated_shim_helper_gone(self):
        import repro.search.api as api

        assert not hasattr(api, "deprecated_shim")
        assert "deprecated_shim" not in api.__all__

    def test_search_does_not_warn(self, system, recwarn):
        system.search(SearchRequest(query=1, mode="knn", k=3))
        assert not [
            w for w in recwarn.list if issubclass(w.category, DeprecationWarning)
        ]
