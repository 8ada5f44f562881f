"""Similarity measure, search engine, multi-step, relevance feedback."""

import numpy as np
import pytest

from repro import SearchRequest, ThreeDESS
from repro.datasets import build_synthetic_database
from repro.db import ShapeDatabase, ShapeRecord
from repro.features import FeaturePipeline
from repro.geometry import box, cylinder, torus, tube
from repro.search import (
    MultiStepPlan,
    RelevanceFeedbackSession,
    SearchEngine,
    SimilarityMeasure,
    multi_step_search,
    one_shot_search,
    range_weights,
    reconfigure_weights,
    reconstruct_query,
    weighted_distance,
    weighted_distances,
)


@pytest.fixture
def db():
    database = ShapeDatabase(FeaturePipeline(voxel_resolution=12))
    database.insert_mesh(box((2, 3, 4)), group="boxes")
    database.insert_mesh(box((2.1, 3.1, 3.9)), group="boxes")
    database.insert_mesh(box((1.9, 2.9, 4.1)), group="boxes")
    database.insert_mesh(cylinder(1, 4, 16), group="cyls")
    database.insert_mesh(cylinder(1.1, 3.8, 16), group="cyls")
    database.insert_mesh(torus(2, 0.5, 16, 8))
    database.insert_mesh(tube(2, 1, 1, 16))
    return database


@pytest.fixture
def engine(db):
    return SearchEngine(db)


class TestWeightedDistance:
    def test_unweighted_is_euclidean(self):
        assert weighted_distance([0, 0], [3, 4]) == pytest.approx(5.0)

    def test_weights_scale_dimensions(self):
        d = weighted_distance([0, 0], [1, 1], weights=np.array([4.0, 0.0]))
        assert d == pytest.approx(2.0)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            weighted_distance([0, 0], [1, 1, 1])
        with pytest.raises(ValueError):
            weighted_distance([0, 0], [1, 1], weights=np.ones(3))

    def test_range_weights(self):
        mat = np.array([[0.0, 0.0], [2.0, 10.0]])
        w = range_weights(mat)
        assert w == pytest.approx([0.25, 0.01])

    def test_range_weights_constant_dim_zero(self):
        mat = np.array([[1.0, 5.0], [1.0, 6.0]])
        assert range_weights(mat)[0] == 0.0


class TestSimilarityMeasure:
    def test_dmax_is_max_pairwise(self):
        mat = np.array([[0.0, 0.0], [3.0, 4.0], [1.0, 1.0]])
        m = SimilarityMeasure(mat, weighting="uniform")
        assert m.d_max == pytest.approx(5.0)

    def test_similarity_range(self):
        mat = np.array([[0.0], [10.0]])
        m = SimilarityMeasure(mat, weighting="uniform")
        assert m.similarity(np.array([0.0]), np.array([0.0])) == 1.0
        assert m.similarity(np.array([0.0]), np.array([10.0])) == 0.0

    def test_similarity_clamped_beyond_dmax(self):
        mat = np.array([[0.0], [1.0]])
        m = SimilarityMeasure(mat, weighting="uniform")
        assert m.similarity(np.array([0.0]), np.array([5.0])) == 0.0

    def test_identical_points_dmax_guard(self):
        mat = np.array([[1.0, 1.0], [1.0, 1.0]])
        m = SimilarityMeasure(mat)
        assert m.d_max == 1.0

    def test_radius_for_threshold(self):
        mat = np.array([[0.0], [2.0]])
        m = SimilarityMeasure(mat, weighting="uniform")
        assert m.radius_for_threshold(0.75) == pytest.approx(0.5)
        with pytest.raises(ValueError):
            m.radius_for_threshold(1.5)

    def test_explicit_weights(self):
        mat = np.array([[0.0, 0.0], [1.0, 1.0]])
        m = SimilarityMeasure(mat, weighting=np.array([1.0, 0.0]))
        assert m.distance(mat[0], mat[1]) == pytest.approx(1.0)

    def test_bad_weighting(self):
        mat = np.array([[0.0], [1.0]])
        with pytest.raises(ValueError):
            SimilarityMeasure(mat, weighting="bogus")
        with pytest.raises(ValueError):
            SimilarityMeasure(mat, weighting=np.ones(3))

    def test_empty_matrix_rejected(self):
        with pytest.raises(ValueError):
            SimilarityMeasure(np.zeros((0, 2)))


class TestSearchEngine:
    def test_knn_excludes_query_shape(self, engine):
        hits = engine.search_knn(1, "principal_moments", k=3)
        assert all(h.shape_id != 1 for h in hits)
        assert len(hits) == 3

    def test_knn_finds_group_members_first(self, engine):
        hits = engine.search_knn(1, "principal_moments", k=2)
        assert {h.shape_id for h in hits} == {2, 3}

    def test_knn_keeps_query_when_asked(self, engine):
        hits = engine.search_knn(1, "principal_moments", k=1, exclude_query=False)
        assert hits[0].shape_id == 1
        assert hits[0].similarity == pytest.approx(1.0)

    def test_query_by_mesh(self, engine):
        hits = engine.search_knn(box((2, 3, 4)), "principal_moments", k=2)
        assert {h.shape_id for h in hits} <= {1, 2, 3}

    def test_query_by_vector(self, engine, db):
        vec = db.get(4).feature("principal_moments")
        hits = engine.search_knn(vec, "principal_moments", k=1)
        assert hits[0].shape_id == 4

    def test_results_ranked_and_annotated(self, engine):
        hits = engine.search_knn(1, "principal_moments", k=3)
        assert [h.rank for h in hits] == [1, 2, 3]
        assert hits[0].distance <= hits[1].distance <= hits[2].distance
        assert hits[0].similarity >= hits[1].similarity
        assert hits[0].group == "boxes"

    def test_threshold_query(self, engine):
        strict = engine.search_threshold(1, "principal_moments", threshold=0.999)
        loose = engine.search_threshold(1, "principal_moments", threshold=0.0)
        assert len(strict) <= len(loose)
        assert len(loose) == 6  # everything except the query

    def test_rerank_orders_candidates(self, engine):
        reranked = engine.rerank([6, 4, 2], 1, "principal_moments")
        assert {r.shape_id for r in reranked} == {6, 4, 2}
        assert reranked[0].shape_id == 2  # the fellow box comes first

    def test_bad_query_vector_shape(self, engine):
        with pytest.raises(ValueError):
            engine.search_knn(np.zeros((2, 2)), "principal_moments")

    def test_mesh_query_without_pipeline(self, db):
        db.pipeline = None
        engine = SearchEngine(db)
        with pytest.raises(RuntimeError):
            engine.search_knn(box((1, 1, 1)), "principal_moments")

    def test_measure_cache_invalidation(self, engine, db):
        m1 = engine.measure("principal_moments")
        assert engine.measure("principal_moments") is m1
        db.delete(db.ids()[-1])
        assert engine.measure("principal_moments") is not m1


TIE_K = 5
TIE_COPIES = 5
TIE_FEATURE = "principal_moments"


def duplicate_row_system(n, tmp_path):
    """A reloaded system of ``n`` vector-only records, each vector repeated
    ``TIE_COPIES`` times (interleaved, so copies get scattered ids)."""
    rng = np.random.default_rng(n)
    base = rng.normal(size=(max(1, n // TIE_COPIES), 3))
    db = ShapeDatabase(pipeline=None)
    for i in range(n):
        db.insert_record(
            ShapeRecord(
                shape_id=0,
                name=f"dup{i}",
                features={TIE_FEATURE: base[i % len(base)]},
            )
        )
    db.save(tmp_path / "dups")
    return ThreeDESS.load(tmp_path / "dups", load_meshes=False)


def exact_order(system, query_id, radius=None):
    """Expected ranking: ``np.lexsort((ids, d))`` with the query dropped."""
    view = system.database.feature_view(TIE_FEATURE)
    d = weighted_distances(
        view.matrix[view.id_list.index(query_id)],
        view.matrix,
        range_weights(view.matrix),
    )
    order = np.lexsort((view.ids, d))
    if radius is not None:
        order = [i for i in order if d[i] <= radius]
    return [int(view.ids[i]) for i in order if view.ids[i] != query_id]


class TestTieOrder:
    """Tied rows rank by (distance, id) at edge corpus sizes."""

    @pytest.mark.parametrize("n", [1, TIE_K, TIE_K + 1, 200])
    def test_knn_and_threshold_follow_lexsort(self, n, tmp_path):
        system = duplicate_row_system(n, tmp_path)
        radius = system.engine.measure(TIE_FEATURE).radius_for_threshold(0.8)
        for sid in system.database.ids()[:: max(1, n // 40)]:
            knn = system.search(
                SearchRequest(query=sid, mode="knn", k=TIE_K, feature_name=TIE_FEATURE)
            )
            expect = exact_order(system, sid)[:TIE_K]
            assert knn.shape_ids == expect
            assert [h.rank for h in knn.hits] == list(range(1, len(expect) + 1))
            within = system.search(
                SearchRequest(
                    query=sid, mode="threshold", threshold=0.8, feature_name=TIE_FEATURE
                )
            )
            expect = exact_order(system, sid, radius)
            assert within.shape_ids == expect
            assert [h.rank for h in within.hits] == list(range(1, len(expect) + 1))


class TestMultiStep:
    def test_plan_validation(self):
        with pytest.raises(ValueError):
            MultiStepPlan(steps=[("a", 10)])
        with pytest.raises(ValueError):
            MultiStepPlan(steps=[("a", 10), ("b", 20)])  # increasing keep
        with pytest.raises(ValueError):
            MultiStepPlan(steps=[("a", 10), ("b", 0)])

    def test_default_plan_is_papers(self, engine):
        results = multi_step_search(engine, 1)
        assert len(results) <= 10

    def test_filter_subset_of_pool(self, engine):
        pool = engine.search_knn(1, "moment_invariants", k=5)
        plan = MultiStepPlan(steps=[("moment_invariants", 5), ("geometric_params", 3)])
        filtered = multi_step_search(engine, 1, plan)
        assert {r.shape_id for r in filtered} <= {r.shape_id for r in pool}
        assert len(filtered) == 3

    def test_three_step_plan(self, engine):
        plan = MultiStepPlan(
            steps=[
                ("moment_invariants", 6),
                ("principal_moments", 4),
                ("geometric_params", 2),
            ]
        )
        assert len(multi_step_search(engine, 1, plan)) == 2

    def test_one_shot_helper(self, engine):
        assert len(one_shot_search(engine, 1, "principal_moments", k=3)) == 3

    def test_deterministic(self, engine):
        a = [r.shape_id for r in multi_step_search(engine, 1)]
        b = [r.shape_id for r in multi_step_search(engine, 1)]
        assert a == b


class TestRelevanceFeedback:
    def test_rocchio_moves_toward_relevant(self):
        q = np.zeros(2)
        out = reconstruct_query(q, [np.array([2.0, 0.0])], alpha=1.0, beta=0.5)
        assert np.allclose(out, [2.0 / 3.0, 0.0])  # (0 + 0.5*2) / 1.5

    def test_rocchio_moves_away_from_irrelevant(self):
        q = np.zeros(2)
        out = reconstruct_query(
            q, [], [np.array([0.0, 2.0])], alpha=1.0, gamma=0.5
        )
        assert np.allclose(out, [0.0, -2.0])  # (0 - 0.5*2) / 0.5

    def test_reweight_tight_dimension_gets_more(self):
        rel = [np.array([1.0, 0.0]), np.array([1.0, 10.0]), np.array([1.0, -10.0])]
        w = reconfigure_weights(rel)
        assert w[0] > w[1]
        assert w.sum() == pytest.approx(2.0)

    def test_reweight_single_example_keeps_base(self):
        base = np.array([3.0, 4.0])
        w = reconfigure_weights([np.array([1.0, 1.0])], base_weights=base)
        assert np.allclose(w, base)

    def test_session_round_trip(self, engine):
        session = RelevanceFeedbackSession(engine, 1, "geometric_params", k=4)
        first = session.search()
        assert len(first) == 4
        relevant = [r.shape_id for r in first if r.group == "boxes"]
        irrelevant = [r.shape_id for r in first if r.group != "boxes"]
        session.feedback(relevant, irrelevant)
        assert session.rounds == 1
        second = session.search()
        assert len(second) == 4

    def test_session_search_on_bulk_appended_db(self):
        # Bulk-appended databases (the synthetic scale tier) once crashed
        # feedback search with KeyError; it must equal the exact k-NN.
        engine = SearchEngine(build_synthetic_database(200))
        session = RelevanceFeedbackSession(engine, 7, "principal_moments", k=10)
        got = session.search()
        want = engine.search_knn(7, "principal_moments", k=10, exclude_query=False)
        assert [r.shape_id for r in got] == [r.shape_id for r in want]
        assert [r.distance for r in got] == [r.distance for r in want]
        assert [r.rank for r in got] == list(range(1, 11))

    def test_session_feedback_improves_box_rank(self, engine):
        # Mark the two other boxes relevant; box ranks should not get worse.
        session = RelevanceFeedbackSession(engine, 1, "principal_moments", k=6)
        before = [r.shape_id for r in session.search()]
        session.feedback([2, 3], [6, 7])
        after = [r.shape_id for r in session.search()]
        rank_before = min(before.index(2), before.index(3))
        rank_after = min(after.index(2), after.index(3))
        assert rank_after <= rank_before
