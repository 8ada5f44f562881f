"""Tests for the multi-stage retrieval cascade (:mod:`repro.search.cascade`).

Covers the int8 quantization sidecar, strategy/stage validation and wire
forms, the exact-mode bitwise-equivalence contract against the one-shot
linear path, quantized recall, degraded records flowing through every
stage, the optional graph stage, per-stage budgets, and persistence /
salvage of the quantized tier.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import SearchRequest, SystemConfig, ThreeDESS
from repro.datasets.generator import build_synthetic_database
from repro.db import ShapeDatabase, StorageError
from repro.db.quantized import (
    QUANT_LEVELS,
    approx_weighted_sq_distances,
    dequantize,
    quantize_matrix,
)
from repro.db.storage import load_quantized_features
from repro.geometry.primitives import box, cylinder, tube
from repro.robust import Deadline, DeadlineExceededError
from repro.search import (
    CASCADE_STAGE_KINDS,
    CascadeStage,
    CascadeStrategy,
    SearchEngine,
    run_cascade,
)
from repro.search.multistep import MultiStepPlan, multi_step_search

FEATURE = "principal_moments"


@pytest.fixture(scope="module")
def synth_db():
    return build_synthetic_database(400, seed=7, n_groups=8)


@pytest.fixture(scope="module")
def synth_engine(synth_db):
    return SearchEngine(synth_db)


@pytest.fixture(scope="module")
def mesh_system():
    sys3d = ThreeDESS(SystemConfig(voxel_resolution=10))
    sys3d.insert(box((2, 3, 4)), name="b1", group="boxes")
    sys3d.insert(box((2.1, 3.1, 3.9)), name="b2", group="boxes")
    sys3d.insert(box((5, 5, 1)), name="plate")
    sys3d.insert(cylinder(2, 6), name="rod", group="rods")
    sys3d.insert(tube(3, 2, 5), name="bushing")
    return sys3d


# ----------------------------------------------------------------------
# int8 quantization sidecar
# ----------------------------------------------------------------------
class TestQuantization:
    def test_round_trip_within_half_step(self, rng):
        matrix = rng.normal(size=(50, 6)) * np.array([1, 10, 0.1, 100, 1, 1])
        codes, scale, offset = quantize_matrix(matrix)
        assert codes.dtype == np.int8 and codes.shape == matrix.shape
        recon = dequantize(codes, scale, offset)
        assert np.all(np.abs(recon - matrix) <= scale / 2 + 1e-9)

    def test_constant_dimension_is_exact(self):
        matrix = np.full((10, 3), 4.25)
        codes, scale, offset = quantize_matrix(matrix)
        assert np.all(scale == 1.0)  # span floor: constant -> unit scale
        assert np.allclose(dequantize(codes, scale, offset), matrix)

    def test_empty_matrix(self):
        codes, scale, offset = quantize_matrix(np.empty((0, 4)))
        assert codes.shape == (0, 4) and codes.dtype == np.int8
        assert len(scale) == len(offset) == 4

    def test_levels_span_the_range(self, rng):
        matrix = rng.uniform(-5, 5, size=(200, 2))
        codes, _, _ = quantize_matrix(matrix)
        assert codes.min() == -128
        assert codes.max() == QUANT_LEVELS - 1 - 128

    def test_non_2d_rejected(self):
        with pytest.raises(ValueError, match="2D"):
            quantize_matrix(np.zeros(5))

    def test_approx_distances_match_dequantized_exactly(self, synth_db):
        column = synth_db.quantized_view(FEATURE)
        query = synth_db.get(1).feature(FEATURE)
        weights = np.linspace(0.5, 2.0, column.dim)
        approx = approx_weighted_sq_distances(column, query, weights)
        recon = dequantize(column.codes, column.scale, column.offset)
        exact = ((recon - query) ** 2 * weights).sum(axis=1)
        assert approx.shape == (len(column),)
        assert np.allclose(approx, exact, rtol=1e-4, atol=1e-4)

    def test_query_dim_mismatch_rejected(self, synth_db):
        column = synth_db.quantized_view(FEATURE)
        with pytest.raises(ValueError, match="dim"):
            approx_weighted_sq_distances(
                column, np.zeros(column.dim + 1), np.ones(column.dim + 1)
            )

    def test_sidecar_is_one_byte_per_dimension(self, synth_db):
        column = synth_db.quantized_view(FEATURE)
        view = synth_db.feature_view(FEATURE)
        assert column.nbytes == view.matrix.shape[0] * view.matrix.shape[1]
        assert np.array_equal(column.ids, view.ids)

    def test_view_cached_until_mutation(self):
        db = build_synthetic_database(20, seed=3, n_groups=2)
        first = db.quantized_view(FEATURE)
        assert db.quantized_view(FEATURE) is first
        db.delete(1)
        second = db.quantized_view(FEATURE)
        assert second is not first
        assert 1 not in second.ids


# ----------------------------------------------------------------------
# Stage and strategy validation + wire forms
# ----------------------------------------------------------------------
class TestStageValidation:
    def test_kind_catalog(self):
        assert CASCADE_STAGE_KINDS == ("scan", "rerank", "graph")

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown stage kind"):
            CascadeStage(kind="teleport", keep=5)

    @pytest.mark.parametrize("keep", [0, -1, True, 2.0])
    def test_bad_keep(self, keep):
        with pytest.raises(ValueError, match="keep"):
            CascadeStage(kind="scan", keep=keep, feature_name=FEATURE)

    @pytest.mark.parametrize("kind", ["scan", "rerank"])
    def test_feature_required(self, kind):
        with pytest.raises(ValueError, match="feature_name"):
            CascadeStage(kind=kind, keep=5)

    def test_quantized_only_on_scan(self):
        with pytest.raises(ValueError, match="quantized"):
            CascadeStage(kind="rerank", keep=5, feature_name=FEATURE,
                         quantized=True)

    @pytest.mark.parametrize("budget", [0.0, -1.0])
    def test_bad_budget(self, budget):
        with pytest.raises(ValueError, match="budget_ms"):
            CascadeStage(kind="graph", keep=5, budget_ms=budget)

    def test_wire_round_trip(self):
        stage = CascadeStage(kind="scan", keep=40, feature_name=FEATURE,
                             quantized=True, budget_ms=25.0)
        assert CascadeStage.from_wire(stage.to_wire()) == stage

    def test_wire_omits_defaults(self):
        assert CascadeStage(kind="graph", keep=5).to_wire() == {
            "kind": "graph", "keep": 5,
        }

    def test_wire_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown stage fields"):
            CascadeStage.from_wire({"kind": "graph", "keep": 5, "turbo": 1})

    def test_wire_missing_required(self):
        with pytest.raises(ValueError, match="'kind' and 'keep'"):
            CascadeStage.from_wire({"kind": "graph"})

    def test_wire_bool_keep_rejected(self):
        with pytest.raises(ValueError, match="keep"):
            CascadeStage.from_wire({"kind": "graph", "keep": True})


class TestStrategyValidation:
    def test_needs_a_stage(self):
        with pytest.raises(ValueError, match="at least one stage"):
            CascadeStrategy(stages=())

    def test_first_must_be_scan(self):
        with pytest.raises(ValueError, match="first cascade stage"):
            CascadeStrategy(stages=(
                CascadeStage(kind="rerank", keep=5, feature_name=FEATURE),
            ))

    def test_only_one_scan(self):
        with pytest.raises(ValueError, match="only the first"):
            CascadeStrategy(stages=(
                CascadeStage(kind="scan", keep=9, feature_name=FEATURE),
                CascadeStage(kind="scan", keep=5, feature_name=FEATURE),
            ))

    def test_graph_must_be_last(self):
        with pytest.raises(ValueError, match="last stage"):
            CascadeStrategy(stages=(
                CascadeStage(kind="scan", keep=9, feature_name=FEATURE),
                CascadeStage(kind="graph", keep=5),
                CascadeStage(kind="rerank", keep=3, feature_name=FEATURE),
            ))

    def test_quantized_scan_needs_rerank(self):
        # Pruning scores may never be presented.
        with pytest.raises(ValueError, match="pruning scores"):
            CascadeStrategy(stages=(
                CascadeStage(kind="scan", keep=9, feature_name=FEATURE,
                             quantized=True),
            ))

    def test_keeps_non_increasing(self):
        with pytest.raises(ValueError, match="non-increasing"):
            CascadeStrategy(stages=(
                CascadeStage(kind="scan", keep=5, feature_name=FEATURE),
                CascadeStage(kind="rerank", keep=9, feature_name=FEATURE),
            ))

    def test_default_pool_floor(self):
        strategy = CascadeStrategy.default(FEATURE, 3)
        assert [s.kind for s in strategy.stages] == ["scan", "rerank"]
        assert strategy.stages[0].keep == 50  # max(4k, 50)
        assert strategy.stages[0].quantized
        assert strategy.final_keep == 3
        assert CascadeStrategy.default(FEATURE, 20).stages[0].keep == 80

    def test_exact_constructor(self):
        strategy = CascadeStrategy.exact(FEATURE, 5, pool=12)
        assert not strategy.stages[0].quantized
        assert strategy.stages[0].keep == 12

    def test_paper_strategy(self):
        strategy = CascadeStrategy.paper()
        assert strategy.stages[0].feature_name == "moment_invariants"
        assert strategy.stages[0].keep == 30
        assert strategy.stages[1].feature_name == "geometric_params"
        assert strategy.final_keep == 10

    def test_from_steps(self):
        strategy = CascadeStrategy.from_steps(
            [(FEATURE, 8), ("geometric_params", 4)]
        )
        assert [s.kind for s in strategy.stages] == ["scan", "rerank"]
        assert not strategy.stages[0].quantized
        with pytest.raises(ValueError, match="at least one"):
            CascadeStrategy.from_steps([])

    def test_wire_round_trip(self):
        strategy = CascadeStrategy.default(FEATURE, 5)
        assert CascadeStrategy.from_wire(strategy.to_wire()) == strategy

    def test_wire_non_list_rejected(self):
        with pytest.raises(ValueError, match="list of stages"):
            CascadeStrategy.from_wire({"kind": "scan"})


# ----------------------------------------------------------------------
# Correctness: exact mode is bitwise the linear path
# ----------------------------------------------------------------------
class TestExactEquivalence:
    @pytest.mark.parametrize("k", [1, 5, 10, 25])
    def test_bitwise_identical_to_linear_knn(self, synth_engine, k):
        for pool in (k, 4 * k, 200):
            strategy = CascadeStrategy.exact(FEATURE, k, pool=pool)
            outcome = run_cascade(synth_engine, 17, strategy)
            linear = synth_engine.search_knn(
                17, FEATURE, k=k
            )
            assert [r.shape_id for r in outcome.results] == [
                r.shape_id for r in linear
            ]
            assert [r.distance for r in outcome.results] == [
                r.distance for r in linear
            ]  # bitwise: stage 2 recomputes the same floats
            assert [r.rank for r in outcome.results] == [
                r.rank for r in linear
            ]

    def test_vector_query_equivalence(self, synth_engine, synth_db):
        query = synth_db.get(5).feature(FEATURE) * 1.01
        outcome = run_cascade(
            synth_engine, query, CascadeStrategy.exact(FEATURE, 10, pool=60)
        )
        linear = synth_engine.search_knn(query, FEATURE, k=10)
        assert [(r.shape_id, r.distance) for r in outcome.results] == [
            (r.shape_id, r.distance) for r in linear
        ]

    def test_query_excluded_by_default(self, synth_engine):
        outcome = run_cascade(
            synth_engine, 17, CascadeStrategy.exact(FEATURE, 10)
        )
        assert 17 not in [r.shape_id for r in outcome.results]
        kept = run_cascade(
            synth_engine, 17, CascadeStrategy.exact(FEATURE, 10),
            exclude_query=False,
        )
        assert kept.results[0].shape_id == 17
        assert kept.results[0].distance == 0.0

    def test_stage_reports(self, synth_engine, synth_db):
        outcome = run_cascade(
            synth_engine, 17, CascadeStrategy.exact(FEATURE, 5, pool=20)
        )
        scan, rerank = outcome.reports
        assert (scan.stage, scan.kind, scan.path) == (1, "scan", "exact")
        assert scan.candidates_in == len(synth_db)
        assert scan.candidates_out == 20
        assert (rerank.stage, rerank.kind, rerank.path) == (2, "rerank", "rerank")
        assert rerank.candidates_in == 20
        assert rerank.candidates_out == 5
        assert all(r.elapsed_ms >= 0.0 for r in outcome.reports)
        assert all(outcome.scored_stage[r.shape_id] == 2
                   for r in outcome.results)

    def test_strategy_type_checked(self, synth_engine):
        with pytest.raises(TypeError, match="CascadeStrategy"):
            run_cascade(synth_engine, 1, [("scan", 5)])


# ----------------------------------------------------------------------
# Quantized stage 1: recall and provenance
# ----------------------------------------------------------------------
class TestQuantizedCascade:
    def test_recall_at_10_on_default_pool(self, synth_engine):
        hits = 0
        queries = range(1, 21)
        for sid in queries:
            truth = {
                r.shape_id
                for r in synth_engine.search_knn(
                    sid, FEATURE, k=10
                )
            }
            outcome = run_cascade(
                synth_engine, sid, CascadeStrategy.default(FEATURE, 10)
            )
            hits += len(truth & {r.shape_id for r in outcome.results})
        recall = hits / (10 * len(queries))
        assert recall >= 0.95

    def test_reported_distances_are_full_precision(self, synth_engine):
        """Quantization can cost pool membership, never distort a
        distance: every presented distance equals the linear path's for
        the same shape id."""
        outcome = run_cascade(
            synth_engine, 3, CascadeStrategy.default(FEATURE, 10)
        )
        linear = {
            r.shape_id: r.distance
            for r in synth_engine.search_knn(
                3, FEATURE, k=50
            )
        }
        for result in outcome.results:
            assert result.distance == linear[result.shape_id]

    def test_quantized_provenance(self, synth_engine, synth_db):
        outcome = run_cascade(
            synth_engine, 3, CascadeStrategy.default(FEATURE, 5)
        )
        scan = outcome.reports[0]
        assert scan.path == "quantized"
        assert scan.candidates_in == len(synth_db)
        assert scan.candidates_out == 50
        # Pruning scores are never presented: every result was scored
        # by the rerank stage.
        assert all(outcome.scored_stage[r.shape_id] == 2
                   for r in outcome.results)


# ----------------------------------------------------------------------
# Degraded records flow through every stage
# ----------------------------------------------------------------------
@pytest.fixture
def degraded_system():
    """Five shapes; shape 2 degraded and missing geometric_params."""
    sys3d = ThreeDESS(SystemConfig(voxel_resolution=10))
    sys3d.insert(box((2, 3, 4)), name="b1", group="boxes")
    sys3d.insert(box((2.1, 3.1, 3.9)), name="b2", group="boxes")
    sys3d.insert(box((5, 5, 1)), name="plate")
    sys3d.insert(cylinder(2, 6), name="rod")
    sys3d.insert(tube(3, 2, 5), name="bushing")
    record = sys3d.database.get(2)
    partial = {
        fname: vec
        for fname, vec in record.features.items()
        if fname != "geometric_params"
    }
    sys3d.database.update_features(
        2, partial, failures={"geometric_params": "extract.degraded_test"}
    )
    assert sys3d.database.get(2).is_degraded()
    return sys3d


class TestDegradedThroughStages:
    def test_degraded_survivor_counted_in_every_stage(self, degraded_system):
        engine = degraded_system.engine
        outcome = run_cascade(
            engine, 1,
            CascadeStrategy.default(FEATURE, 3, pool=4, quantized=True),
        )
        # The near-duplicate degraded box survives both stages and both
        # reports count it.
        assert outcome.results[0].shape_id == 2
        assert all(report.degraded >= 1 for report in outcome.reports)

    def test_quantized_scan_skips_missing_feature_rows(self, degraded_system):
        """Stage 1 over the feature shape 2 lacks never crashes — the
        record has no row in the column, quantized or packed alike."""
        engine = degraded_system.engine
        for quantized in (True, False):
            outcome = run_cascade(
                engine, 1,
                CascadeStrategy.default(
                    "geometric_params", 3, pool=4, quantized=quantized
                ),
            )
            ids = [r.shape_id for r in outcome.results]
            assert 2 not in ids
            assert len(ids) == 3
            assert outcome.reports[0].candidates_in == 4  # 5 shapes - 1 row

    def test_degraded_flag_reaches_api_hits(self, degraded_system):
        response = degraded_system.search(
            SearchRequest(
                query=1, mode="cascade", k=2,
                strategy=CascadeStrategy.default(FEATURE, 2, pool=4),
            )
        )
        top = response.hits[0]
        assert top.shape_id == 2 and top.degraded
        assert response.stages[-1].degraded >= 1

    def test_degraded_record_through_graph_stage(self, degraded_system):
        engine = degraded_system.engine
        strategy = CascadeStrategy(stages=(
            CascadeStage(kind="scan", keep=4, feature_name=FEATURE),
            CascadeStage(kind="rerank", keep=3, feature_name=FEATURE),
            CascadeStage(kind="graph", keep=3),
        ))
        outcome = run_cascade(engine, 1, strategy)
        assert outcome.reports[-1].path == "graph"
        assert 2 in [r.shape_id for r in outcome.results]
        assert outcome.reports[-1].degraded >= 1


# ----------------------------------------------------------------------
# Graph stage
# ----------------------------------------------------------------------
class TestGraphStage:
    def _strategy(self, keep=3):
        return CascadeStrategy(stages=(
            CascadeStage(kind="scan", keep=4, feature_name=FEATURE),
            CascadeStage(kind="rerank", keep=3, feature_name=FEATURE),
            CascadeStage(kind="graph", keep=keep),
        ))

    def test_graph_rescored_results(self, mesh_system):
        engine = mesh_system.engine
        outcome = run_cascade(engine, 1, self._strategy())
        report = outcome.reports[-1]
        assert (report.stage, report.kind, report.path) == (3, "graph", "graph")
        assert report.candidates_in == 3
        for result in outcome.results:
            assert result.similarity == 1.0 / (1.0 + result.distance)
            assert outcome.scored_stage[result.shape_id] == 3
        # GED ascending, ranks renumbered.
        dists = [r.distance for r in outcome.results]
        assert dists == sorted(dists)
        assert [r.rank for r in outcome.results] == [1, 2, 3]

    def test_vector_query_skips_graph(self, mesh_system):
        engine = mesh_system.engine
        query = mesh_system.database.get(1).feature(FEATURE)
        outcome = run_cascade(engine, query, self._strategy())
        report = outcome.reports[-1]
        assert report.path == "skipped"
        assert report.note == "no query geometry"
        # Candidates pass through with their stage-2 scores and order.
        assert all(outcome.scored_stage[r.shape_id] == 2
                   for r in outcome.results)

    def test_meshless_candidate_ranks_after_scored(self, mesh_system):
        engine = mesh_system.engine
        baseline = run_cascade(engine, 1, self._strategy())
        survivor_ids = [r.shape_id for r in baseline.results]
        stripped = survivor_ids[0]  # best graph match loses its mesh
        record = mesh_system.database.get(stripped)
        saved, record.mesh = record.mesh, None
        try:
            # Graph cache keys on the store generation, which mesh
            # stripping does not bump — use a fresh engine.
            outcome = run_cascade(
                SearchEngine(mesh_system.database), 1, self._strategy()
            )
        finally:
            record.mesh = saved
        results = outcome.results
        assert results[-1].shape_id == stripped  # after every scored one
        assert outcome.scored_stage[stripped] == 2  # kept its rerank score
        assert [r.rank for r in results] == [1, 2, 3]

    def test_budget_exhaustion_degrades_not_raises(self, mesh_system):
        engine = mesh_system.engine
        strategy = CascadeStrategy(stages=(
            CascadeStage(kind="scan", keep=4, feature_name=FEATURE),
            CascadeStage(kind="rerank", keep=3, feature_name=FEATURE),
            CascadeStage(kind="graph", keep=3, budget_ms=1e-6),
        ))
        rerank_only = run_cascade(engine, 1, self._strategy())
        outcome = run_cascade(engine, 1, strategy)
        report = outcome.reports[-1]
        assert report.path == "graph"
        assert report.note == "budget exhausted"
        # Unscored candidates keep the stage-2 order.
        assert [r.shape_id for r in outcome.results] == [
            r.shape_id for r in rerank_only.results
        ] or all(outcome.scored_stage[r.shape_id] == 2
                 for r in outcome.results[-report.candidates_in:])

    def test_no_pipeline_skips_graph(self, synth_engine):
        strategy = CascadeStrategy(stages=(
            CascadeStage(kind="scan", keep=5, feature_name=FEATURE),
            CascadeStage(kind="graph", keep=5),
        ))
        outcome = run_cascade(synth_engine, 1, strategy)
        # Synthetic records carry no meshes: no query geometry either.
        assert outcome.reports[-1].path == "skipped"
        assert len(outcome.results) == 5


# ----------------------------------------------------------------------
# Budgets and deadlines
# ----------------------------------------------------------------------
class TestBudgets:
    def test_scan_budget_raises(self, synth_engine):
        strategy = CascadeStrategy(stages=(
            CascadeStage(kind="scan", keep=10, feature_name=FEATURE,
                         budget_ms=1e-6),
        ))
        with pytest.raises(DeadlineExceededError):
            run_cascade(synth_engine, 1, strategy)

    def test_rerank_budget_raises(self, synth_engine):
        strategy = CascadeStrategy(stages=(
            CascadeStage(kind="scan", keep=20, feature_name=FEATURE),
            CascadeStage(kind="rerank", keep=5, feature_name=FEATURE,
                         budget_ms=1e-6),
        ))
        with pytest.raises(DeadlineExceededError):
            run_cascade(synth_engine, 1, strategy)

    def test_outer_deadline_respected(self, synth_engine):
        expired = Deadline(expires_at=0.0)  # the epoch of the monotonic clock
        with pytest.raises(DeadlineExceededError):
            run_cascade(
                synth_engine, 1, CascadeStrategy.exact(FEATURE, 5),
                deadline=expired,
            )

    def test_generous_budgets_run_clean(self, synth_engine):
        strategy = CascadeStrategy(stages=(
            CascadeStage(kind="scan", keep=20, feature_name=FEATURE,
                         quantized=True, budget_ms=60_000.0),
            CascadeStage(kind="rerank", keep=5, feature_name=FEATURE,
                         budget_ms=60_000.0),
        ))
        outcome = run_cascade(synth_engine, 1, strategy)
        assert len(outcome.results) == 5


# ----------------------------------------------------------------------
# Legacy multi-step equivalence
# ----------------------------------------------------------------------
class TestMultiStepEquivalence:
    def test_from_steps_matches_multi_step_search(self, synth_engine):
        steps = [("moment_invariants", 30), ("geometric_params", 10)]
        outcome = run_cascade(
            synth_engine, 9, CascadeStrategy.from_steps(steps)
        )
        legacy = multi_step_search(
            synth_engine, 9, MultiStepPlan(steps=steps)
        )
        assert [(r.shape_id, r.distance) for r in outcome.results] == [
            (r.shape_id, r.distance) for r in legacy
        ]


# ----------------------------------------------------------------------
# Quantized sidecar persistence and salvage
# ----------------------------------------------------------------------
class TestSidecarPersistence:
    def _saved(self, tmp_path):
        db = build_synthetic_database(30, seed=11, n_groups=4)
        root = tmp_path / "db"
        db.save(root)
        return db, root

    def test_sidecar_written_and_loadable(self, tmp_path):
        db, root = self._saved(tmp_path)
        sidecars = load_quantized_features(root)
        assert sidecars is not None and FEATURE in sidecars
        side = sidecars[FEATURE]
        assert side.codes.dtype == np.int8
        fresh = db.quantized_view(FEATURE)
        assert np.array_equal(side.codes, fresh.codes)
        assert np.allclose(side.scale, fresh.scale)
        assert np.allclose(side.offset, fresh.offset)

    def test_reload_serves_quantized_scan(self, tmp_path, synth_engine):
        _, root = self._saved(tmp_path)
        db = ShapeDatabase.load(root)
        engine = SearchEngine(db)
        outcome = run_cascade(
            engine, 1, CascadeStrategy.default(FEATURE, 5, pool=10)
        )
        exact = run_cascade(
            engine, 1, CascadeStrategy.exact(FEATURE, 5, pool=10)
        )
        assert len(outcome.results) == 5
        assert {r.shape_id for r in outcome.results} == {
            r.shape_id for r in exact.results
        }

    def test_corrupt_sidecar_salvaged_not_fatal(self, tmp_path):
        db, root = self._saved(tmp_path)
        codes_path = root / "quantized" / f"{FEATURE}.codes.npy"
        blob = bytearray(codes_path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        codes_path.write_bytes(bytes(blob))

        # Strict load (integrity tooling) refuses loudly ...
        with pytest.raises(StorageError, match="quantized feature tier"):
            load_quantized_features(root, strict=True)
        # ... the serving default discards the whole tier ...
        assert load_quantized_features(root) is None
        # ... and the database load rebuilds the view from the packed
        # column, bit-for-bit what a fresh quantization produces.
        loaded = ShapeDatabase.load(root)
        rebuilt = loaded.quantized_view(FEATURE)
        assert np.array_equal(rebuilt.codes, db.quantized_view(FEATURE).codes)

    def test_missing_sidecar_tier_rebuilds_lazily(self, tmp_path):
        import shutil

        _, root = self._saved(tmp_path)
        shutil.rmtree(root / "quantized")
        loaded = ShapeDatabase.load(root)
        view = loaded.quantized_view(FEATURE)
        assert len(view) == len(loaded)
