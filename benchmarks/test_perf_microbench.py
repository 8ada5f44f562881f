"""Micro-benchmarks: feature extraction and index query latency.

Unlike the figure-level experiments these use pytest-benchmark's normal
multi-round timing, giving stable per-operation latencies for the cost
model in DESIGN.md.
"""

import numpy as np
import pytest

from repro.features import FeaturePipeline
from repro.geometry import extrude_polygon
from repro.index import LinearScanIndex, RTree


@pytest.fixture(scope="module")
def bracket():
    return extrude_polygon(
        [[0, 0], [6, 0], [6, 1], [1, 1], [1, 4], [0, 4]], 1.2, name="bracket"
    )


@pytest.mark.parametrize(
    "feature",
    ["moment_invariants", "geometric_params", "principal_moments", "eigenvalues"],
)
def test_perf_feature_extraction(benchmark, bracket, feature):
    pipeline = FeaturePipeline(feature_names=[feature], voxel_resolution=24)
    vec = benchmark(pipeline.extract_one, bracket, feature)
    assert np.isfinite(vec).all()


@pytest.fixture(scope="module")
def loaded_indexes():
    rng = np.random.default_rng(11)
    points = rng.normal(size=(20000, 3))
    tree = RTree.bulk_load(points, list(range(len(points))))
    linear = LinearScanIndex(3)
    for i, p in enumerate(points):
        linear.insert(p, i)
    return tree, linear, points


def test_perf_rtree_knn(benchmark, loaded_indexes):
    tree, _, points = loaded_indexes
    out = benchmark(tree.nearest, points[123], 10)
    assert len(out) == 10


def test_perf_linear_knn(benchmark, loaded_indexes):
    _, linear, points = loaded_indexes
    out = benchmark(linear.nearest, points[123], 10)
    assert len(out) == 10


def test_perf_rtree_insert(benchmark):
    rng = np.random.default_rng(5)
    points = rng.normal(size=(512, 3))

    def build():
        tree = RTree(3)
        for i, p in enumerate(points):
            tree.insert(p, i)
        return tree

    tree = benchmark(build)
    assert len(tree) == 512


@pytest.fixture(scope="module")
def bracket_grid(bracket):
    from repro.voxel import voxelize

    return voxelize(bracket, resolution=32)


@pytest.mark.parametrize("kernel", ["batched", "reference"])
def test_perf_thinning_kernel(benchmark, bracket_grid, kernel):
    from repro.skeleton.thinning import thin

    skel = benchmark(thin, bracket_grid, kernel=kernel)
    assert skel.n_occupied >= 1


def test_perf_voxelize_surface(benchmark, bracket):
    from repro.voxel import voxelize_surface

    grid = benchmark(voxelize_surface, bracket, resolution=32)
    assert grid.n_occupied >= 1


@pytest.fixture(scope="module")
def ingestion_batch():
    from repro.datasets.generator import build_corpus

    corpus = build_corpus(42)[:8]
    return (
        [shape.mesh for shape in corpus],
        [shape.name for shape in corpus],
        [shape.group for shape in corpus],
    )


@pytest.mark.parametrize("workers", [0, 2])
def test_perf_parallel_ingestion(benchmark, ingestion_batch, workers):
    from repro.db.database import ShapeDatabase

    meshes, names, groups = ingestion_batch

    def build():
        db = ShapeDatabase(FeaturePipeline(voxel_resolution=16))
        db.insert_meshes(meshes, names=names, groups=groups, workers=workers)
        return db

    db = benchmark.pedantic(build, iterations=1, rounds=3)
    assert len(db) == len(meshes)


def test_perf_combined_search_scalar(benchmark, loaded_db_engine):
    from repro.search import CombinedSimilarity, combined_search

    engine, combo, query_id = loaded_db_engine
    out = benchmark(combined_search, engine, query_id, combo, 10)
    assert len(out) == 10


def test_perf_combined_search_batch(benchmark, loaded_db_engine):
    from repro.search import BatchScorer, CombinedSimilarity

    engine, combo, query_id = loaded_db_engine
    scorer = BatchScorer(engine)
    out = benchmark(scorer.combined_search, query_id, combo, 10)
    assert len(out) == 10
