"""EXT-SCALE — end-to-end search scalability with database size.

Grows the synthetic corpus (more members per family) and measures the
full engine: feature extraction throughput and per-query k-NN latency
through the exact scan, confirming the architecture holds beyond the
paper's 113 shapes.  The node-access column comes from the paper's
R-tree, bulk-loaded over the same feature column and probed with the same
queries.  Moment-based features only (the voxel/skeleton stages have
their own cost benchmarks).
"""

import time

import numpy as np

from conftest import run_once

from repro.datasets.families import FAMILIES
from repro.db import ShapeDatabase
from repro.features import FeaturePipeline
from repro.index import RTree
from repro.search import SearchEngine

FEATURES = ["moment_invariants", "geometric_params", "principal_moments"]
MEMBERS_PER_FAMILY = (4, 16, 40)  # 104, 416, 1040 shapes


def build(members: int, seed: int = 99) -> ShapeDatabase:
    rng = np.random.default_rng(seed)
    db = ShapeDatabase(FeaturePipeline(feature_names=FEATURES))
    for family, maker in FAMILIES.items():
        for k in range(members):
            db.insert_mesh(maker(rng), name=f"{family}_{k}", group=family)
    return db


def sweep():
    rows = []
    for members in MEMBERS_PER_FAMILY:
        t0 = time.time()
        db = build(members)
        build_seconds = time.time() - t0
        engine = SearchEngine(db)
        ids = db.ids()
        rng = np.random.default_rng(1)
        queries = rng.choice(ids, size=30, replace=False)
        t0 = time.time()
        hits = 0
        for query_id in queries:
            res = engine.search_knn(int(query_id), "principal_moments", k=10)
            relevant = set(db.relevant_to(int(query_id)))
            hits += len(relevant & {r.shape_id for r in res}) / max(len(relevant), 1)
        query_ms = (time.time() - t0) / len(queries) * 1000
        view = db.feature_view("principal_moments")
        tree = RTree.bulk_load(view.matrix, view.id_list)
        weights = engine.measure("principal_moments").weights
        for query_id in queries:
            tree.nearest(
                db.get(int(query_id)).feature("principal_moments"),
                k=11,
                weights=weights,
            )
        rows.append(
            {
                "n": len(db),
                "build_s": build_seconds,
                "query_ms": query_ms,
                "accesses": tree.node_accesses / len(queries),
                "recall10": hits / len(queries),
            }
        )
    return rows


def test_ext_scalability(benchmark, capsys):
    rows = run_once(benchmark, sweep)
    with capsys.disabled():
        print("\nEXT-SCALE  end-to-end scalability (moment features)")
        print(
            f"  {'shapes':>7s} {'build s':>8s} {'query ms':>9s} "
            f"{'node acc':>9s} {'recall@10':>10s}"
        )
        for row in rows:
            print(
                f"  {row['n']:7d} {row['build_s']:8.1f} {row['query_ms']:9.2f} "
                f"{row['accesses']:9.1f} {row['recall10']:10.3f}"
            )
    assert rows[-1]["n"] > 1000
    # Index work must grow clearly sublinearly with database size; node
    # accesses are deterministic (unlike wall-clock under suite load).
    linear_ratio = rows[-1]["n"] / rows[0]["n"]
    assert rows[-1]["accesses"] < rows[0]["accesses"] * linear_ratio / 2
