"""Cascade smoke check: the staged search keeps its two promises.

CI's ``cascade-smoke`` job runs this against a seeded synthetic corpus
and fails the build the moment either guarantee slips:

1. **Exact-mode identity** — a cascade whose scan is full-precision
   returns bitwise-identical ids, distances and ordering to the
   one-shot linear path (``search_knn``), for every pool size >= k.
2. **Quantized recall** — the default int8-scanned cascade retrieves at
   least 95% of the linear ground truth at k=10.

Run:  python examples/cascade_smoke.py
"""

from __future__ import annotations

import sys


def check(condition: bool, message: str) -> None:
    from repro.cli import ExitCode

    if not condition:
        print(f"FAIL: {message}", file=sys.stderr)
        raise SystemExit(ExitCode.INTEGRITY)
    print(f"  ok: {message}")


def main() -> None:
    from repro.datasets.generator import build_synthetic_database
    from repro.search import CascadeStrategy, SearchEngine, run_cascade

    feature, k = "principal_moments", 10
    db = build_synthetic_database(2000, seed=42, n_groups=16)
    engine = SearchEngine(db)
    query_ids = db.ids()[::40][:50]
    print(f"cascade smoke: {len(db)} shapes, {len(query_ids)} queries, "
          f"k={k} under {feature}")

    truth = {
        sid: [
            (r.shape_id, r.distance, r.rank)
            for r in engine.search_knn(sid, feature, k=k)
        ]
        for sid in query_ids
    }

    for pool in (k, 4 * k, 20 * k):
        strategy = CascadeStrategy.exact(feature, k, pool=pool)
        identical = all(
            [
                (r.shape_id, r.distance, r.rank)
                for r in run_cascade(engine, sid, strategy).results
            ]
            == truth[sid]
            for sid in query_ids
        )
        check(identical,
              f"exact-mode cascade bitwise-identical to linear (pool={pool})")

    strategy = CascadeStrategy.default(feature, k)
    hits = 0
    for sid in query_ids:
        retrieved = {r.shape_id for r in run_cascade(engine, sid, strategy).results}
        hits += len(retrieved & {i for i, _, _ in truth[sid]})
    recall = hits / (k * len(query_ids))
    check(recall >= 0.95,
          f"quantized cascade recall@{k} >= 0.95 of linear (got {recall:.3f})")
    print("cascade smoke passed")


if __name__ == "__main__":
    main()
