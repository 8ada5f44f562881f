"""Machine-readable performance benchmarks (``three-dess bench``).

Retrieval papers are judged on reproducible timings, not prose (the NIST
benchmarking survey makes the point at length); the ROADMAP's "fast as
the hardware allows" goal needs a measured trajectory PR over PR.  This
harness times the hot paths the system actually runs —

* the **thinning kernel** (vectorized ``batched`` vs the ``reference``
  per-voxel loop, identical-output asserted),
* **ingestion throughput** (serial vs worker-pool extraction at several
  worker counts, identical-database asserted),
* the **extraction stages** (normalize / voxelize / skeletonize medians,
  straight from the ``repro.obs`` timers),
* **query latency** (k-NN through the exact vectorized scan),
* **service latency** (HTTP round-trip p50/p99 through an in-process
  ``three-dess serve`` daemon under 1/4/16 concurrent clients, plus a
  cold-connection vs keep-alive comparison), and
* the **scaling curve** (``--scale``): packed-store build time, RSS
  high-water, and query p50/p99 at 1k/10k/100k synthetic shapes

— and writes one ``BENCH_<rev>.json`` whose medians later PRs can cite.
All numbers are wall-clock medians over ``repeats`` runs on whatever
hardware executes the bench; ``cpu_count`` is recorded so scaling figures
are interpretable.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import time
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..datasets.generator import build_corpus
from ..db.database import ShapeDatabase
from ..features.pipeline import FeaturePipeline
from ..obs import get_registry
from ..search.engine import SearchEngine
from ..skeleton.thinning import thin
from ..voxel.voxelize import voxelize

SCHEMA_VERSION = 4

#: Extraction-stage histograms copied from the obs registry into the
#: report (`median` = p50 over all observations of the serial run).
_STAGE_METRICS = (
    "pipeline.normalize",
    "pipeline.voxelize",
    "pipeline.skeletonize",
    "pipeline.extract",
)


def revision(default: str = "unknown") -> str:
    """Short git revision of the working tree, or ``default``."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return default
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else default


def default_output_path() -> str:
    return f"BENCH_{revision('dev')}.json"


def _median(values: Sequence[float]) -> float:
    return float(np.median(np.asarray(values, dtype=np.float64)))


def _time(fn, repeats: int) -> List[float]:
    """Wall-clock seconds for ``repeats`` calls of ``fn``."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return times


# ----------------------------------------------------------------------
# Stages
# ----------------------------------------------------------------------
def bench_thinning(
    meshes: Dict[str, "object"], resolution: int, repeats: int
) -> Dict[str, object]:
    """Vectorized vs reference thinning on solid voxelizations."""
    grids = {}
    for name, mesh in meshes.items():
        grids[name] = voxelize(mesh, resolution=resolution)
    # Warm the shared simple-point memo so neither kernel pays the
    # first-run misses inside the timed region.
    for grid in grids.values():
        thin(grid, kernel="batched")

    rows = []
    for name, grid in grids.items():
        reference = thin(grid, kernel="reference")
        batched = thin(grid, kernel="batched")
        identical = bool(
            np.array_equal(reference.occupancy, batched.occupancy)
        )
        ref_s = _median(_time(lambda g=grid: thin(g, kernel="reference"), repeats))
        bat_s = _median(_time(lambda g=grid: thin(g, kernel="batched"), repeats))
        rows.append(
            {
                "grid": name,
                "occupied_voxels": grid.n_occupied,
                "reference_s": ref_s,
                "batched_s": bat_s,
                "speedup": ref_s / bat_s if bat_s > 0 else float("inf"),
                "identical": identical,
            }
        )
    return {
        "resolution": resolution,
        "repeats": repeats,
        "grids": rows,
        "median_speedup": _median([r["speedup"] for r in rows]),
        "all_identical": all(r["identical"] for r in rows),
    }


def _build_db(meshes, names, groups, resolution: int, workers: int) -> ShapeDatabase:
    db = ShapeDatabase(FeaturePipeline(voxel_resolution=resolution))
    result = db.insert_meshes(meshes, names=names, groups=groups, workers=workers)
    if result.errors:  # pragma: no cover - corpus meshes never fail
        raise RuntimeError(f"bench ingestion failed: {result.errors[0].message}")
    return db


def _db_state(db: ShapeDatabase):
    return [
        (rec.shape_id, rec.name, {k: v.tobytes() for k, v in sorted(rec.features.items())})
        for rec in db
    ]


def bench_ingestion(
    meshes,
    names,
    groups,
    resolution: int,
    worker_counts: Sequence[int],
    repeats: int,
) -> Dict[str, object]:
    """Serial vs parallel bulk-extraction throughput (+ stage timers)."""
    registry = get_registry()
    was_enabled = registry.enabled
    registry.enable()
    registry.reset()

    serial_db = _build_db(meshes, names, groups, resolution, workers=0)
    stage_snapshot = registry.snapshot()["histograms"]
    stages = {
        name: {
            "count": stage_snapshot[name]["count"],
            "median_s": stage_snapshot[name]["p50"],
            "total_s": stage_snapshot[name]["total"],
        }
        for name in _STAGE_METRICS
        if name in stage_snapshot
    }
    if not was_enabled:
        registry.disable()

    serial_times = _time(
        lambda: _build_db(meshes, names, groups, resolution, workers=0), repeats
    )
    serial_s = _median(serial_times)
    reference_state = _db_state(serial_db)

    runs = []
    for workers in worker_counts:
        parallel_db = _build_db(meshes, names, groups, resolution, workers=workers)
        identical = _db_state(parallel_db) == reference_state
        times = _time(
            lambda w=workers: _build_db(meshes, names, groups, resolution, workers=w),
            repeats,
        )
        elapsed = _median(times)
        runs.append(
            {
                "workers": workers,
                "seconds": elapsed,
                "shapes_per_s": len(meshes) / elapsed if elapsed > 0 else float("inf"),
                "speedup_vs_serial": serial_s / elapsed if elapsed > 0 else float("inf"),
                "identical_to_serial": identical,
            }
        )
    return {
        "n_shapes": len(meshes),
        "resolution": resolution,
        "repeats": repeats,
        "serial_s": serial_s,
        "serial_shapes_per_s": len(meshes) / serial_s if serial_s > 0 else float("inf"),
        "parallel": runs,
        "stages": stages,
        "_db": serial_db,  # consumed (and stripped) by run_bench
    }


def bench_query(
    db: ShapeDatabase,
    feature_name: str = "principal_moments",
    k: int = 10,
    repeats: int = 20,
) -> Dict[str, object]:
    """k-NN latency of the exact linear scan."""
    engine = SearchEngine(db)
    ids = db.ids()
    queries = ids[:: max(1, len(ids) // repeats)][:repeats]
    engine.search_knn(queries[0], feature_name, k=k)  # warm measure cache
    linear = []
    for shape_id in queries:
        start = time.perf_counter()
        engine.search_knn(shape_id, feature_name, k=k)
        linear.append(time.perf_counter() - start)
    return {
        "feature": feature_name,
        "k": k,
        "queries": len(queries),
        "linear_median_s": _median(linear),
        "linear_p90_s": float(np.percentile(linear, 90)),
    }


def bench_service(
    db: ShapeDatabase,
    resolution: int,
    client_counts: Sequence[int] = (1, 4, 16),
    requests_per_client: int = 25,
    k: int = 10,
) -> Dict[str, object]:
    """HTTP query latency through an in-process ``serve`` daemon.

    Boots a real :class:`~repro.service.QueryServer` on a loopback port
    over a saved copy of ``db``, then drives it with 1 / 4 / 16
    concurrent :class:`~repro.service.ServiceClient` threads issuing
    shape-id k-NN queries.  Reports wire-level p50/p99 per client count
    (the acceptance bar: 16 clients, zero failed requests).
    """
    import tempfile
    import threading

    from ..core.config import SystemConfig
    from ..core.system import ThreeDESS
    from ..robust.errors import classify_exception
    from ..service import QueryServer, ServiceClient, SnapshotManager

    config = SystemConfig(voxel_resolution=resolution)
    with tempfile.TemporaryDirectory(prefix="bench-service-") as root:
        directory = os.path.join(root, "db")
        ThreeDESS(config, database=db).save(directory)
        server = QueryServer(
            SnapshotManager(directory, config=config),
            port=0,
            max_concurrent=8,
            queue_limit=64,
        )
        server.start()
        try:
            ids = db.ids()
            runs = []
            for n_clients in client_counts:
                latencies: List[float] = []
                errors: List[str] = []
                lock = threading.Lock()

                def worker(offset: int) -> None:
                    client = ServiceClient(server.url, timeout=120.0)
                    local: List[float] = []
                    try:
                        for i in range(requests_per_client):
                            shape_id = ids[(offset + i) % len(ids)]
                            start = time.perf_counter()
                            client.search(shape_id=shape_id, k=k)
                            local.append(time.perf_counter() - start)
                    except Exception as exc:
                        info = classify_exception(exc)
                        with lock:
                            errors.append(info.format())
                        return
                    with lock:
                        latencies.extend(local)

                threads = [
                    threading.Thread(target=worker, args=(j,))
                    for j in range(n_clients)
                ]
                wall_start = time.perf_counter()
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
                wall = time.perf_counter() - wall_start
                if errors:  # pragma: no cover - the bench must be clean
                    raise RuntimeError(f"service bench failed: {errors[0]}")
                runs.append(
                    {
                        "clients": n_clients,
                        "requests": len(latencies),
                        "failed": 0,
                        "p50_s": _median(latencies),
                        "p99_s": float(np.percentile(latencies, 99)),
                        "throughput_rps": (
                            len(latencies) / wall if wall > 0 else float("inf")
                        ),
                    }
                )

            # Connection reuse: one client, the same request stream, with
            # a fresh TCP connection per call vs one kept-alive socket.
            reuse_rows = []
            for keep_alive in (False, True):
                client = ServiceClient(
                    server.url, timeout=120.0, keep_alive=keep_alive
                )
                reuse_latencies: List[float] = []
                for i in range(requests_per_client * 2):
                    shape_id = ids[i % len(ids)]
                    start = time.perf_counter()
                    client.search(shape_id=shape_id, k=k)
                    reuse_latencies.append(time.perf_counter() - start)
                client.close()
                reuse_rows.append(
                    {
                        "keep_alive": keep_alive,
                        "requests": len(reuse_latencies),
                        "p50_s": _median(reuse_latencies),
                        "p99_s": float(np.percentile(reuse_latencies, 99)),
                    }
                )
            cold_p50, warm_p50 = reuse_rows[0]["p50_s"], reuse_rows[1]["p50_s"]
            return {
                "n_shapes": len(ids),
                "k": k,
                "requests_per_client": requests_per_client,
                "max_concurrent": 8,
                "queue_limit": 64,
                "runs": runs,
                "connection_reuse": {
                    "runs": reuse_rows,
                    "p50_speedup": (
                        cold_p50 / warm_p50 if warm_p50 > 0 else float("inf")
                    ),
                },
            }
        finally:
            server.stop()


def bench_scale(
    sizes: Sequence[int] = (1000, 10000, 100000),
    feature_name: str = "principal_moments",
    k: int = 10,
    queries: int = 40,
    seed: int = 42,
) -> Dict[str, object]:
    """Packed-store scaling curve over synthetic-vector corpora.

    Per corpus size: bulk-append build time, process RSS high-water
    (``ru_maxrss`` — monotone across sizes, so the interesting number is
    the delta row to row), packed-store rows/bytes, and k-NN latency
    p50/p99 through the zero-copy linear scan.
    """
    import resource

    from ..datasets.generator import build_synthetic_database

    def rss_mb() -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    rows: List[Dict[str, object]] = []
    for size in sizes:
        build_start = time.perf_counter()
        db = build_synthetic_database(size, seed=seed)
        build_s = time.perf_counter() - build_start
        store = db.matrix_store
        engine = SearchEngine(db)
        ids = db.ids()
        step = max(1, len(ids) // queries)
        query_ids = ids[::step][:queries]
        # Warm the per-generation measure cache (weights + d_max) so the
        # timed loop measures the scan, not one-off setup.
        engine.search_knn(query_ids[0], feature_name, k=k)
        linear = []
        for sid in query_ids:
            start = time.perf_counter()
            engine.search_knn(sid, feature_name, k=k)
            linear.append(time.perf_counter() - start)
        rows.append({
            "n_shapes": size,
            "build_s": build_s,
            "rss_high_water_mb": rss_mb(),
            "store_rows": store.total_rows,
            "store_bytes": store.nbytes,
            "queries": len(query_ids),
            "linear_p50_ms": _median(linear) * 1e3,
            "linear_p99_ms": float(np.percentile(linear, 99)) * 1e3,
        })
        del engine, store, db
    return {
        "feature": feature_name,
        "k": k,
        "seed": seed,
        "sizes": rows,
    }


def bench_cascade(
    sizes: Sequence[int] = (1000, 10000, 100000),
    feature_name: str = "principal_moments",
    k: int = 10,
    pool_factors: Sequence[int] = (2, 4, 8),
    queries: int = 40,
    seed: int = 42,
) -> Dict[str, object]:
    """Staged cascade vs the one-shot linear scan on synthetic corpora.

    Per corpus size: the exact-mode equivalence check (a cascade with a
    full-precision scan must return bitwise-identical ids, distances and
    ordering to ``search_knn``), the quantized
    cascade's recall@k against the linear ground truth as the survivor
    pool grows, and p50/p99 latency of both paths.  Recall measures pool
    membership only — stage 2 recomputes distances at full precision, so
    quantization never distorts a reported distance.
    """
    from ..datasets.generator import build_synthetic_database
    from ..search.cascade import CascadeStrategy, run_cascade

    rows: List[Dict[str, object]] = []
    for size in sizes:
        db = build_synthetic_database(size, seed=seed)
        engine = SearchEngine(db)
        ids = db.ids()
        step = max(1, len(ids) // queries)
        query_ids = ids[::step][:queries]
        # Warm the measure cache and the quantized sidecar so the timed
        # loops measure scans, not one-off builds.
        engine.search_knn(query_ids[0], feature_name, k=k)
        db.quantized_view(feature_name)

        truth = {
            sid: [
                (r.shape_id, r.distance)
                for r in engine.search_knn(sid, feature_name, k=k)
            ]
            for sid in query_ids
        }

        exact_identical = all(
            [
                (r.shape_id, r.distance, r.rank)
                for r in run_cascade(
                    engine,
                    sid,
                    CascadeStrategy.exact(feature_name, k, pool=4 * k),
                ).results
            ]
            == [(i, d, rank + 1) for rank, (i, d) in enumerate(truth[sid])]
            for sid in query_ids
        )

        pools: List[Dict[str, object]] = []
        for factor in pool_factors:
            pool = factor * k
            strategy = CascadeStrategy.default(
                feature_name, k, pool=pool, quantized=True
            )
            hits = 0
            times: List[float] = []
            for sid in query_ids:
                start = time.perf_counter()
                outcome = run_cascade(engine, sid, strategy)
                times.append(time.perf_counter() - start)
                retrieved = {r.shape_id for r in outcome.results}
                hits += len(retrieved & {i for i, _ in truth[sid]})
            pools.append(
                {
                    "pool": pool,
                    "recall_at_k": hits / (k * len(query_ids)),
                    "p50_ms": _median(times) * 1e3,
                    "p99_ms": float(np.percentile(times, 99)) * 1e3,
                }
            )

        linear_times: List[float] = []
        for sid in query_ids:
            start = time.perf_counter()
            engine.search_knn(sid, feature_name, k=k)
            linear_times.append(time.perf_counter() - start)

        column = db.quantized_view(feature_name)
        view = db.feature_view(feature_name)
        rows.append(
            {
                "n_shapes": size,
                "queries": len(query_ids),
                "exact_mode_identical": exact_identical,
                "linear_p50_ms": _median(linear_times) * 1e3,
                "linear_p99_ms": float(np.percentile(linear_times, 99)) * 1e3,
                "quantized_bytes": column.nbytes,
                "packed_bytes": int(view.matrix.nbytes),
                "pools": pools,
            }
        )
        del engine, db
    return {
        "feature": feature_name,
        "k": k,
        "seed": seed,
        "pool_factors": list(pool_factors),
        "sizes": rows,
    }


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------
def run_bench(
    resolution: int = 32,
    n_shapes: int = 16,
    worker_counts: Sequence[int] = (1, 2, 4),
    repeats: int = 3,
    seed: int = 42,
    quick: bool = False,
    scale: bool = False,
    scale_sizes: Optional[Sequence[int]] = None,
    cascade: bool = False,
) -> Dict[str, object]:
    """Run every bench stage and assemble the JSON-ready report.

    ``quick`` shrinks the workload (resolution 12, 6 shapes, workers
    (1, 2), single repeat) for CI smoke runs.  ``scale`` appends the
    synthetic-corpus scaling curve (default sizes 1k/10k/100k; quick
    runs use 500/2000 unless ``scale_sizes`` overrides them).
    ``cascade`` appends the staged-cascade recall/latency curves over
    the same synthetic sizes.
    """
    if quick:
        resolution, n_shapes, worker_counts, repeats = 12, 6, (1, 2), 1

    corpus_full = build_corpus(seed)
    corpus = corpus_full[:n_shapes]
    meshes = [shape.mesh for shape in corpus]
    names = [shape.name for shape in corpus]
    groups = [shape.group for shape in corpus]

    # A handful of topologically distinct solids for the thinning stage:
    # the first member of each of the first four similarity groups.
    thinning_meshes: Dict[str, object] = {}
    seen_groups = set()
    for shape in corpus_full:
        if shape.group is None or shape.group in seen_groups:
            continue
        seen_groups.add(shape.group)
        thinning_meshes[shape.name] = shape.mesh
        if len(thinning_meshes) == 4:
            break

    started = time.time()
    thinning = bench_thinning(thinning_meshes, resolution=resolution, repeats=repeats)
    ingestion = bench_ingestion(
        meshes, names, groups, resolution, worker_counts, repeats=repeats
    )
    db = ingestion.pop("_db")
    query = bench_query(db, repeats=10 if quick else 20)
    service = bench_service(
        db,
        resolution=resolution,
        client_counts=(1, 2) if quick else (1, 4, 16),
        requests_per_client=5 if quick else 25,
    )
    scale_report: Optional[Dict[str, object]] = None
    if scale:
        if scale_sizes is None:
            scale_sizes = (500, 2000) if quick else (1000, 10000, 100000)
        scale_report = bench_scale(
            sizes=tuple(scale_sizes),
            seed=seed,
            queries=10 if quick else 40,
        )
    cascade_report: Optional[Dict[str, object]] = None
    if cascade:
        cascade_sizes = (500, 2000) if quick else (1000, 10000, 100000)
        cascade_report = bench_cascade(
            sizes=cascade_sizes,
            seed=seed,
            queries=10 if quick else 40,
        )

    report = {
        "schema_version": SCHEMA_VERSION,
        "revision": revision(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "elapsed_s": time.time() - started,
        "quick": quick,
        "machine": {
            "platform": platform.platform(),
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "cpu_count": os.cpu_count(),
        },
        "params": {
            "seed": seed,
            "resolution": resolution,
            "n_shapes": n_shapes,
            "worker_counts": list(worker_counts),
            "repeats": repeats,
        },
        "thinning": thinning,
        "ingestion": ingestion,
        "query": query,
        "service": service,
    }
    if scale_report is not None:
        report["scale"] = scale_report
    if cascade_report is not None:
        report["cascade"] = cascade_report
    return report


def write_bench(report: Dict[str, object], path: str) -> None:
    """Write the report as stable, diff-friendly JSON."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")


def format_summary(report: Dict[str, object]) -> str:
    """Human-readable digest of a bench report."""
    thin_part = report["thinning"]
    ing = report["ingestion"]
    query = report["query"]
    lines = [
        f"bench @ {report['revision']} "
        f"(res {report['params']['resolution']}, "
        f"{ing['n_shapes']} shapes, cpu_count={report['machine']['cpu_count']})",
        "",
        f"thinning: median speedup {thin_part['median_speedup']:.1f}x "
        f"(batched vs reference kernel, identical={thin_part['all_identical']})",
    ]
    for row in thin_part["grids"]:
        lines.append(
            f"  {row['grid']:<22s} {row['reference_s'] * 1e3:8.1f} ms -> "
            f"{row['batched_s'] * 1e3:7.1f} ms  ({row['speedup']:.1f}x)"
        )
    lines.append("")
    lines.append(
        f"ingestion: serial {ing['serial_s']:.2f} s "
        f"({ing['serial_shapes_per_s']:.2f} shapes/s)"
    )
    for row in ing["parallel"]:
        lines.append(
            f"  workers={row['workers']}: {row['seconds']:.2f} s "
            f"({row['shapes_per_s']:.2f} shapes/s, "
            f"{row['speedup_vs_serial']:.2f}x vs serial, "
            f"identical={row['identical_to_serial']})"
        )
    lines.append("")
    lines.append(
        f"query ({query['feature']}, k={query['k']}): "
        f"linear scan {query['linear_median_s'] * 1e3:.2f} ms median"
    )
    service = report.get("service")
    if service:
        lines.append("")
        lines.append(
            f"service (HTTP k-NN, k={service['k']}, "
            f"{service['requests_per_client']} requests/client):"
        )
        for row in service["runs"]:
            lines.append(
                f"  clients={row['clients']:2d}: "
                f"p50 {row['p50_s'] * 1e3:6.2f} ms, "
                f"p99 {row['p99_s'] * 1e3:6.2f} ms, "
                f"{row['throughput_rps']:.0f} req/s, "
                f"failed={row['failed']}"
            )
        reuse = service.get("connection_reuse")
        if reuse:
            for row in reuse["runs"]:
                label = "keep-alive" if row["keep_alive"] else "cold conn"
                lines.append(
                    f"  {label}: p50 {row['p50_s'] * 1e3:6.2f} ms, "
                    f"p99 {row['p99_s'] * 1e3:6.2f} ms"
                )
            lines.append(
                f"  connection reuse p50 speedup: {reuse['p50_speedup']:.2f}x"
            )
    scale = report.get("scale")
    if scale:
        lines.append("")
        lines.append(
            f"scale ({scale['feature']}, k={scale['k']}, synthetic corpus):"
        )
        for row in scale["sizes"]:
            lines.append(
                f"  n={row['n_shapes']:>7d}: build {row['build_s']:6.2f} s, "
                f"rss {row['rss_high_water_mb']:7.1f} MB, "
                f"linear p50 {row['linear_p50_ms']:6.2f} ms "
                f"p99 {row['linear_p99_ms']:6.2f} ms"
            )
    cascade = report.get("cascade")
    if cascade:
        lines.append("")
        lines.append(
            f"cascade ({cascade['feature']}, k={cascade['k']}, "
            f"quantized stage-1 scan vs one-shot linear):"
        )
        for row in cascade["sizes"]:
            lines.append(
                f"  n={row['n_shapes']:>7d}: exact-mode identical="
                f"{row['exact_mode_identical']}, linear p50 "
                f"{row['linear_p50_ms']:6.2f} ms p99 "
                f"{row['linear_p99_ms']:6.2f} ms"
            )
            for pool in row["pools"]:
                lines.append(
                    f"    pool={pool['pool']:4d}: recall@{cascade['k']} "
                    f"{pool['recall_at_k']:.3f}, p50 {pool['p50_ms']:6.2f} ms "
                    f"p99 {pool['p99_ms']:6.2f} ms"
                )
    return "\n".join(lines)
