"""Command-line interface to the 3DESS reproduction.

Subcommands::

    three-dess build-db DIR          build + persist the evaluation corpus
    three-dess query DIR MESH        query-by-example against a saved DB
    three-dess browse DIR            print the drill-down hierarchy
    three-dess experiment NAME       run one (or "all") paper experiments
    three-dess stats                 profile a self-contained insert+query run
    three-dess verify DIR            integrity-check a saved DB (exit 6 on damage)
    three-dess serve DIR             run the concurrent HTTP query service
    three-dess jobs run DIR          heal degraded records via the job queue
    three-dess jobs watch DIR        periodically drain the job queue (sidecar)
    three-dess jobs status DIR       show the job queue's state
    three-dess lint [PATHS...]       project static analysis (RPL rules)

``query`` can also run against a live daemon instead of loading the
database locally: ``three-dess query --server http://HOST:PORT DIR MESH``
(see ``docs/SERVICE.md``).

Experiments print exactly the rows/series the benchmark harness checks.
``build-db``, ``query``, and ``experiment`` accept ``--profile`` to print
the per-stage metrics table (see ``docs/OBSERVABILITY.md``) after the run.

Exit codes are members of :class:`ExitCode` (see ``docs/ROBUSTNESS.md``)::

    0  success
    1  lint found unsuppressed findings
    2  usage error (argparse)
    3  validation / data error (bad mesh, corrupt database, ...)
    4  internal error
    5  build-db completed, but some inputs were quarantined
    6  verify found integrity problems
    7  jobs run left failed or dead jobs behind
    8  serve could not start (bind failure, bad service options)
    9  query --server could not reach the daemon
"""

from __future__ import annotations

import argparse
import enum
import os
import sys
from typing import List, Optional

from . import obs
from .core.system import ThreeDESS
from .datasets.generator import build_database, load_or_build_database
from .evaluation import experiments as exps
from .robust import chaos
from .robust.errors import ReproError, classify_exception
from .robust.quarantine import QuarantineItem, QuarantineReport
from .search.api import SearchRequest
from .search.engine import SearchEngine

EXPERIMENT_NAMES = ["fig4", "fig7", "fig8-12", "fig13-14", "fig15", "fig16", "rtree"]

class ExitCode(enum.IntEnum):
    """CLI exit codes: kept distinct so scripts can tell bad *data*
    (retry with other inputs) from bad *software* (file a bug).

    The RPL003 lint rule enforces that every exit path uses a member of
    this enum, never a numeric literal.
    """

    OK = 0
    LINT_FINDINGS = 1
    USAGE = 2
    DATA = 3
    INTERNAL = 4
    QUARANTINED = 5
    INTEGRITY = 6
    JOBS_FAILED = 7
    SERVER = 8
    UNAVAILABLE = 9


# Backward-compatible module-level aliases (pre-enum spelling).
EXIT_OK = ExitCode.OK
EXIT_USAGE = ExitCode.USAGE
EXIT_DATA = ExitCode.DATA
EXIT_INTERNAL = ExitCode.INTERNAL
EXIT_QUARANTINED = ExitCode.QUARANTINED
EXIT_INTEGRITY = ExitCode.INTEGRITY
EXIT_JOBS_FAILED = ExitCode.JOBS_FAILED
EXIT_SERVER = ExitCode.SERVER
EXIT_UNAVAILABLE = ExitCode.UNAVAILABLE


def _collect_mesh_files(directory: str) -> List[str]:
    from .geometry.io import supported_formats

    exts = set(supported_formats())
    out = [
        os.path.join(directory, name)
        for name in sorted(os.listdir(directory))
        if os.path.splitext(name)[1].lower() in exts
    ]
    if not out:
        raise ReproError(
            f"{directory}: no mesh files ({'/'.join(sorted(exts))}) found",
            code="cli.empty_input_dir",
        )
    return out


def _cmd_build_db(args: argparse.Namespace) -> int:
    from .features.pipeline import FeaturePipeline

    report = QuarantineReport()
    if args.from_dir:
        from .geometry.io import load_mesh

        paths = _collect_mesh_files(args.from_dir)
        meshes, names, sources = [], [], {}
        for i, path in enumerate(paths):
            try:
                mesh = load_mesh(path)
            except Exception as exc:
                info = classify_exception(exc)
                report.add(
                    QuarantineItem(
                        index=i,
                        name=os.path.basename(path),
                        stage=info.stage,
                        code=info.code,
                        message=info.message,
                        digest=info.digest,
                        source=path,
                    )
                )
                if args.on_error == "fail":
                    print(f"error: {path}: {info.format()}", file=sys.stderr)
                    return ExitCode.DATA
                continue
            sources[len(meshes)] = path
            meshes.append(mesh)
            names.append(os.path.splitext(os.path.basename(path))[0])
        pipeline = FeaturePipeline(voxel_resolution=args.resolution)
        if args.cache_dir:
            from .features.cache import CachingPipeline, PersistentFeatureStore

            pipeline = CachingPipeline(
                pipeline, store=PersistentFeatureStore(args.cache_dir)
            )
        from .db.database import ShapeDatabase

        db = ShapeDatabase(pipeline)
        result = db.insert_meshes(
            meshes,
            names=names,
            workers=args.workers,
            timeout=args.timeout,
            retries=args.retries,
        )
        for err in result.errors:
            report.add(
                QuarantineItem(
                    index=err.index,
                    name=err.name,
                    stage=err.stage,
                    code=err.code,
                    message=err.message,
                    digest=err.digest,
                    source=sources.get(err.index),
                )
            )
        if result.errors and args.on_error == "fail":
            print(report.summary(), file=sys.stderr)
            return ExitCode.DATA
        print(f"ingested {result.summary()}")
    else:
        db = build_database(
            seed=args.seed,
            voxel_resolution=args.resolution,
            workers=args.workers,
            feature_cache_dir=args.cache_dir,
        )
    db.save(args.directory)
    extra = f", {args.workers} workers" if args.workers > 1 else ""
    print(f"built {len(db)} shapes -> {args.directory}{extra}")
    if report:
        print(report.summary())
        if args.on_error == "quarantine-dir":
            qdir = args.quarantine_dir or f"{args.directory}.quarantine"
            path = report.write(qdir)
            print(f"quarantine report -> {path}")
            return ExitCode.QUARANTINED
    return ExitCode.OK


def _cmd_bench(args: argparse.Namespace) -> int:
    from .evaluation import bench

    worker_counts = tuple(int(w) for w in args.workers.split(",") if w.strip())
    report = bench.run_bench(
        resolution=args.resolution,
        n_shapes=args.shapes,
        worker_counts=worker_counts,
        repeats=args.repeats,
        seed=args.seed,
        quick=args.quick,
        scale=args.scale or args.scale_sizes is not None,
        scale_sizes=(
            tuple(int(s) for s in args.scale_sizes.split(",") if s.strip())
            if args.scale_sizes
            else None
        ),
        cascade=args.cascade,
    )
    output = args.output if args.output else bench.default_output_path()
    bench.write_bench(report, output)
    print(bench.format_summary(report))
    print(f"\nreport written -> {output}")
    return ExitCode.OK


def _print_hit_table(rows: List[dict], path: str, suffix: str = "") -> None:
    """Shared rank/id/similarity/name table of ``query`` (local + server)."""
    print(f"{'rank':>4s} {'id':>5s} {'similarity':>10s}  name")
    for row in rows:
        flag = "  [degraded]" if row["degraded"] else ""
        print(
            f"{row['rank']:4d} {row['shape_id']:5d} {row['similarity']:10.4f}  "
            f"{row['name']}{flag}"
        )
    print(f"({len(rows)} hits via {path} path{suffix})")


def _cmd_query(args: argparse.Namespace) -> int:
    from .geometry.io import load_mesh

    if args.server:
        from .service.client import ServiceClient, ServiceError, ServiceUnavailableError

        mesh = load_mesh(args.mesh)
        client = ServiceClient(args.server)
        try:
            response = client.search(
                mesh=mesh,
                feature_name=args.feature,
                k=args.k,
                deadline_ms=args.deadline_ms,
            )
        except ServiceUnavailableError as exc:
            print(f"error: [{exc.stage}/{exc.code}] {exc}", file=sys.stderr)
            return ExitCode.UNAVAILABLE
        except ServiceError as exc:
            print(f"error: [{exc.stage}/{exc.code}] {exc}", file=sys.stderr)
            # Shed (503) or timed out (504): the daemon, not the query,
            # was unavailable for this request.
            if exc.status in (503, 504):
                return ExitCode.UNAVAILABLE
            return ExitCode.DATA
        _print_hit_table(
            response["hits"],
            response["path"],
            suffix=f", generation {response['generation']}",
        )
        return ExitCode.OK
    system = ThreeDESS.load(args.directory, load_meshes=False)
    mesh = load_mesh(args.mesh)
    response = system.search(
        SearchRequest(query=mesh, mode="knn", feature_name=args.feature, k=args.k)
    )
    rows = [
        {
            "rank": hit.rank,
            "shape_id": hit.shape_id,
            "similarity": hit.similarity,
            "name": hit.name,
            "degraded": hit.degraded,
        }
        for hit in response.hits
    ]
    _print_hit_table(rows, response.path)
    return ExitCode.OK


def _cmd_browse(args: argparse.Namespace) -> int:
    system = ThreeDESS.load(args.directory, load_meshes=False)
    root = system.browse_hierarchy(args.feature)

    def show(node, indent: int) -> None:
        rep = system.database.get(node.representative_id).name
        print(f"{'  ' * indent}[{node.size:3d} shapes] rep: {rep}")
        for child in node.children:
            show(child, indent + 1)

    show(root, 0)
    return ExitCode.OK


def _cmd_render(args: argparse.Namespace) -> int:
    from .geometry.io import load_mesh
    from .viewer import render_mesh, render_to_svg, save_ppm

    if args.shape_id is not None:
        system = ThreeDESS.load(args.directory, load_meshes=True)
        mesh = system.database.get(args.shape_id).mesh
        if mesh is None:
            print(f"shape {args.shape_id} has no stored geometry")
            return ExitCode.USAGE
    else:
        mesh = load_mesh(args.directory)  # the positional arg is a mesh file
    if args.output.lower().endswith(".svg"):
        render_to_svg(mesh, args.output, size=args.size)
    else:
        save_ppm(render_mesh(mesh, size=args.size), args.output)
    print(f"rendered -> {args.output}")
    return ExitCode.OK


def _cmd_sketch(args: argparse.Namespace) -> int:
    from .descriptors import match_drawing
    from .viewer import load_ppm

    system = ThreeDESS.load(args.directory, load_meshes=False)
    if "view_hu" not in system.database.feature_names():
        print(
            "database has no 'view_hu' features; rebuild it with the "
            "view-based descriptor enabled"
        )
        return ExitCode.USAGE
    image = load_ppm(args.drawing)
    mask = image.mean(axis=2) > args.threshold
    if mask.mean() > 0.5:
        mask = ~mask  # dark-on-light sketches
    results = match_drawing(
        SearchEngine(system.database), mask, k=args.k
    )
    print(f"{'rank':>4s} {'id':>5s} {'distance':>9s}  name")
    for r in results:
        print(f"{r.rank:4d} {r.shape_id:5d} {r.distance:9.4f}  {r.name}")
    return ExitCode.OK


def _cmd_stats(args: argparse.Namespace) -> int:
    """A self-contained profiling run: insert a few parts (one duplicated,
    so the feature cache records a hit), query by example, print the
    per-stage metrics table."""
    from .core.config import SystemConfig
    from .geometry.primitives import box, cylinder, tube

    registry = obs.get_registry()
    registry.enable()
    registry.reset()

    system = ThreeDESS(
        SystemConfig(voxel_resolution=args.resolution, feature_cache=True)
    )
    system.insert(box((40, 30, 10)), name="base_plate", group="plates")
    system.insert(box((40, 30, 10)), name="base_plate_copy", group="plates")
    system.insert(cylinder(8, 40), name="spacer_rod", group="rods")
    system.insert(tube(12, 8, 10), name="bushing")
    system.search(SearchRequest(query=box((41, 29, 10.5)), mode="knn", k=args.k))

    print("profiled 4 inserts (1 cache hit) + 1 query-by-example\n")
    print(system.stats_table())
    return ExitCode.OK


def _cmd_lint(args: argparse.Namespace) -> int:
    """Delegate to :mod:`repro.lint.cli` (exit 0 clean / 1 findings)."""
    from .lint.cli import main as lint_main

    argv: List[str] = list(args.paths)
    if args.format != "text":
        argv += ["--format", args.format]
    if args.select:
        argv += ["--select", args.select]
    if args.ignore:
        argv += ["--ignore", args.ignore]
    if args.list_rules:
        argv.append("--list-rules")
    if args.baseline:
        argv += ["--baseline", args.baseline]
    if args.baseline_write:
        argv += ["--baseline-write", args.baseline_write]
    return lint_main(argv)


def _default_queue_path(directory: str) -> str:
    """Journal path for a database directory's job queue.

    Sibling of the directory (``<DIR>.jobs.jsonl``), never inside it:
    saving a database atomically swaps the whole directory, which would
    destroy an in-dir journal.
    """
    return os.path.normpath(os.fspath(directory)) + ".jobs.jsonl"


def _cmd_verify(args: argparse.Namespace) -> int:
    from .db.storage import verify_database

    problems = verify_database(args.directory)
    if not problems:
        print(f"{args.directory}: ok")
        return ExitCode.OK
    record_keys = sorted(k for k in problems if k.startswith("record:"))
    file_keys = sorted(k for k in problems if not k.startswith("record:"))
    for key in file_keys + record_keys:
        print(f"{key}: {problems[key]}")
    damaged_ids = [k.split(":", 1)[1] for k in record_keys]
    summary = f"{args.directory}: {len(problems)} integrity problem(s)"
    if damaged_ids:
        summary += f"; damaged record ids: {', '.join(damaged_ids)}"
    print(summary, file=sys.stderr)
    return ExitCode.INTEGRITY


def _cmd_serve(args: argparse.Namespace) -> int:
    from .service import JobWatcher, QueryServer, SnapshotManager

    snapshots = SnapshotManager(args.directory, strict=not args.salvage)
    try:
        server = QueryServer(
            snapshots,
            host=args.host,
            port=args.port,
            max_concurrent=args.max_concurrent,
            queue_limit=args.queue_limit,
            default_deadline_s=(
                args.default_deadline_ms / 1000.0
                if args.default_deadline_ms
                else None
            ),
            drain_deadline_s=args.drain_deadline,
        )
    except (OSError, ValueError) as exc:
        # Bind failures and bad admission bounds are *server* errors,
        # distinct from bad data (3): the database may be fine.
        print(f"error: cannot start server: {exc}", file=sys.stderr)
        return ExitCode.SERVER
    watcher = None
    if args.watch_jobs:
        queue_path = args.queue or _default_queue_path(args.directory)
        watcher = JobWatcher(
            args.directory,
            queue_path,
            snapshots=snapshots,
            interval=args.watch_interval,
        )
        watcher.start()
        print(f"jobs watcher draining {queue_path} every {args.watch_interval}s")
    host, port = server.address
    snap = snapshots.current
    print(
        f"serving {len(snap.system.database)} shapes "
        f"(generation {snap.generation}) on http://{host}:{port}"
    )
    if snap.dropped_records:
        print(
            f"degraded mode: {snap.dropped_records} record(s) dropped by "
            "salvage load",
            file=sys.stderr,
        )
    try:
        server.serve_forever()
        if server.draining:
            # SIGTERM path: serve_forever returned because the drain
            # completed — a clean, zero-exit shutdown by design.
            print("drained; shutting down")
    except KeyboardInterrupt:
        print("shutting down")
    finally:
        if watcher is not None:
            watcher.stop()
    return ExitCode.OK


def _cmd_jobs(args: argparse.Namespace) -> int:
    from .jobs import JobQueue

    queue_path = args.queue or _default_queue_path(args.directory)
    if args.jobs_command == "watch":
        from .service import JobWatcher

        watcher = JobWatcher(
            args.directory,
            queue_path,
            interval=args.interval,
            max_cycles=args.max_cycles,
        )
        watcher.start()
        try:
            watcher.join()
        except KeyboardInterrupt:
            pass
        finally:
            watcher.stop()
        print(
            f"watched {watcher.cycles_run} cycle(s), "
            f"{watcher.jobs_executed} job(s) executed"
        )
        return ExitCode.OK
    if args.jobs_command == "status":
        queue = JobQueue(queue_path)
        try:
            counts = queue.counts()
            total = len(queue)
            print(f"queue: {queue_path}")
            print(
                f"{total} job(s): "
                + ", ".join(f"{counts.get(s, 0)} {s}" for s in
                            ("pending", "running", "done", "failed", "dead"))
            )
            for job in queue.jobs():
                err = ""
                if job.error:
                    err = f"  [{job.error.get('code', '?')}]"
                print(
                    f"  {job.job_id}  {job.type:<12s} {job.state:<8s} "
                    f"attempts={job.attempts}/{job.max_attempts}"
                    f"  {job.payload}{err}"
                )
        finally:
            queue.close()
        return ExitCode.OK

    # jobs run: heal degraded records of a saved database.
    system = ThreeDESS.load(args.directory, load_meshes=True, strict=False)
    queue = JobQueue(queue_path)
    try:
        queued = system.enqueue_reextraction(queue)
        if queued:
            print(f"{len(queued)} degraded record(s) queued for re-extraction")
        report = system.run_jobs(queue, max_jobs=args.max_jobs)
    finally:
        queue.close()
    print(report.summary())
    if report.done:
        system.save(args.directory)
        print(f"healed database saved -> {args.directory}")
    if not report.ok:
        tail = JobQueue(queue_path)
        try:
            for job_id in report.failed + report.dead:
                job = tail.get(job_id)
                if job is not None and job.error:
                    print(
                        f"  {job_id}: [{job.error.get('code', '?')}] "
                        f"{job.error.get('message', '')}",
                        file=sys.stderr,
                    )
        finally:
            tail.close()
        return ExitCode.JOBS_FAILED
    return ExitCode.OK


def _cmd_experiment(args: argparse.Namespace) -> int:
    db = load_or_build_database(seed=args.seed, voxel_resolution=args.resolution)
    engine = SearchEngine(db)
    if args.output:
        from .evaluation.report import write_report

        write_report(db, args.output, engine=engine)
        print(f"report written -> {args.output}")
        return ExitCode.OK
    wanted = EXPERIMENT_NAMES if args.name == "all" else [args.name]
    for name in wanted:
        if name == "fig4":
            print(exps.exp_group_sizes(db).format())
        elif name == "fig7":
            print(exps.exp_threshold_example(db, engine).format())
        elif name == "fig8-12":
            result = exps.exp_pr_curves(db, engine)
            print(result.format())
            from .evaluation.ascii_plot import ascii_pr_plot

            query_id = result.queries[0]
            curves = {
                fname: result.curves[(query_id, fname)]
                for fname in exps.FEATURE_ORDER
            }
            print(f"\nQuery shape No. 1 ({result.query_groups[0]}):")
            print(ascii_pr_plot(curves))
        elif name == "fig13-14":
            print(exps.exp_multistep_example(db, engine).format())
        elif name == "fig15":
            print(exps.exp_average_recall(db, engine).format())
        elif name == "fig16":
            print(exps.exp_effectiveness_at_10(db, engine).format())
        elif name == "rtree":
            print(exps.exp_rtree_efficiency(db).format())
        else:
            print(f"unknown experiment {name!r}; choose from {EXPERIMENT_NAMES}")
            return ExitCode.USAGE
        print()
    return ExitCode.OK


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="three-dess",
        description="Content-based 3D engineering shape search (ICDE 2004 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    profiled = argparse.ArgumentParser(add_help=False)
    profiled.add_argument(
        "--profile",
        action="store_true",
        help="print the per-stage metrics table after the run",
    )

    p_build = sub.add_parser(
        "build-db",
        help="build and persist the evaluation corpus",
        parents=[profiled],
    )
    p_build.add_argument("directory")
    p_build.add_argument("--seed", type=int, default=42)
    p_build.add_argument("--resolution", type=int, default=24)
    p_build.add_argument(
        "--workers",
        type=int,
        default=0,
        help="worker processes for parallel feature extraction (0 = serial)",
    )
    p_build.add_argument(
        "--cache-dir",
        default=None,
        help="persistent feature-cache directory (makes re-builds incremental)",
    )
    p_build.add_argument(
        "--from-dir",
        default=None,
        help="ingest mesh files (OFF/STL/OBJ/PLY) from this directory "
        "instead of generating the synthetic corpus",
    )
    p_build.add_argument(
        "--on-error",
        choices=["fail", "skip", "quarantine-dir"],
        default="fail",
        help="bad input handling: abort (fail, exit 3), drop with a "
        "summary (skip), or drop and write report.json + offending files "
        "to the quarantine directory (quarantine-dir, exit 5)",
    )
    p_build.add_argument(
        "--quarantine-dir",
        default=None,
        help="quarantine directory for --on-error quarantine-dir "
        "(default: <directory>.quarantine)",
    )
    p_build.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="per-shape extraction wall-clock budget in seconds; hung "
        "extractions are terminated and reported, never deadlocked",
    )
    p_build.add_argument(
        "--retries",
        type=int,
        default=1,
        help="extra attempts after an extraction timeout or worker crash",
    )
    p_build.set_defaults(func=_cmd_build_db)

    p_bench = sub.add_parser(
        "bench",
        help="time thinning/ingestion/query hot paths, write BENCH_<rev>.json",
    )
    p_bench.add_argument("--resolution", type=int, default=32)
    p_bench.add_argument("--shapes", type=int, default=16)
    p_bench.add_argument(
        "--workers",
        default="1,2,4",
        help="comma-separated worker counts for the ingestion scaling stage",
    )
    p_bench.add_argument("--repeats", type=int, default=3)
    p_bench.add_argument("--seed", type=int, default=42)
    p_bench.add_argument(
        "--quick",
        action="store_true",
        help="tiny smoke workload (CI): res 12, 6 shapes, workers 1,2, 1 repeat",
    )
    p_bench.add_argument(
        "--scale",
        action="store_true",
        help="append the packed-store scaling curve (synthetic corpora at "
        "1k/10k/100k shapes; 500/2000 with --quick)",
    )
    p_bench.add_argument(
        "--scale-sizes",
        default=None,
        help="comma-separated corpus sizes for --scale (implies --scale)",
    )
    p_bench.add_argument(
        "--cascade",
        action="store_true",
        help="append the staged-cascade recall@k / latency curves "
        "(synthetic corpora at 1k/10k/100k shapes; 500/2000 with --quick)",
    )
    p_bench.add_argument(
        "--output", default=None, help="output JSON path (default BENCH_<rev>.json)"
    )
    p_bench.set_defaults(func=_cmd_bench)

    p_query = sub.add_parser(
        "query",
        help="query-by-example against a saved database",
        parents=[profiled],
    )
    p_query.add_argument("directory")
    p_query.add_argument("mesh", help="OFF/STL/OBJ file to use as the example")
    p_query.add_argument("--feature", default="principal_moments")
    p_query.add_argument("-k", type=int, default=10)
    p_query.add_argument(
        "--server",
        default=None,
        metavar="URL",
        help="query a running `three-dess serve` daemon at URL instead of "
        "loading the database locally (exit 9 when unreachable)",
    )
    p_query.add_argument(
        "--deadline-ms",
        type=float,
        default=None,
        help="per-request budget for --server queries (server answers 504 "
        "past it)",
    )
    p_query.set_defaults(func=_cmd_query)

    p_serve = sub.add_parser(
        "serve",
        help="serve concurrent shape-search queries over HTTP/JSON "
        "(see docs/SERVICE.md)",
    )
    p_serve.add_argument("directory", help="saved database directory")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument(
        "--port", type=int, default=8707, help="0 picks a free port"
    )
    p_serve.add_argument(
        "--max-concurrent",
        type=int,
        default=8,
        help="search requests executing at once",
    )
    p_serve.add_argument(
        "--queue-limit",
        type=int,
        default=16,
        help="search requests allowed to wait for a slot before the "
        "server sheds load with 503 + Retry-After",
    )
    p_serve.add_argument(
        "--default-deadline-ms",
        type=float,
        default=30000.0,
        help="budget applied to requests that set no deadline_ms "
        "(0 disables the default)",
    )
    p_serve.add_argument(
        "--watch-jobs",
        action="store_true",
        help="also run the background jobs drainer: heal degraded records "
        "through the job queue and reload the snapshot when they heal",
    )
    p_serve.add_argument(
        "--watch-interval",
        type=float,
        default=5.0,
        help="seconds between --watch-jobs drain cycles",
    )
    p_serve.add_argument(
        "--queue",
        default=None,
        help="job journal path for --watch-jobs "
        "(default: <directory>.jobs.jsonl)",
    )
    p_serve.add_argument(
        "--salvage",
        action="store_true",
        help="load the database with strict=False: serve the intact "
        "records of a damaged directory in degraded mode",
    )
    p_serve.add_argument(
        "--drain-deadline",
        type=float,
        default=10.0,
        help="seconds a SIGTERM graceful drain waits for in-flight "
        "requests before stopping anyway",
    )
    p_serve.set_defaults(func=_cmd_serve)

    p_browse = sub.add_parser("browse", help="print the drill-down browse hierarchy")
    p_browse.add_argument("directory")
    p_browse.add_argument("--feature", default="principal_moments")
    p_browse.set_defaults(func=_cmd_browse)

    p_render = sub.add_parser(
        "render", help="render a shape to a PPM/SVG thumbnail"
    )
    p_render.add_argument(
        "directory", help="database directory (with --id) or a mesh file"
    )
    p_render.add_argument("output", help="output image (.ppm or .svg)")
    p_render.add_argument("--id", dest="shape_id", type=int, default=None)
    p_render.add_argument("--size", type=int, default=256)
    p_render.set_defaults(func=_cmd_render)

    p_sketch = sub.add_parser(
        "sketch", help="query by a 2D drawing (binary PPM silhouette)"
    )
    p_sketch.add_argument("directory", help="database with view_hu features")
    p_sketch.add_argument("drawing", help="PPM image of the sketch")
    p_sketch.add_argument("-k", type=int, default=10)
    p_sketch.add_argument(
        "--threshold", type=float, default=128.0, help="binarization level"
    )
    p_sketch.set_defaults(func=_cmd_sketch)

    p_exp = sub.add_parser(
        "experiment", help="run a paper experiment", parents=[profiled]
    )
    p_exp.add_argument("name", choices=EXPERIMENT_NAMES + ["all"])
    p_exp.add_argument("--seed", type=int, default=42)
    p_exp.add_argument("--resolution", type=int, default=24)
    p_exp.add_argument(
        "--output", default=None, help="write a full Markdown report instead"
    )
    p_exp.set_defaults(func=_cmd_experiment)

    p_verify = sub.add_parser(
        "verify",
        help="integrity-check a saved database (manifest + per-record "
        "feature checksums); exit 6 when damage is found",
    )
    p_verify.add_argument("directory")
    p_verify.set_defaults(func=_cmd_verify)

    p_jobs = sub.add_parser(
        "jobs", help="background job queue (re-extraction of degraded records)"
    )
    jobs_sub = p_jobs.add_subparsers(dest="jobs_command", required=True)
    p_jobs_run = jobs_sub.add_parser(
        "run",
        help="queue re-extract jobs for every degraded record and drain "
        "the queue, saving the healed database; exit 7 when jobs remain "
        "failed or dead",
    )
    p_jobs_run.add_argument("directory")
    p_jobs_run.add_argument(
        "--queue",
        default=None,
        help="job journal path (default: <directory>.jobs.jsonl)",
    )
    p_jobs_run.add_argument(
        "--max-jobs",
        type=int,
        default=None,
        help="execute at most this many jobs in this run",
    )
    p_jobs_run.set_defaults(func=_cmd_jobs)
    p_jobs_status = jobs_sub.add_parser(
        "status", help="print the queue's job states without running anything"
    )
    p_jobs_status.add_argument("directory")
    p_jobs_status.add_argument(
        "--queue",
        default=None,
        help="job journal path (default: <directory>.jobs.jsonl)",
    )
    p_jobs_status.set_defaults(func=_cmd_jobs)
    p_jobs_watch = jobs_sub.add_parser(
        "watch",
        help="periodically enqueue + drain re-extract jobs (the sidecar "
        "form of `serve --watch-jobs`); Ctrl-C to stop",
    )
    p_jobs_watch.add_argument("directory")
    p_jobs_watch.add_argument(
        "--queue",
        default=None,
        help="job journal path (default: <directory>.jobs.jsonl)",
    )
    p_jobs_watch.add_argument(
        "--interval", type=float, default=5.0, help="seconds between cycles"
    )
    p_jobs_watch.add_argument(
        "--max-cycles",
        type=int,
        default=None,
        help="stop after this many cycles (for scripts and CI; default: "
        "run until interrupted)",
    )
    p_jobs_watch.set_defaults(func=_cmd_jobs)

    p_lint = sub.add_parser(
        "lint",
        help="run the project static-analysis rules (RPL001-RPL007 and "
        "the flow-sensitive RPL100-RPL102); exit 1 on any unsuppressed, "
        "unbaselined finding",
    )
    p_lint.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: src and "
        "tests/faults.py)",
    )
    p_lint.add_argument("--format", choices=("text", "json"), default="text")
    p_lint.add_argument("--select", metavar="CODES", default=None)
    p_lint.add_argument("--ignore", metavar="CODES", default=None)
    p_lint.add_argument("--list-rules", action="store_true")
    p_lint.add_argument("--baseline", metavar="PATH", default=None)
    p_lint.add_argument("--baseline-write", metavar="PATH", default=None)
    p_lint.set_defaults(func=_cmd_lint)

    p_stats = sub.add_parser(
        "stats",
        help="profile a self-contained insert+query run and print the "
        "per-stage metrics table",
    )
    p_stats.add_argument("--resolution", type=int, default=24)
    p_stats.add_argument("-k", type=int, default=3)
    p_stats.set_defaults(func=_cmd_stats)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point.

    Maps failures onto distinct exit codes so callers can branch on the
    *kind* of failure: :class:`ReproError` (and its whole taxonomy —
    invalid meshes, corrupt databases) exits ``3``; anything else is an
    internal error and exits ``4``.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    # Deterministic fault injection for CI chaos runs: a REPRO_CHAOS
    # env var (inline JSON or a plan-file path) arms the process-wide
    # controller before any command executes.
    chaos.arm_from_env()
    profile = getattr(args, "profile", False)
    if profile:
        obs.get_registry().enable()
        obs.reset()
    try:
        code = args.func(args)
    except ReproError as exc:
        print(f"error: [{exc.stage}/{exc.code}] {exc}", file=sys.stderr)
        return ExitCode.DATA
    except (KeyboardInterrupt, SystemExit):
        raise
    # repro-lint: disable=RPL001 -- process boundary: the unexpected
    except Exception as exc:
        # exception is converted to the documented exit code 4 rather
        # than a traceback, which is this CLI's error contract.
        print(
            f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr
        )
        return ExitCode.INTERNAL
    if profile:
        print()
        print(obs.render_table())
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
