"""Workload inputs and their oracles.

Every input derives from the ``--seed``; the program only ever sees the
generated corpus directories and requests.  Oracles are computed before
timing, in this process, with the program's own exact code paths.
"""

from __future__ import annotations

import os
import random
import shutil
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from harness import GENERATOR_CPUS, pin_generator, run_program
from speed import SpeedLog

FEATURES = ["moment_invariants", "geometric_params", "principal_moments", "eigenvalues"]
GEOMETRY_FEATURES = FEATURES[:3]
K = 10
THRESHOLD = 0.95
#: Mode mix of the shape-id workloads.
SHAPE_MIX = (("knn", 0.6), ("threshold", 0.2), ("cascade", 0.2))
#: recall@10 of the default quantized cascade against the exact scan,
#: recorded when the benchmark was defined.
CASCADE_RECALL_FLOOR = 1.0

#: Synthetic rows of the scan corpus: (full, tiny) — tiny is the smoke-test scale.
SCAN_ROWS = {"full": 2_000, "tiny": 200}
#: Ingested shapes whose stored vectors are re-extracted in-process.
BITWISE_SHAPES = 4
#: Every QBE_ORACLE_EVERY-th timed query-by-example is checked against
#: in-process ``ThreeDESS.search``; the rest get structural checks.
QBE_ORACLE_EVERY = 16
#: Every QBE_GEOMETRY_EVERY-th query by example uses a geometry-only
#: feature, the others ``eigenvalues``.  A 50/50 mix would put p50 in
#: the gap between the fast geometry mode (3-6 ms) and the full-pipeline
#: mode (~30 ms), where it jumps from run to run.
QBE_GEOMETRY_EVERY = 4
#: Voxel resolution of the paper corpus (the ``build-db``/``serve`` default).
RESOLUTION = 24

#: Fixed open-loop arrival rates (req/s), well below the closed-loop
#: throughput measured at the commit that defined the benchmark, which
#: moved with the machine's speed: at most a quarter on scan-2k (~250-600
#: req/s) and on qbe-113 (~30-55 req/s; its full-pipeline requests take
#: 20-150 ms each).  Closer to
#: saturation, a slow spell of the shared 2-CPU machine makes the queue
#: and p50 jump: scan p50 went from 7 to 45 ms at half, qbe-113 p50
#: ranged 38-75 ms across seeds at a third.  On qbe-113 even 8 req/s let
#: enough requests overlap on serve's CPU that p50 spread 0.42 of its
#: median across seeds, against 0.09 at 6 req/s.
OPEN_RATE = {"scan-2k": 60.0, "qbe-113": 6.0}
#: Times ``serve`` is started per run; ``setup_s`` is their median.  A
#: scan-2k start takes ~8 s, a qbe-113 start ~1 s; two scan-2k starts
#: leave time for longer timed phases within the run budget.
SETUP_REPEATS = {"scan-2k": 2, "qbe-113": 3}
#: Times the corpus is ingested per run; ``ingest_shapes_per_s`` is the
#: median rate.  A qbe-113 ``build-db`` takes ~4 s, a scan-2k save ~0.6 s.
#: Each ingest, and each speed sample around it, starts after
#: ``os.sync()`` (untimed), so that it does not compete with the
#: write-back of the one before: without it the scan-2k rate was ~20%
#: lower and spread ~1.7x as far.
INGEST_REPEATS = {"scan-2k": 12, "qbe-113": 5}
#: build-db workers (the container has 2 CPUs).
BUILD_WORKERS = 2

WORKLOADS = ("scan-2k", "qbe-113")


@dataclass
class Request:
    """One search call: client kwargs plus what the answer must be."""

    call: Dict[str, Any]
    mode: str
    feature: str
    #: [(shape_id, rank)] for shape-id queries, [(shape_id, rank, distance)]
    #: for mesh queries; None = structural check only.
    expect: Optional[List[tuple]] = None
    #: Exact top-k ids for the cascade's recall check.
    exact_ids: Optional[List[int]] = None


@dataclass
class Prepared:
    """A workload ready to serve: corpus directory, requests and checks."""

    db_dir: str
    warmup: List[Request]
    open_requests: List[Request]
    closed_requests: List[Request]
    closed_cycle: bool
    check: Callable[[Request, Dict[str, Any]], str]
    #: Shapes/s of each timed ingest, and the machine's speed during
    #: them (``speed.py``); ``ingest_shapes_per_s`` is their median over it.
    ingest_rates: List[float]
    ingest_speed: float
    ingest_peak_rss_mb: float
    rows: int
    #: name -> (ok, detail) for checks made outside the request stream.
    checks: Dict[str, Tuple[bool, str]] = field(default_factory=dict)
    #: Per-layer numbers measured during preparation (db.save_s, ...).
    layer: Dict[str, float] = field(default_factory=dict)
    #: Span files written by traced preparation commands.
    span_files: List[str] = field(default_factory=list)


def check_shape_query(request: Request, response: Dict[str, Any]) -> str:
    """Shape-id queries: ids and ranks equal the exact scan's; the
    cascade's recall@k stays at the recorded floor."""
    pairs = [(int(h["shape_id"]), int(h["rank"])) for h in response.get("hits", [])]
    if request.mode != "cascade":
        return "ok" if pairs == request.expect else "wrong"
    exact = request.exact_ids or []
    got = [sid for sid, _ in pairs]
    recall = len(set(got) & set(exact)) / max(1, len(exact))
    ranked = [rank for _, rank in pairs] == list(range(1, len(pairs) + 1))
    ok = ranked and len(got) == len(exact) and recall >= CASCADE_RECALL_FLOOR
    return "ok" if ok else "wrong"


def check_mesh_query(request: Request, response: Dict[str, Any], ids: frozenset) -> str:
    """Mesh queries: equal to in-process ``ThreeDESS.search`` where the
    answer was computed, else k ranked hits of known ids, nearest first."""
    hits = response.get("hits", [])
    if request.expect is not None:
        got = [(int(h["shape_id"]), int(h["rank"]), float(h["distance"])) for h in hits]
        return "ok" if got == request.expect else "wrong"
    dists = [float(h["distance"]) for h in hits]
    valid = (
        [int(h["rank"]) for h in hits] == list(range(1, K + 1))
        and all(int(h["shape_id"]) in ids for h in hits)
        and all(a <= b for a, b in zip(dists, dists[1:]))
    )
    return "ok" if valid else "wrong"


def _pick_mode(rng: random.Random) -> str:
    r, acc = rng.random(), 0.0
    for mode, share in SHAPE_MIX:
        acc += share
        if r < acc:
            return mode
    return SHAPE_MIX[-1][0]


def _shape_request(mode: str, feature: str, sid: int) -> Request:
    call: Dict[str, Any] = {"shape_id": sid, "mode": mode, "feature_name": feature, "k": K}
    if mode == "threshold":
        call["threshold"] = THRESHOLD
    return Request(call=call, mode=mode, feature=feature)


def shape_requests(seed: int, ids: List[int], count: int) -> Tuple[List[Request], List[Request]]:
    """(warm-up over every (mode, feature) pair, ``count`` timed requests)."""
    rng = random.Random(f"{seed}/shape-requests")
    warm = [
        _shape_request(mode, feature, rng.choice(ids))
        for mode, _ in SHAPE_MIX for feature in FEATURES
    ]
    timed = [
        _shape_request(_pick_mode(rng), rng.choice(FEATURES), rng.choice(ids))
        for _ in range(count)
    ]
    return warm, timed


def attach_exact_oracle(engine: Any, requests: List[Request]) -> None:
    """Answers from the program's exact scan (``use_index=False``)."""
    memo: Dict[Tuple[str, str, int], List[Tuple[int, int]]] = {}
    for req in requests:
        sid = req.call["shape_id"]
        key = ("threshold" if req.mode == "threshold" else "knn", req.feature, sid)
        if key not in memo:
            if key[0] == "threshold":
                exact = engine.search_threshold(sid, req.feature, THRESHOLD, use_index=False)
            else:
                exact = engine.search_knn(sid, req.feature, k=K, use_index=False)
            memo[key] = [(r.shape_id, r.rank) for r in exact]
        if req.mode == "cascade":
            req.exact_ids = [i for i, _ in memo[key]]
        else:
            req.expect = memo[key]


def tail_percentile(workload: str, open_s: float) -> int:
    """Highest of p99/p95/p90/p80 that leaves at least ten of the expected
    open-loop samples beyond it."""
    expected = OPEN_RATE[workload] * open_s
    for q in (99, 95, 90):
        if expected * (100 - q) / 100 >= 10:
            return q
    return 80


def open_count(workload: str, open_s: float) -> int:
    """Upper bound on open-loop arrivals (Poisson count + 6 sigma)."""
    mean = OPEN_RATE[workload] * open_s
    return int(mean + 6 * mean ** 0.5 + 16)


def dir_bytes(path: str) -> int:
    total = 0
    for base, _dirs, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(base, name))
    return total


# ----------------------------------------------------------------------
def prepare_scan(seed: int, work: str, scale: str, open_s: float, speed: SpeedLog) -> Prepared:
    """Synthetic vector corpus, saved for ``serve``.

    The corpus is built once, untimed; its ingest rate is rows over the
    time of ``ShapeDatabase.save`` writing it, once per repeat.  The
    saves run in this process, pinned to the load generator's CPU, and
    are scaled by that CPU's speed.
    """
    from repro.datasets import build_synthetic_database
    from repro.search.engine import SearchEngine

    rows = SCAN_ROWS[scale]
    db = build_synthetic_database(rows, seed=seed)
    saves: List[float] = []
    pin_generator()
    first = len(speed.samples)
    for i in range(INGEST_REPEATS["scan-2k"]):
        db_dir = os.path.join(work, f"scan-db{i}")
        if i:
            shutil.rmtree(os.path.join(work, f"scan-db{i - 1}"))
        os.sync()
        speed.take()
        start = time.perf_counter()
        db.save(db_dir)
        saves.append(time.perf_counter() - start)
    os.sync()
    speed.take()
    warm, timed = shape_requests(seed, db.ids(), open_count("scan-2k", open_s))
    attach_exact_oracle(SearchEngine(db), warm + timed)
    prepared = Prepared(
        db_dir=db_dir, warmup=warm, open_requests=timed, closed_requests=timed,
        closed_cycle=True, check=check_shape_query,
        ingest_rates=[rows / t for t in saves],
        ingest_speed=speed.since(first, GENERATOR_CPUS),
        ingest_peak_rss_mb=0.0, rows=rows,
    )
    prepared.layer["db.save_s"] = statistics.median(saves)
    prepared.layer["db.bytes_per_shape"] = dir_bytes(db_dir) / rows
    return prepared


def _mesh_wire(mesh: Any) -> Dict[str, Any]:
    return {"vertices": mesh.vertices.tolist(), "faces": mesh.faces.tolist(), "name": mesh.name}


def ingest_corpus(seed: int, work: str, trace_dir: Optional[str], speed: SpeedLog,
                  checks: Dict[str, Tuple[bool, str]]
                  ) -> Tuple[str, List[float], float, float, List[str]]:
    """Write ``build_corpus(seed)`` as OFF files and ingest them with
    ``build-db --from-dir`` (timed; traced once in a traced run).

    Returns (database directory, shapes/s of each build, the machine's
    speed during the builds, peak RSS MB, span files).  The ingest
    checks land in ``checks``.
    """
    import numpy as np

    from repro.datasets.generator import build_corpus
    from repro.db.database import ShapeDatabase
    from repro.features.pipeline import FeaturePipeline
    from repro.geometry.io import load_mesh, save_off

    in_dir = os.path.join(work, "corpus-off")
    os.makedirs(in_dir)
    paths = []
    for i, shape in enumerate(build_corpus(seed)):
        path = os.path.join(in_dir, f"{i:03d}_{shape.name}.off")
        save_off(shape.mesh, path)
        paths.append(path)

    log = os.path.join(work, "build-db.log")
    rates, peak, span_files = [], 0.0, []
    repeats = 1 if trace_dir else INGEST_REPEATS["qbe-113"]
    first = len(speed.samples)
    for i in range(repeats):
        db_dir = os.path.join(work, f"qbe-db{i}")
        spans = os.path.join(trace_dir, "build-db.json") if trace_dir else None
        os.sync()
        speed.take()
        built = run_program(
            ["build-db", db_dir, "--from-dir", in_dir, "--workers", str(BUILD_WORKERS)],
            log, timeout=120.0, spans=spans,
        )
        rates.append(len(paths) / built.wall_s)
        peak = max(peak, built.peak_rss_mb)
        if spans:
            span_files.append(spans)
    os.sync()
    speed.take()
    ingest_speed = speed.since(first)
    if trace_dir:
        # The serial extract-span sum behind jobs.parallel_efficiency needs
        # a serial traced pass: the parallel pass extracts in worker
        # processes the tracer does not see.
        serial = os.path.join(trace_dir, "build-db-serial.json")
        serial_dir = os.path.join(work, "qbe-db-serial")
        run_program(["build-db", serial_dir, "--from-dir", in_dir, "--workers", "0"],
                    log, timeout=120.0, spans=serial)
        shutil.rmtree(serial_dir)
        span_files.append(serial)

    db = ShapeDatabase.load(db_dir, load_meshes=False, strict=True)
    checks["ingest.shape_count"] = (len(db) == len(paths), f"{len(db)} of {len(paths)} shapes")
    by_name = {rec.name: rec for rec in db}
    pipeline = FeaturePipeline(voxel_resolution=RESOLUTION)
    equal = 0
    sample = paths[:: len(paths) // BITWISE_SHAPES][:BITWISE_SHAPES]
    for path in sample:
        expected = pipeline.extract(load_mesh(path))
        record = by_name.get(os.path.splitext(os.path.basename(path))[0])
        if record is not None and set(expected) == set(record.features) and all(
            np.array_equal(ShapeDatabase._canon(vec).view(np.uint32),
                           np.asarray(record.features[fname]).view(np.uint32))
            for fname, vec in expected.items()
        ):
            equal += 1
    checks["ingest.bitwise_vectors"] = (equal == len(sample), f"{equal} of {len(sample)} equal")
    return db_dir, rates, ingest_speed, peak, span_files


def prepare_qbe(seed: int, work: str, open_s: float, closed_s: float,
                trace_dir: Optional[str], speed: SpeedLog) -> Prepared:
    """The 113-shape paper corpus ingested via ``build-db``; fresh mesh queries."""
    from repro.core.system import ThreeDESS
    from repro.datasets.generator import stream_corpus
    from repro.geometry.mesh import TriangleMesh
    from repro.search.api import SearchRequest

    checks: Dict[str, Tuple[bool, str]] = {}
    db_dir, rates, ingest_speed, peak, span_files = ingest_corpus(seed, work, trace_dir, speed, checks)
    system = ThreeDESS.load(db_dir, load_meshes=False)
    rows = len(system.database)
    ids = frozenset(system.database.ids())

    n_open = open_count("qbe-113", open_s)
    n_closed = int(closed_s * 100) + 16
    n_warm = len(FEATURES)
    rng = random.Random(f"{seed}/qbe-features")
    wires = [
        _mesh_wire(shape.mesh)
        for batch in stream_corpus(n_warm + n_open + n_closed, seed=seed + 1)
        for shape in batch
    ]

    def request(i: int, feature: str) -> Request:
        call = {"mesh": wires[i], "mode": "knn", "feature_name": feature, "k": K}
        return Request(call=call, mode="knn", feature=feature)

    def timed_feature(i: int) -> str:
        return rng.choice(GEOMETRY_FEATURES) if i % QBE_GEOMETRY_EVERY == 0 else "eigenvalues"

    warm = [request(i, f) for i, f in enumerate(FEATURES)]
    timed = [request(n_warm + i, timed_feature(i)) for i in range(n_open)]
    closed = [request(n_warm + n_open + i, timed_feature(i)) for i in range(n_closed)]
    for req in warm + timed[::QBE_ORACLE_EVERY]:
        wire = req.call["mesh"]
        mesh = TriangleMesh(wire["vertices"], wire["faces"], name=wire["name"])
        response = system.search(SearchRequest(query=mesh, feature_name=req.feature, k=K))
        req.expect = [(h.shape_id, h.rank, h.distance) for h in response.hits]

    prepared = Prepared(
        db_dir=db_dir, warmup=warm, open_requests=timed, closed_requests=closed,
        closed_cycle=False, check=lambda req, resp: check_mesh_query(req, resp, ids),
        ingest_rates=rates, ingest_speed=ingest_speed, ingest_peak_rss_mb=peak,
        rows=rows, checks=checks, span_files=span_files,
    )
    prepared.layer["db.bytes_per_shape"] = dir_bytes(db_dir) / rows
    return prepared


def prepare(workload: str, seed: int, work: str, scale: str, open_s: float,
            closed_s: float, trace_dir: Optional[str], speed: SpeedLog) -> Prepared:
    if workload == "scan-2k":
        return prepare_scan(seed, work, scale, open_s, speed)
    return prepare_qbe(seed, work, open_s, closed_s, trace_dir, speed)
