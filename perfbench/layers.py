"""Per-layer metrics from the spans the traced launcher wrote.

A layer's self time is its span's duration minus the time its child
spans cover.  Request-scoped metrics use only requests whose
``service.decode`` span started inside the traced phase's window.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from typing import Any, Dict, Iterable, List, Optional, Tuple

class Span:
    __slots__ = ("sid", "name", "start", "end", "parent", "req", "attr", "children")

    def __init__(self, row: list) -> None:
        self.sid, self.name, self.start, self.end, self.parent, self.req, self.attr = row
        self.children: List["Span"] = []

    @property
    def dur(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.dur - sum(c.dur for c in self.children)


class Trace:
    """Spans of one or more traced processes, linked into trees."""

    def __init__(self, paths: Iterable[str]) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[str, Dict[int, int]] = defaultdict(dict)
        for file_no, path in enumerate(paths):
            with open(path, encoding="utf-8") as fh:
                payload = json.load(fh)
            by_sid: Dict[int, Span] = {}
            spans = [Span(row) for row in payload["spans"]]
            for span in spans:
                by_sid[span.sid] = span
            for span in spans:
                parent = by_sid.get(span.parent)
                if parent is not None:
                    parent.children.append(span)
            # A request's id is assigned at decode entry; the spans of the
            # same handler that started before it inherit it via the root.
            root_req: Dict[int, int] = {}
            for span in spans:
                if span.name == "service.decode":
                    root = span
                    while root.parent in by_sid:
                        root = by_sid[root.parent]
                    root_req[root.sid] = span.req
            for span in spans:
                root = span
                while root.parent in by_sid:
                    root = by_sid[root.parent]
                span.req = root_req.get(root.sid, 0) if root.name == "service.handle" else 0
                if span.req:
                    span.req = (file_no, span.req)
            self.spans.extend(spans)
            for name, per_req in payload.get("counts", {}).items():
                for req, n in per_req.items():
                    self.counts[name][(file_no, int(req))] = n

    def named(self, name: str) -> List[Span]:
        return [s for s in self.spans if s.name == name]


def _median(values: List[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def layer_metrics(trace: Trace, window: Tuple[float, float], wire_p50_ms: float,
                  traced_p50_ms: float, untraced_p50_ms: float, late_p99_ms: float,
                  extra: Dict[str, float]) -> Dict[str, float]:
    """Every per-layer metric; a layer the workload never enters reads 0.

    ``wire_p50_ms`` is the traced phase's p50 from send to answer;
    ``traced_p50_ms``/``untraced_p50_ms`` are the two phases' ``p50_ms``.
    """
    lo, hi = window
    requests = {
        s.req for s in trace.named("service.decode") if lo <= s.start <= hi
    }
    in_window = [s for s in trace.spans if s.req in requests]
    by_req: Dict[Any, List[Span]] = defaultdict(list)
    for s in in_window:
        by_req[s.req].append(s)

    def req_sum(req_spans: List[Span], *names: str) -> float:
        return sum(s.dur for s in req_spans if s.name in names)

    def durations(name: str, spans: Optional[List[Span]] = None) -> List[float]:
        pool = in_window if spans is None else spans
        return [s.dur * 1000.0 for s in pool if s.name == name]

    def self_ms(name: str) -> List[float]:
        return [s.self_time * 1000.0 for s in in_window if s.name == name]

    m: Dict[str, float] = {}
    per_req = list(by_req.values())
    m["service.decode_ms"] = _median([req_sum(r, "service.parse", "service.decode") * 1e3 for r in per_req])
    m["service.encode_ms"] = _median([req_sum(r, "service.encode", "service.serialize") * 1e3 for r in per_req])
    m["service.request_kb"] = _median([s.attr / 1000.0 for s in in_window if s.name == "service.parse" and s.attr])
    m["service.response_kb"] = _median([s.attr / 1000.0 for s in in_window if s.name == "service.serialize" and s.attr])
    inside = _median([
        req_sum(r, "service.parse", "service.decode", "search", "service.encode", "service.serialize") * 1e3
        for r in per_req
    ])
    m["service.outside_ms"] = wire_p50_ms - inside if per_req else 0.0

    m["search.knn_ms"] = _median(durations("search.knn"))
    m["search.threshold_ms"] = _median(durations("search.threshold"))
    m["search.cascade_ms"] = _median(durations("search.cascade"))
    m["search.resolve_ms"] = _median(self_ms("search.resolve"))
    m["search.measure_ms"] = _median(durations("search.measure"))
    m["search.distances_ms"] = _median(durations("search.distances"))
    m["search.knn_self_ms"] = _median(self_ms("search.knn"))
    reports = [s.attr for s in in_window if s.name == "search.cascade" and s.attr]
    m["search.cascade.scan_ms"] = _median([r[3] for rep in reports for r in rep if r[0] == "scan"])
    m["search.cascade.rerank_ms"] = _median([r[3] for rep in reports for r in rep if r[0] == "rerank"])
    rows = sum(s.attr or 0 for s in in_window if s.name == "search.distances")
    rows += sum(r[2] for rep in reports for r in rep if r[1] == "quantized")
    hits = sum(s.attr or 0 for s in in_window if s.name == "service.encode")
    m["search.rows_scored_per_hit"] = rows / hits if hits else 0.0

    m["index.nearest_ms"] = _median(durations("index.nearest"))
    m["index.within_radius_ms"] = _median(durations("index.within_radius"))
    probes = [s for s in in_window if s.name in ("index.nearest", "index.within_radius")]
    m["index.node_accesses_per_query"] = (
        sum(s.attr or 0 for s in probes) / len(probes) if probes else 0.0
    )
    inserts = trace.named("index.insert")
    m["index.insert_s"] = sum(s.dur for s in inserts)
    m["index.insert_calls"] = float(len(inserts))

    m["db.load_s"] = sum(s.dur for s in trace.named("db.load"))
    m["db.load_records_s"] = sum(s.dur for s in trace.named("db.load_records"))
    m["db.save_s"] = sum(s.dur for s in trace.named("db.save"))
    gets = trace.counts.get("db.get", {})
    m["db.get_calls_per_query"] = (
        sum(gets.get(req, 0) for req in requests) / len(requests) if requests else 0.0
    )

    # Query-time extraction, inside the traced requests.
    m["features.extract_ms"] = _median(durations("features.extract"))
    m["features.unattributed_ms"] = _median(self_ms("features.extract"))
    m["moments.normalize_ms"] = _median(durations("moments.normalize"))
    m["moments.central_ms"] = _median(durations("moments.central"))
    m["voxel.voxelize_ms"] = _median(durations("voxel.voxelize"))
    m["voxel.occupied_per_shape"] = _median([float(s.attr) for s in in_window if s.name == "voxel.voxelize" and s.attr is not None])
    m["skeleton.thin_ms"] = _median(durations("skeleton.thin"))
    m["skeleton.graph_ms"] = _median(durations("skeleton.graph"))
    m["skeleton.spectrum_ms"] = _median(durations("skeleton.spectrum"))
    m["skeleton.voxels_per_shape"] = _median([float(s.attr) for s in in_window if s.name == "skeleton.thin" and s.attr is not None])
    # Mesh files are parsed by build-db, outside any request.
    m["geometry.load_mesh_ms"] = _median(durations("geometry.load_mesh", trace.spans))
    m["jobs.parallel_efficiency"] = 0.0

    m["trace.overhead_pct"] = (
        (traced_p50_ms - untraced_p50_ms) / untraced_p50_ms * 100.0 if untraced_p50_ms else 0.0
    )
    m["loadgen.late_p99_ms"] = late_p99_ms
    m.update(extra)
    return m


def parallel_efficiency(parallel: Trace, serial: Trace, workers: int) -> float:
    """Serial extract-span sum / (workers x parallel extract_batch wall)."""
    serial_sum = sum(s.dur for s in serial.named("features.extract"))
    wall = sum(s.dur for s in parallel.named("jobs.extract_batch"))
    return serial_sum / (workers * wall) if wall else 0.0


def blocking_path(trace: Trace, window: Tuple[float, float]) -> Tuple[List[Tuple[str, float]], List[float]]:
    """Mean per-request self time of each span name inside requests, and
    each request's in-server time (ms).

    Self times partition each request's ``service.handle`` span, so the
    entries sum to the mean in-server time of a request.
    """
    lo, hi = window
    requests = {s.req for s in trace.named("service.decode") if lo <= s.start <= hi}
    per_name: Dict[str, Dict[Any, float]] = defaultdict(lambda: defaultdict(float))
    totals: Dict[Any, float] = defaultdict(float)
    for s in trace.spans:
        if s.req in requests:
            per_name[s.name][s.req] += s.self_time * 1000.0
            totals[s.req] += s.self_time * 1000.0
    out = []
    for name, per_req in per_name.items():
        values = [per_req.get(req, 0.0) for req in requests]
        out.append((name, statistics.mean(values) if values else 0.0))
    return sorted(out, key=lambda x: -x[1]), list(totals.values())
