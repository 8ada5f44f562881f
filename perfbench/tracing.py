"""Span recorder and traced launcher for the per-layer run.

Run as a program, this module starts the real CLI entry point with the
layers' public functions wrapped by span recorders::

    python3 perfbench/tracing.py SPANS.json -- serve DIR --port 0

Each wrapper replaces the function at the import site its caller uses
(``repro.features.base.voxelize``, ``repro.service.server.decode_request``,
a method on its class, ...), so the program's code is unchanged.  A span
holds name, start, end, parent span and request id; the request id is
assigned when ``decode_request`` is entered.  Spans stay in memory and
are written to ``SPANS.json`` when the command returns.

``SIGUSR1`` toggles the wrappers off and on again (the originals are
restored while off), so one server process can serve an untraced phase
and a traced phase; each toggle prints ``perfbench-trace on|off``.
"""

from __future__ import annotations

import importlib
import itertools
import json
import os
import signal
import sys
import threading
import time
import types
from typing import Any, Callable, Dict, List, Optional, Tuple

Probe = Optional[Callable[[tuple, Any, Any], Any]]
Pre = Optional[Callable[[tuple], Any]]


def _n_occupied(args: tuple, result: Any, before: Any) -> Any:
    return int(result.n_occupied)


def _node_accesses_before(args: tuple) -> Any:
    return args[0].node_accesses


def _node_accesses_delta(args: tuple, result: Any, before: Any) -> Any:
    return int(args[0].node_accesses - before)


def _rows_scored(args: tuple, result: Any, before: Any) -> Any:
    return int(len(args[2]))


def _cascade_reports(args: tuple, result: Any, before: Any) -> Any:
    return [
        [r.kind, r.path, int(r.candidates_in), float(r.elapsed_ms)]
        for r in result.reports
    ]


def _hits(args: tuple, result: Any, before: Any) -> Any:
    return len(args[0].hits)


def _input_bytes(args: tuple, result: Any, before: Any) -> Any:
    return len(args[0])


def _output_bytes(args: tuple, result: Any, before: Any) -> Any:
    return len(result)


#: (span name, module, attribute path at the import site, probe, pre-hook).
#: ``service.parse``/``service.serialize`` wrap the ``json`` module as
#: the server module sees it; ``db.get`` is counted, not timed (it is
#: part of result building, whose time belongs to the caller's span).
PROBES: List[Tuple[str, str, str, Probe, Pre]] = [
    ("service.handle", "repro.service.server", "_RequestHandler._handle_search", None, None),
    ("service.parse", "repro.service.server", "json.loads", _input_bytes, None),
    ("service.decode", "repro.service.server", "decode_request", None, None),
    ("service.encode", "repro.service.server", "encode_response", _hits, None),
    ("service.serialize", "repro.service.server", "json.dumps", _output_bytes, None),
    ("search", "repro.core.system", "ThreeDESS.search", None, None),
    ("search.knn", "repro.search.engine", "SearchEngine.search_knn", None, None),
    ("search.threshold", "repro.search.engine", "SearchEngine.search_threshold", None, None),
    ("search.rerank", "repro.search.engine", "SearchEngine.rerank", None, None),
    ("search.cascade", "repro.search.api", "run_cascade", _cascade_reports, None),
    ("search.resolve", "repro.search.engine", "SearchEngine.resolve_query_vector", None, None),
    ("search.measure", "repro.search.engine", "SearchEngine.measure", None, None),
    ("search.distances", "repro.search.similarity", "SimilarityMeasure.distances", _rows_scored, None),
    ("index.nearest", "repro.index.rtree", "RTree.nearest", _node_accesses_delta, _node_accesses_before),
    ("index.within_radius", "repro.index.rtree", "RTree.radius_search", _node_accesses_delta, _node_accesses_before),
    ("index.insert", "repro.index.rtree", "RTree.insert", None, None),
    ("db.load", "repro.db.database", "ShapeDatabase.load", None, None),
    ("db.load_records", "repro.db.database", "load_records", None, None),
    ("db.save", "repro.db.database", "ShapeDatabase.save", None, None),
    ("features.extract", "repro.features.pipeline", "FeaturePipeline.extract", None, None),
    ("features.extract", "repro.features.pipeline", "FeaturePipeline.extract_partial", None, None),
    ("features.extract", "repro.features.pipeline", "FeaturePipeline.extract_one", None, None),
    ("moments.normalize", "repro.features.base", "normalize", None, None),
    ("moments.central", "repro.moments.normalization", "central_moments_up_to", None, None),
    ("moments.central", "repro.moments.invariants", "central_moments_up_to", None, None),
    ("moments.central", "repro.features.principal_moments", "central_moments_up_to", None, None),
    ("voxel.voxelize", "repro.features.base", "voxelize", _n_occupied, None),
    ("skeleton.thin", "repro.features.base", "thin", _n_occupied, None),
    ("skeleton.graph", "repro.features.base", "build_skeletal_graph", None, None),
    ("skeleton.spectrum", "repro.features.eigenvalues", "spectrum", None, None),
    ("geometry.load_mesh", "repro.geometry.io", "load_mesh", None, None),
    ("jobs.extract_batch", "repro.features.parallel", "ParallelPipeline.extract_batch", None, None),
]

#: Counted per request instead of timed.
COUNTED: List[Tuple[str, str, str]] = [
    ("db.get", "repro.db.database", "ShapeDatabase.get"),
]

#: The span whose entry starts a new request.
REQUEST_START = "service.decode"


class Tracer:
    """Records spans from wrapped functions into memory."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._sids = itertools.count(1)
        self._rids = itertools.count(1)
        self._local = threading.local()
        self._thread_counts: List[Dict[Tuple[str, int], int]] = []
        self._patches: List[Tuple[Any, str, Any, Any]] = []
        self.enabled = False

    # -- wrappers -------------------------------------------------------
    def _state(self) -> threading.local:
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = [0]
            local.req = 0
            local.counts = {}
            self._thread_counts.append(local.counts)
        return local

    def timed(self, name: str, fn: Callable, probe: Probe, pre: Pre) -> Callable:
        new_request = name == REQUEST_START
        spans = self.spans
        sids = self._sids
        rids = self._rids
        clock = time.perf_counter

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            local = self._state()
            if new_request:
                local.req = next(rids)
            sid = next(sids)
            parent = local.stack[-1]
            local.stack.append(sid)
            before = pre(args) if pre is not None else None
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                local.stack.pop()
                attr = None
                if probe is not None and result is not None:
                    attr = probe(args, result, before)
                spans.append([sid, name, start, end, parent, local.req, attr])

        return wrapper

    def counted(self, name: str, fn: Callable) -> Callable:
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            local = self._state()
            key = (name, local.req)
            local.counts[key] = local.counts.get(key, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    # -- patching -------------------------------------------------------
    def _patch(self, module_name: str, path: str, make: Callable[[Callable], Callable]) -> None:
        module = importlib.import_module(module_name)
        owner_name, _, attr = path.rpartition(".")
        if owner_name == "json":
            owner = module.json
            if not getattr(owner, "_perfbench_proxy", False):
                proxy = types.ModuleType("json")
                proxy.__dict__.update(owner.__dict__)
                proxy._perfbench_proxy = True  # type: ignore[attr-defined]
                self._patches.append((module, "json", owner, proxy))
                module.json = proxy
                owner = proxy
        else:
            owner = module
            for part in owner_name.split(".") if owner_name else []:
                owner = getattr(owner, part)
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, classmethod):
            wrapped: Any = classmethod(make(raw.__func__))
        elif isinstance(raw, staticmethod):
            wrapped = staticmethod(make(raw.__func__))
        else:
            wrapped = make(raw)
        self._patches.append((owner, attr, raw, wrapped))
        setattr(owner, attr, wrapped)

    def install(self) -> None:
        """Wrap every probe target (idempotent: re-installs after remove)."""
        if self._patches:
            for owner, attr, _raw, wrapped in self._patches:
                setattr(owner, attr, wrapped)
        else:
            for name, module, path, probe, pre in PROBES:
                self._patch(
                    module, path,
                    lambda fn, n=name, p=probe, b=pre: self.timed(n, fn, p, b),
                )
            for name, module, path in COUNTED:
                self._patch(module, path, lambda fn, n=name: self.counted(n, fn))
        self.enabled = True

    def remove(self) -> None:
        """Restore the original functions (in reverse patch order)."""
        for owner, attr, raw, _wrapped in reversed(self._patches):
            setattr(owner, attr, raw)
        self.enabled = False

    def toggle(self) -> None:
        if self.enabled:
            self.remove()
        else:
            self.install()
        print(f"perfbench-trace {'on' if self.enabled else 'off'}", flush=True)

    # -- drain ----------------------------------------------------------
    def dump(self, path: str) -> None:
        counts: Dict[str, Dict[str, int]] = {}
        for per_thread in list(self._thread_counts):
            for (name, req), n in list(per_thread.items()):
                bucket = counts.setdefault(name, {})
                bucket[str(req)] = bucket.get(str(req), 0) + n
        payload = {
            "pid": os.getpid(),
            "fields": ["sid", "name", "start", "end", "parent", "req", "attr"],
            "spans": self.spans,
            "counts": counts,
        }
        tmp = f"{path}.tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        os.replace(tmp, path)


def main(argv: List[str]) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print("usage: tracing.py SPANS.json -- <three-dess arguments>", file=sys.stderr)
        return 2
    out_path, cli_args = argv[0], argv[2:]
    from repro.cli import main as cli_main

    tracer = Tracer()
    tracer.install()
    signal.signal(signal.SIGUSR1, lambda signum, frame: tracer.toggle())
    try:
        return int(cli_main(cli_args))
    finally:
        tracer.remove()
        tracer.dump(out_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
