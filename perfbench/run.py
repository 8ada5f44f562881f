#!/usr/bin/env python3
"""3DESS benchmark: one workload, one seed, every metric with its unit.

    python3 perfbench/run.py --workload scan-2k --seed 1 --trace 0
    python3 perfbench/run.py --compare OLD NEW

The program runs as child processes (``serve``, ``build-db``) built from
``src/`` of this checkout; this process generates the inputs from the
seed, checks every answer against an oracle, and prints a report whose
last line is one JSON object.  With ``--trace 0`` it carries the
end-to-end metrics, with ``--trace 1`` the per-layer metrics of a traced
run (see README.md).  Metric names and units, and the default
``--seconds``, come from ``BENCHMARK.json``.  Any wrong, refused or
failed operation makes the run exit 1.  ``--compare`` prints per-layer
and end-to-end ratios of two sets of result files (written to
``perfbench/_work/results/``).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import shutil
import signal
import statistics
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "_work")
RESULTS = os.path.join(WORK, "results")
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")
#: Share of ``--seconds`` given to the open loop; the closed loop gets the
#: rest.  At 0.8 the closed loop's 5 s made qbe-113's throughput spread
#: over a quarter of its median from run to run.
OPEN_SHARE = 0.6
#: A run that is not done by then stops its children and fails.
RUN_DEADLINE_S = 175
#: Timed phases run as slices of about this many seconds, with a sample
#: of the machine's speed (``speed.py``) after each.
SLICE_S = 2.0


class RunTimeout(Exception):
    pass


def _benchmark() -> Dict[str, Any]:
    with open(BENCHMARK, encoding="utf-8") as fh:
        return json.load(fh)


def _units(section: str) -> Dict[str, str]:
    """name -> unit of the metrics declared in one BENCHMARK.json section."""
    return {m["name"]: m["unit"] for m in _benchmark()[section]}


def _git_revision() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        loose = os.path.join(ROOT, ".git", ref)
        if os.path.exists(loose):
            with open(loose, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.strip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _percentile(values: List[float], q: int) -> float:
    """q-th percentile (inclusive method; q in 1..99)."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _phase_facts(phase: Any) -> Dict[str, Any]:
    return {
        "attempted": phase.attempted,
        "failed": phase.failed,
        "failures": phase.failures(),
        "seconds": round(phase.end - phase.start, 4),
    }


def _latency_stats(phase: Any, tail: int) -> Dict[str, float]:
    lat = [(o.done - o.due) * 1000.0 for o in phase.outcomes]
    late = [(o.sent - o.due) * 1000.0 for o in phase.outcomes]
    wire = [(o.done - o.sent) * 1000.0 for o in phase.outcomes]
    tail_ms = _percentile(lat, tail)
    return {
        "p50_ms": _percentile(lat, 50),
        "wire_p50_ms": _percentile(wire, 50),
        "tail_ms": tail_ms,
        "late_p99_ms": _percentile(late, 99),
        "samples": len(lat),
        "beyond_tail": sum(1 for x in lat if x > tail_ms),
    }


def _slices(seconds: float) -> Tuple[int, float]:
    """(count, length) of the slices a phase of ``seconds`` runs as."""
    count = max(1, round(seconds / SLICE_S))
    return count, seconds / count


def run_open_sliced(urls: List[str], requests: List[Any], offsets: List[float],
                    seconds: float, check: Any, speed: Any) -> Tuple[Any, float]:
    """The open loop, one slice of the schedule at a time, the slices
    taking turns among the ``serve`` processes at ``urls``.

    Returns the merged phase and the machine's speed during it.
    """
    import harness

    count, span = _slices(seconds)
    merged = harness.PhaseResult("open", time.perf_counter(), 0.0)
    first = len(speed.samples)
    speed.take()
    for k in range(count):
        idx = [i for i, t in enumerate(offsets) if k * span <= t < (k + 1) * span]
        part = harness.run_open_loop(
            urls[k % len(urls)], [requests[i] for i in idx],
            [offsets[i] - k * span for i in idx], check)
        if k == 0:
            merged.start = part.start
        merged.outcomes.extend(part.outcomes)
        speed.take()
    merged.end = time.perf_counter()
    return merged, speed.since(first)


def run_closed_sliced(urls: List[str], requests: List[Any], seconds: float, check: Any,
                      cycle: bool, speed: Any) -> Tuple[Any, float, float]:
    """The closed loop, one slice at a time, the slices taking turns
    among the ``serve`` processes at ``urls``; each slice continues the
    request list where the previous one stopped.

    Returns the merged phase, the seconds its slices took, and the
    machine's speed during it.
    """
    import harness

    count, span = _slices(seconds)
    merged = harness.PhaseResult("closed", time.perf_counter(), 0.0)
    busy = 0.0
    used = 0
    first = len(speed.samples)
    speed.take()
    for k in range(count):
        if cycle:
            at = used % len(requests)
            todo = requests[at:] + requests[:at]
        else:
            todo = requests[used:]
        part = harness.run_closed_loop(urls[k % len(urls)], todo, span, check, cycle=cycle)
        used += part.attempted
        merged.outcomes.extend(part.outcomes)
        busy += part.end - part.start
        speed.take()
    merged.end = time.perf_counter()
    return merged, busy, speed.since(first)


def _work_dir(args: argparse.Namespace) -> str:
    return os.path.join(WORK, f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}")


def run_workload(args: argparse.Namespace) -> Dict[str, Any]:
    import numpy

    import harness
    import workloads
    from layers import Trace, blocking_path, layer_metrics, parallel_efficiency
    from speed import SpeedLog

    open_s = args.seconds * OPEN_SHARE
    closed_s = args.seconds - open_s
    traced = bool(args.trace)
    work = _work_dir(args)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    trace_dir = os.path.join(work, "spans") if traced else None
    if trace_dir:
        os.makedirs(trace_dir)
    log = os.path.join(work, "program.log")
    servers: List[Any] = []
    phases: Dict[str, Any] = {}
    result: Dict[str, Any] = {}
    speed = SpeedLog()
    try:
        prepared = workloads.prepare(
            args.workload, args.seed, work, args.scale, open_s, closed_s, trace_dir, speed
        )
        if args.corrupt_oracle:
            # Smoke-test hook: a wrong expectation must fail the run.
            target = next(r for r in prepared.open_requests if r.expect is not None)
            target.expect = target.expect[1:] + target.expect[:1]
        check = prepared.check

        # Serving: generator and serve on one CPU each (build-db is done).
        harness.pin_generator()
        # The corpus, requests and oracles are long-lived: keep them out of
        # the generator's garbage collections while it times requests.
        gc.collect()
        gc.freeze()
        # Set-up: spawn serve until its first correct answer, several times.
        # The servers stay up and take turns serving the timed slices: one
        # serve process can run ~10% slower than another on the same
        # machine for its whole life, and taking turns averages that out.
        repeats = 1 if traced else workloads.SETUP_REPEATS[args.workload]
        setups: List[float] = []
        probes = harness.PhaseResult("setup", time.perf_counter(), 0.0)
        spans_serve = os.path.join(trace_dir, "serve.json") if trace_dir else None
        first = len(speed.samples)
        speed.take()
        for i in range(repeats):
            server = harness.Server(prepared.db_dir, log, spans=spans_serve)
            servers.append(server)
            probe = harness.run_sequential(server.url, prepared.warmup[:1], check)
            probes.outcomes.extend(probe.outcomes)
            setups.append(probe.end - server.spawned)
            speed.take()
        probes.end = time.perf_counter()
        phases["setup"] = probes
        # serve runs on its own CPU while it starts; the generator only waits.
        setup_speed = speed.since(first, harness.SERVER_CPUS)
        urls = [s.url for s in servers]
        phases["warmup"] = harness.PhaseResult("warmup", time.perf_counter(), 0.0)
        for url in urls:
            warm = harness.run_sequential(url, prepared.warmup[1:], check)
            phases["warmup"].outcomes.extend(warm.outcomes)
        phases["warmup"].end = time.perf_counter()

        rng = random.Random(f"{args.seed}/arrivals")
        offsets = harness.poisson_schedule(
            workloads.OPEN_RATE[args.workload], open_s, rng
        )[: len(prepared.open_requests)]
        window = (0.0, 0.0)
        if traced:
            server = servers[0]
            server.toggle_trace("off")
            phases["open_untraced"], _ = run_open_sliced(
                urls, prepared.open_requests, offsets, open_s, check, speed)
            server.toggle_trace("on")
            phases["open"], _ = run_open_sliced(
                urls, prepared.open_requests, offsets, open_s, check, speed)
            window = (phases["open"].start, phases["open"].end)
        else:
            phases["open"], open_speed = run_open_sliced(
                urls, prepared.open_requests, offsets, open_s, check, speed)
            phases["closed"], closed_busy, closed_speed = run_closed_sliced(
                urls, prepared.closed_requests, closed_s, check,
                prepared.closed_cycle, speed)
        for s in servers:
            s.stop()
    finally:
        for s in servers:
            s.kill()
        speed.close()

    tail = workloads.tail_percentile(args.workload, open_s)
    open_stats = _latency_stats(phases["open"], tail)
    checks = prepared.checks
    attempted = sum(p.attempted for p in phases.values()) + len(checks)
    failed = sum(p.failed for p in phases.values()) + sum(1 for ok, _ in checks.values() if not ok)
    peak_rss = max([s.peak_rss_mb for s in servers] + [prepared.ingest_peak_rss_mb])
    result["facts"] = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "git_revision": _git_revision(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "cpu_note": (
            f"build-db workers use all {os.cpu_count()} CPUs; while serving, the load "
            f"generator runs on CPUs {sorted(harness.GENERATOR_CPUS or [])} and serve on "
            f"{sorted(harness.SERVER_CPUS or [])}" if harness.SERVER_CPUS
            else f"serve and the load generator share {os.cpu_count()} CPU"),
        "connections": harness.CONNECTIONS,
        "open_rate_rps": workloads.OPEN_RATE[args.workload],
        "open_seconds": open_s,
        "closed_seconds": closed_s,
        "corpus_rows": prepared.rows,
        "setup_repeats": len(setups),
        "setup_s_samples": setups,
        "ingest_shapes_per_s_samples": prepared.ingest_rates,
        "open_samples": open_stats["samples"],
        "tail_percentile": tail,
        "tail_ms": open_stats["tail_ms"],
        "open_samples_beyond_tail": open_stats["beyond_tail"],
        "closed_samples": phases["closed"].attempted if "closed" in phases else 0,
        "phases": {name: _phase_facts(p) for name, p in phases.items()},
        "checks": {name: {"ok": ok, "detail": detail} for name, (ok, detail) in checks.items()},
        "error_rate": failed / attempted,
        "open_latencies_ms": [round((o.done - o.due) * 1000.0, 4) for o in phases["open"].outcomes],
    }
    result["attempted"], result["failed"] = attempted, failed

    result["facts"]["speed_samples"] = speed.means()
    result["facts"]["speed_samples_by_cpu"] = speed.samples
    if not traced:
        measured = {
            "setup_s": statistics.median(setups),
            "p50_ms": open_stats["p50_ms"],
            "throughput_rps": sum(1 for o in phases["closed"].outcomes if o.ok) / closed_busy,
            "ingest_shapes_per_s": statistics.median(prepared.ingest_rates),
        }
        # Gated times are scaled to the reference speed (speed.py): a
        # duration times the machine's speed during its phase, a rate
        # divided by it.  The measured values are kept beside them.
        phase_speed = {
            "setup_s": setup_speed,
            "p50_ms": open_speed,
            "throughput_rps": closed_speed,
            "ingest_shapes_per_s": prepared.ingest_speed,
        }
        result["metrics"] = {
            "setup_s": measured["setup_s"] * setup_speed,
            "p50_ms": measured["p50_ms"] * open_speed,
            "throughput_rps": measured["throughput_rps"] / closed_speed,
            "ingest_shapes_per_s": measured["ingest_shapes_per_s"] / prepared.ingest_speed,
            "peak_rss_mb": peak_rss,
        }
        result["units"] = _units("end_to_end")
        result["facts"]["measured"] = measured
        result["facts"]["phase_speed"] = phase_speed
        return result

    untraced = _latency_stats(phases["open_untraced"], tail)
    main_files = [spans_serve] + [p for p in prepared.span_files if not p.endswith("-serial.json")]
    serial_files = [p for p in prepared.span_files if p.endswith("-serial.json")]
    trace = Trace(main_files)
    metrics = layer_metrics(
        trace, window, open_stats["wire_p50_ms"], open_stats["p50_ms"], untraced["p50_ms"],
        untraced["late_p99_ms"], prepared.layer,
    )
    if serial_files:
        build = Trace([p for p in prepared.span_files if p.endswith("build-db.json")])
        metrics["jobs.parallel_efficiency"] = parallel_efficiency(
            build, Trace(serial_files), workloads.BUILD_WORKERS)
    result["metrics"] = metrics
    result["units"] = _units("per_layer")
    result["facts"]["untraced_p50_ms"] = untraced["p50_ms"]
    result["facts"]["traced_p50_ms"] = open_stats["p50_ms"]
    if serial_files:
        result["facts"]["parallel_efficiency_serial_spans_from"] = (
            "an extra traced build-db --workers 0 pass over the same files")
    table, in_server = blocking_path(trace, window)
    result["facts"]["blocking_path_mean_self_ms"] = table
    result["facts"]["traced_in_server_p50_ms"] = _percentile(in_server, 50) if in_server else 0.0
    result["facts"]["traced_wire_p50_ms"] = open_stats["wire_p50_ms"]
    return result


def _report(result: Dict[str, Any]) -> None:
    facts = result["facts"]
    print(f"workload {facts['workload']}  seed {facts['seed']}  trace {facts['trace']}  "
          f"rev {facts['git_revision'][:12]}  nproc {facts['nproc']}  "
          f"python {facts['python']}  numpy {facts['numpy']}")
    print(f"  {facts['cpu_note']}; open loop {facts['open_rate_rps']} req/s for "
          f"{facts['open_seconds']:.1f}s ({facts['open_samples']} samples; p{facts['tail_percentile']} "
          f"{facts['tail_ms']:.4f} ms, {facts['open_samples_beyond_tail']} beyond it); "
          + (f"closed loop {facts['connections']} connections for {facts['closed_seconds']:.1f}s "
             f"({facts['closed_samples']} samples)" if facts["closed_samples"]
             else "an untraced then a traced open loop, no closed loop")
          + f"; setup_s median of {facts['setup_repeats']}")
    for name, phase in facts["phases"].items():
        print(f"  phase {name:14s} attempted {phase['attempted']:6d}  failed {phase['failed']}"
              + (f"  {phase['failures']}" if phase["failures"] else ""))
    for name, check in facts["checks"].items():
        print(f"  check {name}: {'ok' if check['ok'] else 'FAILED'} ({check['detail']})")
    print(f"  error_rate {facts['error_rate']:.6f} share ({result['failed']} of {result['attempted']})")
    samples = facts["speed_samples"]
    print(f"  machine speed {min(samples):.3f}-{max(samples):.3f} of the reference "
          f"({len(samples)} samples); gated times are scaled to it, measured values beside them")
    measured, phase_speed = facts.get("measured", {}), facts.get("phase_speed", {})
    for name, value in result["metrics"].items():
        unit = result["units"][name]
        raw = (f"  (measured {measured[name]:.4f} {unit} at speed {phase_speed[name]:.3f})"
               if name in measured else "")
        print(f"  {name:32s} {value:14.4f} {unit}{raw}")
    if "blocking_path_mean_self_ms" in facts:
        if "parallel_efficiency_serial_spans_from" in facts:
            print("  jobs.parallel_efficiency: serial extract spans from "
                  f"{facts['parallel_efficiency_serial_spans_from']}")
        print("  blocking path, mean self time per request in the traced phase:")
        total = 0.0
        for name, ms in facts["blocking_path_mean_self_ms"]:
            total += ms
            print(f"    {name:28s} {ms:10.4f} ms")
        print(f"    {'(sum: mean in-server time)':28s} {total:10.4f} ms")
        # Accounting at p50: the layers' self times sum to a request's
        # in-server time; the rest of the traced p50_ms is spent outside
        # the traced spans (HTTP stack, threads, the generator's wait).
        in_server, wire = facts["traced_in_server_p50_ms"], facts["traced_wire_p50_ms"]
        traced = facts["traced_p50_ms"]
        rest = traced - in_server
        share = rest / traced * 100.0 if traced else 0.0
        overhead = result["metrics"]["trace.overhead_pct"]
        print(f"  accounting at p50: layer self-time sum {in_server:.4f} ms; traced wire p50 "
              f"{wire:.4f} ms (send to answer); traced p50_ms {traced:.4f} ms (due to answer)")
        print(f"    not in any layer span: {rest:.4f} ms = {share:.2f}% of p50_ms "
              f"({wire - in_server:.4f} ms between send and answer, {traced - wire:.4f} ms "
              f"waiting to be sent); trace.overhead_pct {overhead:.2f}% "
              f"({'within' if abs(share) <= abs(overhead) else 'not within'} it)")


def _load_results(path: str) -> Dict[Tuple[str, int], List[Dict[str, Any]]]:
    files = (
        [os.path.join(path, f) for f in sorted(os.listdir(path)) if f.endswith(".json")]
        if os.path.isdir(path) else [path]
    )
    out: Dict[Tuple[str, int], List[Dict[str, Any]]] = {}
    for f in files:
        with open(f, encoding="utf-8") as fh:
            res = json.load(fh)
        out.setdefault((res["facts"]["workload"], res["facts"]["trace"]), []).append(res)
    return out


def compare(old_path: str, new_path: str) -> int:
    """Per-workload ratios new/old of every metric, each with its base."""
    old, new = _load_results(old_path), _load_results(new_path)
    shared = sorted(set(old) & set(new))
    if not shared:
        print("no workload appears in both result sets", file=sys.stderr)
        return 2
    for key in shared:
        workload, trace = key
        kind = "per-layer" if trace else "end-to-end"
        print(f"{workload} ({kind}; {len(old[key])} old run(s), {len(new[key])} new run(s); medians)")
        names = [n for n in old[key][0]["metrics"] if n in new[key][0]["metrics"]]
        for name in names:
            base = statistics.median(r["metrics"][name] for r in old[key])
            value = statistics.median(r["metrics"][name] for r in new[key])
            unit = old[key][0]["units"][name]
            ratio = f"{value / base:8.3f}x" if base else "     n/a "
            print(f"  {name:32s} {ratio}  new {value:12.4f}  base {base:12.4f} {unit}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    parser.add_argument("--scale", choices=["full", "tiny"], default="full",
                        help="tiny = smoke-test corpus sizes")
    parser.add_argument("--corrupt-oracle", action="store_true",
                        help="smoke-test hook: corrupt one expected answer")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not args.workload:
        parser.error("--workload is required")
    if not os.path.isfile(os.path.join(SRC, "repro", "cli.py")):
        print(f"error: program source {SRC}/repro not found", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = float(_benchmark()["run_seconds"])
    sys.path.insert(0, SRC)

    def on_alarm(signum: int, frame: Any) -> None:
        raise RunTimeout(f"run exceeded {RUN_DEADLINE_S}s")

    signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(RUN_DEADLINE_S)
    try:
        result = run_workload(args)
    except Exception as exc:  # boundary: report and fail without a result line
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)
        shutil.rmtree(_work_dir(args), ignore_errors=True)
    os.makedirs(RESULTS, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(RESULTS, name), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    _report(result)
    correct = result["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": value, "unit": result["units"][name]}
            for name, value in result["metrics"].items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
