#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at tiny sizes (about two minutes).

    python3 perfbench/smoke.py

For every workload, with ``--trace 0`` and ``--trace 1``, it checks that
the run succeeds and that its last line names every metric of
``BENCHMARK.json`` with its unit. It checks that a corrupted oracle makes
the run fail, and that a directory holding only ``BENCHMARK.json`` and
``perfbench/`` makes it exit non-zero without a result. Exits 1 on the
first failed check.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402


def run(args: List[str], cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def last_json(proc: subprocess.CompletedProcess) -> Dict:
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else {}


def fail(message: str, proc: subprocess.CompletedProcess) -> None:
    print(f"FAIL: {message}\n--- stdout\n{proc.stdout[-2000:]}\n--- stderr\n{proc.stderr[-2000:]}")
    sys.exit(1)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    declared = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    if [w["name"] for w in bench["workloads"]] != list(WORKLOADS):
        print(f"FAIL: BENCHMARK.json workloads {bench['workloads']} != {WORKLOADS}")
        return 1
    tiny = ["--scale", "tiny", "--seconds", "2", "--seed", "3"]
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = run(["--workload", workload, "--trace", str(trace), *tiny])
            result = last_json(proc)
            if proc.returncode != 0 or result.get("correct") is not True:
                fail(f"{workload} trace {trace} did not pass", proc)
            if result["attempted"] < 1 or result["failed"] != 0:
                fail(f"{workload} trace {trace}: attempted/failed {result}", proc)
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            missing = {k: u for k, u in declared[trace].items() if printed.get(k) != u}
            if missing:
                fail(f"{workload} trace {trace}: metrics missing or with another unit: {missing}", proc)
            print(f"ok   {workload} trace {trace}: {len(printed)} metrics")
        proc = run(["--workload", workload, "--corrupt-oracle", *tiny])
        if proc.returncode == 0 or last_json(proc).get("correct") is not False:
            fail(f"{workload}: a corrupted oracle did not fail the run", proc)
        print(f"ok   {workload}: corrupted oracle fails the run (exit {proc.returncode})")

    bare = os.path.join(HERE, "_work", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("_work", "__pycache__"))
        proc = run(["--workload", WORKLOADS[0], *tiny], cwd=bare)
        if proc.returncode == 0 or proc.stdout.strip():
            fail("a checkout without src/ produced a result", proc)
        print(f"ok   bare directory exits {proc.returncode} without a result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
