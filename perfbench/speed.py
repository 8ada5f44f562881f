"""The machine's speed, sampled between timed steps.

The benchmark runs on a few CPUs of a shared host.  Other tenants make
those CPUs slower or faster over seconds to minutes: a fixed Python loop
took up to 1.4x longer in one 10-second window than in the next, and
the same code's run-level latency spread by 40-70% of its median from
one run to the next.  No setting inside a run removes that, so every
gated time is also scaled to a fixed reference speed.

A sample times a fixed kernel (a Python loop, and the small NumPy
operations the program's scan and extraction layers use) on the two
CPUs the load generator and ``serve`` run on, both at once: this
process runs it on the first, a helper process (this file run as a
script) on the second.  A CPU's speed is ``REFERENCE_S / time``: 1.0 at
the reference speed, below 1 when the machine is slower.

A phase of the run (the ingests, the set-ups, the open loop, the closed
loop) is sampled before its first step and after each step or slice,
and its times are scaled by the median of those samples over the CPUs
it ran on: a duration is multiplied by it and a rate divided by it.
One sample is noisy (successive samples of one CPU differ by ~16-25%,
and the two CPUs' samples barely correlate), the median of a phase's
samples much less so.  Interleaved with the program's work, the ratio
of the program's speed to the kernel's spread 2-3x less across
10-second windows than the program's speed alone.

    python3 perfbench/speed.py CPU    # the helper (see _helper)
"""

from __future__ import annotations

import os
import statistics
import struct
import subprocess
import sys
import time
from typing import Dict, Iterable, List, Optional

import numpy as np

#: Median seconds of one kernel pass at the reference speed: the
#: machine on which the benchmark was defined (2 vCPUs, Intel Xeon).
REFERENCE_S = 0.0165
#: Kernel passes per CPU per sample; the sample is their median.
PASSES = 8
#: The CPUs sampled: the load generator's and ``serve``'s (harness.py
#: pins them to the first two), read before the generator pins itself.
CPUS = sorted(os.sched_getaffinity(0))[:2]

_rng = np.random.default_rng(0)
_ROWS = _rng.random((2000, 16))
_SYM = _rng.random((60, 60))
_SYM = _SYM + _SYM.T
_GRID = _rng.random((24, 24, 24)) > 0.5


def _kernel() -> None:
    s = 0
    for _ in range(5):
        for i in range(20000):
            s += i * i
    for n in range(10):
        d = ((_ROWS - _ROWS[n]) ** 2).sum(1)
        np.argsort(d)[:10]
        np.linalg.eigvalsh(_SYM)
        np.argwhere(_GRID)


def _speed_on(cpu: int) -> float:
    """Speed of ``cpu``: the calling thread runs the kernel there and
    gets its own affinity back afterwards."""
    own = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {cpu})
    try:
        times = []
        for _ in range(PASSES):
            start = time.perf_counter()
            _kernel()
            times.append(time.perf_counter() - start)
    finally:
        os.sched_setaffinity(0, own)
    return REFERENCE_S / statistics.median(times)


class SpeedLog:
    """Speed samples taken around and between the timed steps of a run.

    Starts the helper for the second CPU; ``close()`` stops it.
    """

    def __init__(self) -> None:
        self.samples: List[Dict[int, float]] = []
        self._helper: Optional[subprocess.Popen] = None
        if len(CPUS) > 1:
            self._helper = subprocess.Popen(
                [sys.executable, os.path.abspath(__file__), str(CPUS[1])],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, bufsize=0,
            )

    def _read(self, n: int) -> bytes:
        data = b""
        while len(data) < n:
            chunk = self._helper.stdout.read(n - len(data))
            if not chunk:
                raise RuntimeError(f"speed helper exited {self._helper.wait()}")
            data += chunk
        return data

    def take(self) -> None:
        helper = self._helper
        if helper is not None:
            helper.stdin.write(b"s")
        speeds = {CPUS[0]: _speed_on(CPUS[0])}
        if helper is not None:
            speeds[CPUS[1]] = struct.unpack("d", self._read(8))[0]
        self.samples.append(speeds)

    def since(self, first: int, cpus: Optional[Iterable[int]] = None) -> float:
        """Median speed of ``samples[first:]``, each the mean over
        ``cpus`` (default: every sampled CPU), the CPUs the steps ran on."""
        chosen = [c for c in cpus if c in CPUS] if cpus is not None else CPUS
        return statistics.median(
            statistics.fmean(s[c] for c in chosen or CPUS) for s in self.samples[first:])

    def means(self) -> List[float]:
        """Each sample's mean over the sampled CPUs."""
        return [statistics.fmean(s.values()) for s in self.samples]

    def close(self) -> None:
        helper, self._helper = self._helper, None
        if helper is None:
            return
        helper.stdin.close()
        try:
            helper.wait(timeout=10)
        except subprocess.TimeoutExpired:
            helper.kill()
            helper.wait()
        helper.stdout.close()


def _helper(cpu: int) -> None:
    """For each byte read from stdin, write the speed of ``cpu`` to stdout."""
    while os.read(0, 1):
        os.write(1, struct.pack("d", _speed_on(cpu)))


if __name__ == "__main__":
    _helper(int(sys.argv[1]))
