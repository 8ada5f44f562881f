"""Child processes and the load generator.

The program runs as child processes (``python3 -m repro.cli serve|build-db``,
or the same entry point through ``tracing.py``); this process drives
``serve`` over HTTP with :class:`repro.service.client.ServiceClient`, at
most ``CONNECTIONS`` connections at a time.
"""

from __future__ import annotations

import os
import random
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Client connections (the container has 2 CPUs, shared with the server).
CONNECTIONS = 2

#: Per-request socket timeout; a request that exceeds it counts as failed.
REQUEST_TIMEOUT_S = 30.0


def _serving_cpus() -> Tuple[Optional[set], Optional[set]]:
    """(generator CPUs, ``serve`` CPUs) while serving: one CPU each.

    Left free to move, the two processes' threads shared both CPUs and
    closed-loop throughput spread ~2x as far from one run to the next
    as with one CPU each.  ``build-db`` is never pinned: its workers use
    every CPU.  With a single CPU nothing is pinned.
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None, None
    return {cpus[0]}, {cpus[1]}


GENERATOR_CPUS, SERVER_CPUS = _serving_cpus()


def pin_generator() -> None:
    """Keep this process (and the threads it starts later) on its CPU."""
    if GENERATOR_CPUS is not None:
        os.sched_setaffinity(0, GENERATOR_CPUS)


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONUNBUFFERED"] = "1"
    env.pop("REPRO_CHAOS", None)
    return env


def program(args: Sequence[str], spans: Optional[str] = None) -> List[str]:
    """argv for the CLI, or for the traced launcher when ``spans`` is set."""
    if spans is None:
        return [sys.executable, "-m", "repro.cli", *args]
    return [sys.executable, os.path.join(HERE, "tracing.py"), spans, "--", *args]


def wait_rss_mb(proc: subprocess.Popen, timeout: float) -> Tuple[int, float]:
    """Wait for ``proc``; return (exit code, peak RSS in MB).

    The peak comes from ``wait4``'s ``ru_maxrss``, which on Linux is the
    largest RSS of the process or any descendant it reaped (the
    extraction workers of ``build-db``).
    """
    deadline = time.monotonic() + timeout
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid == proc.pid:
            code = os.waitstatus_to_exitcode(status)
            proc.returncode = code
            return code, usage.ru_maxrss / 1024.0
        if time.monotonic() > deadline:
            proc.kill()
            pid, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            raise RuntimeError(f"{' '.join(proc.args[3:5])} did not finish within {timeout:.0f}s")
        time.sleep(0.01)


@dataclass
class Completed:
    wall_s: float
    peak_rss_mb: float


def run_program(args: Sequence[str], log_path: str, timeout: float,
                spans: Optional[str] = None) -> Completed:
    """Run one CLI command to completion; raise on a non-zero exit."""
    with open(log_path, "ab") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(
            program(args, spans), stdout=log, stderr=log, env=child_env(), cwd=ROOT,
        )
        try:
            code, rss = wait_rss_mb(proc, timeout)
        finally:
            if proc.returncode is None:
                proc.kill()
                proc.wait()
        wall = time.perf_counter() - start
    if code != 0:
        raise RuntimeError(f"{' '.join(args[:2])} exited {code}; see {log_path}")
    return Completed(wall, rss)


class Server:
    """One ``serve`` child process on a free port."""

    def __init__(self, db_dir: str, log_path: str, spans: Optional[str] = None,
                 ready_timeout: float = 170.0) -> None:
        self.spawned = time.perf_counter()
        self._log = open(log_path, "ab")
        self.proc = subprocess.Popen(
            program(["serve", db_dir, "--port", "0"], spans),
            stdout=subprocess.PIPE, stderr=self._log, env=child_env(), cwd=ROOT,
        )
        if SERVER_CPUS is not None:
            # Set before the interpreter is up, so every thread serve starts inherits it.
            os.sched_setaffinity(self.proc.pid, SERVER_CPUS)
        self.peak_rss_mb = 0.0
        self.url = ""
        line = self._readline(ready_timeout)
        if " on http://" not in line:
            self.kill()
            raise RuntimeError(f"serve did not start: {line!r}; see {log_path}")
        self.url = line.rsplit(" ", 1)[-1]

    def _readline(self, timeout: float) -> str:
        box: List[bytes] = []
        reader = threading.Thread(
            target=lambda: box.append(self.proc.stdout.readline()), daemon=True
        )
        reader.start()
        reader.join(timeout)
        if not box:
            self.kill()
            raise RuntimeError(f"serve printed nothing within {timeout:.0f}s")
        return box[0].decode("utf-8", "replace").strip()

    def toggle_trace(self, expect: str) -> None:
        """Flip the traced launcher's wrappers; wait for its acknowledgement."""
        self.proc.send_signal(signal.SIGUSR1)
        line = self._readline(10.0)
        if line != f"perfbench-trace {expect}":
            raise RuntimeError(f"trace toggle answered {line!r}")

    def stop(self, timeout: float = 30.0) -> None:
        """Graceful SIGTERM drain; records the peak RSS; raises on a bad exit."""
        if self.proc.returncode is not None:
            return
        try:
            self.proc.send_signal(signal.SIGTERM)
            code, self.peak_rss_mb = wait_rss_mb(self.proc, timeout)
        finally:
            self.kill()
        if code != 0:
            raise RuntimeError(f"serve exited {code} after SIGTERM")

    def kill(self) -> None:
        if self.proc.returncode is None:
            self.proc.kill()
            self.proc.wait()
        if self.proc.stdout:
            self.proc.stdout.close()
        self._log.close()


# ----------------------------------------------------------------------
# load generation
# ----------------------------------------------------------------------
@dataclass
class Outcome:
    """One request: when it was due, sent and answered, and whether it was right."""

    due: float
    sent: float
    done: float
    ok: bool
    kind: str = "ok"  # ok | refused | timeout | error | wrong


@dataclass
class PhaseResult:
    name: str
    start: float
    end: float
    outcomes: List[Outcome] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.outcomes)

    @property
    def failed(self) -> int:
        return sum(1 for o in self.outcomes if not o.ok)

    def failures(self) -> Dict[str, int]:
        """Failure counts by kind."""
        out: Dict[str, int] = {}
        for o in self.outcomes:
            if o.kind != "ok":
                out[o.kind] = out.get(o.kind, 0) + 1
        return out


def _send(client: Any, request: Any, check: Callable[[Any, Dict[str, Any]], str]) -> Tuple[bool, str]:
    from repro.service.client import ServiceError, ServiceUnavailableError

    try:
        response = client.search(**request.call)
        kind = check(request, response)
    except ServiceUnavailableError as exc:
        return False, "timeout" if exc.timed_out else "error"
    except ServiceError as exc:
        if exc.status == 503:
            return False, "refused"
        if exc.status == 504:
            return False, "timeout"
        return False, "error"
    except Exception as exc:  # a sender must record every request, never die
        return False, f"error:{type(exc).__name__}"
    return kind != "wrong", kind


def poisson_schedule(rate: float, duration: float, rng: random.Random) -> List[float]:
    """Arrival offsets of a Poisson process with ``rate`` per second."""
    out: List[float] = []
    t = rng.expovariate(rate)
    while t < duration:
        out.append(t)
        t += rng.expovariate(rate)
    return out


def _client(url: str) -> Any:
    from repro.service.client import ServiceClient

    return ServiceClient(url, timeout=REQUEST_TIMEOUT_S)


def run_sequential(url: str, requests: Sequence[Any], check: Callable) -> PhaseResult:
    """Send requests one by one (warm-up and set-up probes)."""
    result = PhaseResult("sequential", time.perf_counter(), 0.0)
    with _client(url) as client:
        for request in requests:
            t = time.perf_counter()
            ok, kind = _send(client, request, check)
            result.outcomes.append(Outcome(t, t, time.perf_counter(), ok, kind))
    result.end = time.perf_counter()
    return result


def run_open_loop(url: str, requests: Sequence[Any], offsets: Sequence[float],
                  check: Callable) -> PhaseResult:
    """Open loop: request i is due at ``start + offsets[i]``.

    ``CONNECTIONS`` senders take the next due request in order; a request
    whose sender is still busy waits, and that wait counts in its latency
    (timed from the due time, not the send time).
    """
    lock = threading.Lock()
    cursor = [0]
    outcomes: List[Optional[Outcome]] = [None] * len(offsets)
    start = time.perf_counter() + 0.05

    def sender() -> None:
        with _client(url) as client:
            while True:
                with lock:
                    i = cursor[0]
                    cursor[0] += 1
                if i >= len(offsets):
                    return
                due = start + offsets[i]
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                sent = time.perf_counter()
                ok, kind = _send(client, requests[i], check)
                outcomes[i] = Outcome(due, sent, time.perf_counter(), ok, kind)

    _join_all([threading.Thread(target=sender) for _ in range(CONNECTIONS)])
    result = PhaseResult("open", start, time.perf_counter())
    result.outcomes = [o for o in outcomes if o is not None]
    return result


def run_closed_loop(url: str, requests: Sequence[Any], duration: float,
                    check: Callable, cycle: bool) -> PhaseResult:
    """Closed loop: ``CONNECTIONS`` senders back to back for ``duration``.

    With ``cycle`` the request list repeats; without it the phase ends
    early when the list runs out (inputs that must never repeat).
    """
    lock = threading.Lock()
    cursor = [0]
    outcomes: List[Outcome] = []
    start = time.perf_counter()
    stop_at = start + duration

    def sender() -> None:
        with _client(url) as client:
            while time.perf_counter() < stop_at:
                with lock:
                    i = cursor[0]
                    cursor[0] += 1
                if i >= len(requests):
                    if not cycle:
                        return
                    i %= len(requests)
                t = time.perf_counter()
                ok, kind = _send(client, requests[i], check)
                outcome = Outcome(t, t, time.perf_counter(), ok, kind)
                with lock:
                    outcomes.append(outcome)

    _join_all([threading.Thread(target=sender) for _ in range(CONNECTIONS)])
    result = PhaseResult("closed", start, time.perf_counter())
    result.outcomes = outcomes
    return result


def _join_all(threads: List[threading.Thread]) -> None:
    for t in threads:
        t.daemon = True  # a run that hits its deadline must not hang on them
        t.start()
    for t in threads:
        t.join()
