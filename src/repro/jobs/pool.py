"""A reusable pool of killable worker processes.

A wall-clock budget is only enforceable against a process that can be
killed, but one fork, one pipeline construction and one teardown *per
task* is expensive.  This pool keeps the kill switch without the
per-task fork:

* **long-lived workers** — ``workers`` processes are spawned once, each
  builds its state from a picklable ``factory`` and then serves tasks
  over a duplex pipe until told to stop;
* **per-task deadlines** — a supervisor in the parent waits on the
  workers' pipes with a timeout; a worker that blows its deadline is
  SIGKILLed (``Process.kill``) and only *that* worker is respawned —
  every other in-flight task keeps running undisturbed;
* **bounded retries on a fresh worker** — a killed or crashed task is
  requeued up to ``retries`` times, always on a worker that did not just
  die.  Failures the task *returns* (deterministic errors) are retried
  only when their taxonomy code is transient
  (:func:`repro.robust.errors.is_retryable`) — a mesh that fails
  validation fails it identically on every attempt;
* **error isolation** — a task that raises inside the worker sends back
  a :class:`~repro.robust.errors.FailureInfo` and the worker *stays
  alive* for the next task.  Only kills and crashes cost a process.

The pool is generic: anything picklable can be a task.  The feature
pipeline (:mod:`repro.features.parallel`) and the background job runner
(:mod:`repro.jobs.runner`) are the two in-tree clients.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from multiprocessing.connection import Connection
from typing import Any, Callable, Deque, List, Optional, Sequence, Tuple

from ..obs import get_registry
from ..robust.errors import FailureInfo, classify_exception, is_retryable

__all__ = ["TaskResult", "WorkerPool"]

#: Sent to a worker instead of a task to make it exit its serve loop.
_SHUTDOWN = None


@dataclass
class TaskResult:
    """Outcome of one pooled task (in submission order from :meth:`map`).

    Exactly one of ``value`` / ``failure`` is meaningful: ``failure`` is
    ``None`` on success.  ``attempts`` counts executions consumed,
    including the final one (> 1 after a timeout/crash retry).
    """

    index: int
    value: Any = None
    failure: Optional[FailureInfo] = None
    attempts: int = 1

    @property
    def ok(self) -> bool:
        return self.failure is None


def _worker_main(factory: Callable[[], Callable[[Any], Any]], conn: Connection) -> None:
    """Serve loop of one pool worker.

    Builds the per-worker state once (``handler = factory()``), then
    answers ``(task_id, payload)`` messages with
    ``(task_id, result, failure)`` until EOF or a shutdown sentinel.
    Exceptions raised by the handler are classified and *returned*, so a
    deterministic task error never costs the process.
    """
    # Worker metrics would shadow the parent's registry; keep them off.
    get_registry().disable()
    try:
        handler = factory()
    except Exception:
        conn.close()
        raise
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        if message is _SHUTDOWN or message is None:
            break
        task_id, payload = message
        try:
            result = handler(payload)
            reply = (task_id, result, None)
        except Exception as exc:
            reply = (task_id, None, classify_exception(exc))
        try:
            conn.send(reply)
        # repro-lint: disable=RPL001 -- parent end of the pipe is gone;
        except Exception:
            break  # nothing left to serve, so the worker just exits
    conn.close()


@dataclass
class _Worker:
    """Parent-side handle of one live worker process."""

    proc: Any
    conn: Any
    #: Queue index of the task this worker is running (None = idle).
    task: Optional[int] = None
    attempt: int = 1
    deadline: Optional[float] = None

    @property
    def busy(self) -> bool:
        return self.task is not None


class WorkerPool:
    """Persistent killable worker processes behind a ``map`` interface.

    Parameters
    ----------
    factory:
        Picklable zero-argument callable, executed *inside* each worker
        once at spawn; its return value is the task handler
        (``handler(payload) -> result``).  Using a factory keeps
        expensive per-worker state (e.g. a feature pipeline's extractor
        objects) out of every task message.
    workers:
        Number of worker processes (>= 1).  Workers are spawned lazily
        and reused across :meth:`map` calls until :meth:`close`.
    task_timeout:
        Per-task wall-clock budget in seconds.  ``None`` disables
        deadline enforcement (workers are still crash-isolated).
    retries:
        Extra attempts after a timeout, crash, or *retryable* returned
        failure — always on a fresh (or at least different) worker.
        Permanent failure codes short-circuit the budget.
    name:
        Metrics prefix (counters ``<name>.tasks``, ``<name>.timeouts``,
        ``<name>.crashes``, ``<name>.respawns``, ``<name>.retries``).
    """

    def __init__(
        self,
        factory: Callable[[], Callable[[Any], Any]],
        workers: int = 1,
        task_timeout: Optional[float] = None,
        retries: int = 1,
        name: str = "pool",
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if task_timeout is not None and task_timeout <= 0:
            raise ValueError(f"task_timeout must be > 0, got {task_timeout}")
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        self.factory = factory
        self.workers = int(workers)
        self.task_timeout = task_timeout
        self.retries = int(retries)
        self.name = name
        self._pool: List[_Worker] = []
        self._closed = False
        #: Workers killed or crashed over the pool's lifetime.
        self.respawns = 0

    # -- lifecycle ----------------------------------------------------
    def _spawn(self) -> _Worker:
        import multiprocessing as mp

        ctx = mp.get_context()
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        proc = ctx.Process(
            target=_worker_main,
            args=(self.factory, child_conn),
            daemon=True,
        )
        proc.start()
        child_conn.close()
        return _Worker(proc=proc, conn=parent_conn)

    def _discard(self, worker: _Worker, kill: bool = True) -> None:
        """Remove a worker from the pool, killing it if still alive."""
        if worker in self._pool:
            self._pool.remove(worker)
        if kill and worker.proc.is_alive():
            worker.proc.kill()
        try:
            worker.conn.close()
        except OSError:
            pass
        worker.proc.join(timeout=5)
        self.respawns += 1
        get_registry().inc(f"{self.name}.respawns")

    def close(self) -> None:
        """Shut every worker down (idempotent; pool unusable after)."""
        self._closed = True
        for worker in list(self._pool):
            try:
                worker.conn.send(_SHUTDOWN)
            except (OSError, ValueError):
                pass
        for worker in list(self._pool):
            worker.proc.join(timeout=2)
            if worker.proc.is_alive():
                worker.proc.kill()
                worker.proc.join(timeout=5)
            try:
                worker.conn.close()
            except OSError:
                pass
        self._pool = []

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __del__(self) -> None:  # best-effort; daemon workers die anyway
        try:
            self.close()
        # repro-lint: disable=RPL001 -- finalizer during interpreter
        except Exception:
            pass  # teardown; raising here would mask the real exit path

    @property
    def alive_workers(self) -> int:
        return sum(1 for w in self._pool if w.proc.is_alive())

    # -- task execution -----------------------------------------------
    def map(self, payloads: Sequence[Any]) -> List[TaskResult]:
        """Run every payload through the pool; results in input order.

        Blocks until all tasks finish (successfully, with a returned
        failure, or by exhausting their retry budget).  The pool stays
        warm afterwards for the next call.
        """
        if self._closed:
            raise RuntimeError("pool is closed")
        payloads = list(payloads)
        metrics = get_registry()
        results: List[Optional[TaskResult]] = [None] * len(payloads)
        if not payloads:
            return []
        queue: Deque[Tuple[int, int]] = deque(
            (i, 1) for i in range(len(payloads))
        )
        max_attempts = 1 + self.retries

        def record_failure(index: int, attempt: int, failure: FailureInfo) -> None:
            results[index] = TaskResult(
                index=index, failure=failure, attempts=attempt
            )

        def retry_or_fail(
            index: int, attempt: int, failure: FailureInfo
        ) -> None:
            if attempt < max_attempts and is_retryable(failure.code):
                metrics.inc(f"{self.name}.retries")
                queue.append((index, attempt + 1))
            else:
                record_failure(index, attempt, failure)

        from multiprocessing.connection import wait as connection_wait

        while queue or any(w.busy for w in self._pool):
            # Prune workers that died while idle (e.g. between map calls)
            # so they never block a respawn slot.
            for dead in [
                w
                for w in self._pool
                if not w.busy and not w.proc.is_alive()
            ]:
                self._discard(dead, kill=False)
            # Feed idle workers, spawning up to the pool size as needed.
            while queue:
                idle = next(
                    (w for w in self._pool if not w.busy and w.proc.is_alive()),
                    None,
                )
                if idle is None:
                    if len(self._pool) >= self.workers:
                        break
                    idle = self._spawn()
                    self._pool.append(idle)
                index, attempt = queue.popleft()
                try:
                    idle.conn.send((index, payloads[index]))
                except (OSError, ValueError):
                    # Worker died before it could accept work: replace it
                    # and requeue the task without burning an attempt.
                    self._discard(idle)
                    queue.appendleft((index, attempt))
                    continue
                idle.task = index
                idle.attempt = attempt
                idle.deadline = (
                    time.monotonic() + float(self.task_timeout)
                    if self.task_timeout is not None
                    else None
                )

            busy = [w for w in self._pool if w.busy]
            if not busy:
                continue
            deadlines = [w.deadline for w in busy if w.deadline is not None]
            wait_for = None
            if deadlines:
                wait_for = max(0.0, min(deadlines) - time.monotonic())
            ready = connection_wait([w.conn for w in busy], timeout=wait_for)
            by_conn = {w.conn: w for w in busy}
            for conn in ready:
                worker = by_conn[conn]
                index, attempt = worker.task, worker.attempt
                try:
                    _task_id, value, failure = conn.recv()
                except (EOFError, OSError):
                    # Crash mid-task: replace the worker, maybe retry.
                    metrics.inc(f"{self.name}.crashes")
                    exitcode = getattr(worker.proc, "exitcode", None)
                    self._discard(worker)
                    retry_or_fail(
                        index,
                        attempt,
                        FailureInfo(
                            stage="extract",
                            code="extract.worker_crash",
                            message=(
                                f"pool worker died without reporting "
                                f"(exit code {exitcode}, attempt {attempt})"
                            ),
                        ),
                    )
                    continue
                worker.task = None
                worker.deadline = None
                metrics.inc(f"{self.name}.tasks")
                if failure is not None:
                    retry_or_fail(index, attempt, failure)
                else:
                    results[index] = TaskResult(
                        index=index, value=value, attempts=attempt
                    )
            # Deadline sweep: SIGKILL expired workers, respawn lazily.
            if self.task_timeout is not None:
                now = time.monotonic()
                for worker in [w for w in self._pool if w.busy]:
                    if worker.deadline is not None and worker.deadline <= now:
                        index, attempt = worker.task, worker.attempt
                        metrics.inc(f"{self.name}.timeouts")
                        self._discard(worker)
                        retry_or_fail(
                            index,
                            attempt,
                            FailureInfo(
                                stage="extract",
                                code="extract.timeout",
                                message=(
                                    f"task timed out after "
                                    f"{self.task_timeout:.1f}s "
                                    f"(attempt {attempt}); worker killed"
                                ),
                            ),
                        )
        assert all(r is not None for r in results)
        return results  # type: ignore[return-value]

    def run(self, payload: Any) -> TaskResult:
        """Run a single task (convenience wrapper over :meth:`map`)."""
        return self.map([payload])[0]
