"""A durable background job queue over a JSON-lines journal.

Background maintenance work — re-extracting degraded records, warming
caches — must survive the process that scheduled it.  The queue
therefore journals every state transition as one appended JSON line::

    {"job_id": "job-000001", "type": "re-extract", "state": "running", ...}

* **Appends are atomic in practice** — each transition is a single
  ``write()`` of one newline-terminated line, flushed and fsynced before
  the in-memory state is considered changed.  A crash can at worst leave
  one *truncated* final line.
* **Replay tolerates exactly that** — on open, the journal is replayed
  newest-snapshot-wins; an undecodable trailing fragment is discarded
  (and counted in :attr:`JobQueue.corrupt_lines`), never fatal.
* **Crash-safe resume** — jobs found ``running`` at replay time were
  interrupted mid-execution; they return to ``pending`` (their attempt
  already counted) or go to ``dead`` if the attempt budget is spent.

States and transitions::

    pending --claim--> running --complete--> done
                          |
                          +--fail--> failed --claim--> running ...
                                        |
                                        +--(attempts exhausted)--> dead

``failed`` jobs are re-claimable (a later run may succeed: the bug was
fixed, the resource came back); ``dead`` jobs are kept for postmortem
but never claimed again.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, TextIO, Union

from ..obs import get_registry
from ..robust.chaos import inject as chaos_inject
from ..robust.errors import FailureInfo

__all__ = ["Job", "JobQueue", "JOB_STATES"]

JOB_STATES = ("pending", "running", "done", "failed", "dead")

#: Default attempt budget per job (first run + retries on later runs).
DEFAULT_MAX_ATTEMPTS = 3


@dataclass
class Job:
    """One unit of background work."""

    job_id: str
    type: str
    payload: Dict[str, object] = field(default_factory=dict)
    state: str = "pending"
    attempts: int = 0
    max_attempts: int = DEFAULT_MAX_ATTEMPTS
    #: ``FailureInfo.to_dict()`` of the most recent failure, if any.
    error: Optional[Dict[str, str]] = None
    created_at: float = 0.0
    updated_at: float = 0.0

    def to_dict(self) -> Dict[str, object]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "Job":
        known = {f for f in cls.__dataclass_fields__}  # tolerate extras
        kwargs = {k: v for k, v in data.items() if k in known}
        return cls(**kwargs)  # type: ignore[arg-type]

    @property
    def finished(self) -> bool:
        return self.state in ("done", "dead")


class JobQueue:
    """Durable FIFO job queue backed by a JSON-lines journal file.

    Parameters
    ----------
    path:
        Journal file.  Created (with parent directories) on first
        enqueue; an existing journal is replayed, resuming interrupted
        jobs (see module docstring).
    """

    def __init__(self, path: Union[str, os.PathLike]) -> None:
        self.path = os.fspath(path)
        self._jobs: Dict[str, Job] = {}
        self._order: List[str] = []  # enqueue order, for FIFO claims
        #: Journal lines discarded as undecodable during replay.
        self.corrupt_lines = 0
        self._handle: Optional[TextIO] = None
        self._next_serial = 1
        if os.path.exists(self.path):
            self._replay()

    # -- journal ------------------------------------------------------
    def _replay(self) -> None:
        # Chaos: a torn fault here truncates the journal mid-record
        # before it is read — the torn-tail tolerance under test.
        chaos_inject("jobs.journal.replay", path=self.path)
        with open(self.path, "r", encoding="utf-8") as handle:
            lines = handle.read().split("\n")
        for line in lines:
            line = line.strip()
            if not line:
                continue
            try:
                data = json.loads(line)
                job = Job.from_dict(data)
            except (json.JSONDecodeError, TypeError, KeyError):
                # A crash mid-append leaves one truncated fragment; any
                # undecodable line is dropped, not fatal.
                self.corrupt_lines += 1
                continue
            if job.job_id not in self._jobs:
                self._order.append(job.job_id)
            self._jobs[job.job_id] = job
            try:
                serial = int(job.job_id.rsplit("-", 1)[-1])
                self._next_serial = max(self._next_serial, serial + 1)
            except ValueError:
                pass
        # Resume: a job journaled as running was interrupted mid-run.
        for job in self._jobs.values():
            if job.state == "running":
                if job.attempts >= job.max_attempts:
                    job.state = "dead"
                    job.error = FailureInfo(
                        stage="jobs",
                        code="jobs.interrupted",
                        message=(
                            "interrupted mid-run with no attempts left"
                        ),
                    ).to_dict()
                else:
                    job.state = "pending"
                self._append(job)

    def _append(self, job: Job) -> None:
        job.updated_at = time.time()
        if self._handle is None:
            parent = os.path.dirname(os.path.abspath(self.path))
            os.makedirs(parent, exist_ok=True)
            self._handle = open(self.path, "a", encoding="utf-8")
        line = json.dumps(job.to_dict(), sort_keys=True)
        self._handle.write(line + "\n")
        self._handle.flush()
        # Chaos: after the flush but before fsync — a torn fault leaves
        # exactly the truncated final line replay must tolerate.
        chaos_inject("jobs.journal.append", path=self.path)
        os.fsync(self._handle.fileno())

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "JobQueue":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- producer side ------------------------------------------------
    def enqueue(
        self,
        job_type: str,
        payload: Optional[Dict[str, object]] = None,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        dedupe: bool = True,
    ) -> Job:
        """Append a new job; returns it.

        With ``dedupe`` (default) an unfinished job with the same type
        and payload is returned instead of enqueueing a duplicate —
        re-running the scheduler over the same database is idempotent.
        """
        payload = dict(payload or {})
        if dedupe:
            for job_id in self._order:
                job = self._jobs[job_id]
                if (
                    job.type == job_type
                    and job.payload == payload
                    and not job.finished
                ):
                    return job
        job = Job(
            job_id=f"job-{self._next_serial:06d}",
            type=job_type,
            payload=payload,
            max_attempts=int(max_attempts),
            created_at=time.time(),
        )
        self._next_serial += 1
        self._jobs[job.job_id] = job
        self._order.append(job.job_id)
        self._append(job)
        get_registry().inc("jobs.enqueued")
        return job

    # -- consumer side ------------------------------------------------
    def peek(self) -> Optional[Job]:
        """The job :meth:`claim` would hand out next, untouched.

        ``pending`` jobs come before ``failed`` retries; None when the
        queue is drained.
        """
        for state in ("pending", "failed"):
            for job_id in self._order:
                job = self._jobs[job_id]
                if job.state == state:
                    return job
        return None

    def claim(self) -> Optional[Job]:
        """Oldest claimable job moved to ``running`` (None when drained).

        ``pending`` jobs are claimed before ``failed`` retries.
        """
        candidate = self.peek()
        if candidate is None:
            return None
        candidate.state = "running"
        candidate.attempts += 1
        self._append(candidate)
        get_registry().inc("jobs.claimed")
        return candidate

    def complete(self, job: Job) -> None:
        """Mark a running job done."""
        self._transition(job, "done")
        job.error = None
        self._append(job)
        get_registry().inc("jobs.completed")

    def fail(self, job: Job, failure: FailureInfo) -> None:
        """Record a failed run: ``failed`` while attempts remain, else
        ``dead``."""
        exhausted = job.attempts >= job.max_attempts
        self._transition(job, "dead" if exhausted else "failed")
        job.error = failure.to_dict()
        self._append(job)
        get_registry().inc("jobs.dead" if exhausted else "jobs.failed")

    def _transition(self, job: Job, state: str) -> None:
        if job.job_id not in self._jobs:
            raise KeyError(f"unknown job {job.job_id!r}")
        if job.state != "running":
            raise ValueError(
                f"job {job.job_id} is {job.state!r}, not running"
            )
        job.state = state

    # -- introspection ------------------------------------------------
    def get(self, job_id: str) -> Job:
        try:
            return self._jobs[job_id]
        except KeyError as exc:
            raise KeyError(f"no job with id {job_id!r}") from exc

    def jobs(self) -> List[Job]:
        """All jobs in enqueue order."""
        return [self._jobs[job_id] for job_id in self._order]

    def counts(self) -> Dict[str, int]:
        """State -> job count (every state present, zeros included)."""
        out = {state: 0 for state in JOB_STATES}
        for job in self._jobs.values():
            out[job.state] += 1
        return out

    def pending_work(self) -> bool:
        """Whether any job is still claimable."""
        return any(
            job.state in ("pending", "failed") for job in self._jobs.values()
        )

    def __len__(self) -> int:
        return len(self._jobs)
