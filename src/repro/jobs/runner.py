"""Job execution: drain a :class:`~repro.jobs.queue.JobQueue`.

The runner claims jobs one at a time, dispatches them to the handler
registered for their type, and journals the outcome — ``done`` on
return, ``failed``/``dead`` on exception (classified through the
:mod:`repro.robust` taxonomy, so a job failure carries the same
machine-readable stage/code as an ingestion failure).

The built-in job type is ``re-extract``: re-run full feature extraction
for one degraded record and swap the healed vectors into the database
in place (see :class:`ReextractHandler`).  New job types register with
:meth:`JobRunner.register`; handlers must be module-level picklables
(enforced by the RPL005 lint rule) so they can also cross worker-pool
pipes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Set

from ..obs import get_registry
from ..robust.errors import classify_exception
from .queue import Job, JobQueue

if TYPE_CHECKING:  # pragma: no cover
    from ..db.database import ShapeDatabase

__all__ = [
    "JobRunner",
    "JobRunReport",
    "ReextractHandler",
    "make_reextract_handler",
    "RE_EXTRACT",
]

#: Job type for background re-extraction of degraded records.
RE_EXTRACT = "re-extract"

JobHandler = Callable[[Job], Optional[Dict[str, object]]]


@dataclass
class JobRunReport:
    """Outcome of one :meth:`JobRunner.run` drain."""

    executed: int = 0
    done: List[str] = field(default_factory=list)
    failed: List[str] = field(default_factory=list)
    dead: List[str] = field(default_factory=list)
    #: job_id -> handler result payload for completed jobs.
    results: Dict[str, Dict[str, object]] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """Whether every executed job completed."""
        return not self.failed and not self.dead

    def summary(self) -> str:
        return (
            f"{self.executed} job(s) executed: {len(self.done)} done, "
            f"{len(self.failed)} failed (retryable), {len(self.dead)} dead"
        )


class JobRunner:
    """Dispatch queued jobs to registered handlers.

    Parameters
    ----------
    queue:
        The queue to drain.
    handlers:
        Initial job-type -> handler mapping (extendable via
        :meth:`register`).  A handler receives the :class:`Job` and
        returns an optional JSON-able result dict; raising marks the
        job failed (and eventually dead).
    """

    def __init__(
        self,
        queue: JobQueue,
        handlers: Optional[Dict[str, JobHandler]] = None,
    ) -> None:
        self.queue = queue
        self._handlers: Dict[str, JobHandler] = dict(handlers or {})

    def register(self, job_type: str, handler: JobHandler) -> None:
        self._handlers[job_type] = handler

    def run(self, max_jobs: Optional[int] = None) -> JobRunReport:
        """Claim and execute jobs until the queue drains (or the cap).

        A job claimed more than once in the same drain (``failed`` then
        re-claimed) is executed again only on a *later* call — one drain
        touches each claimable job at most once, so a deterministic
        failure cannot spin the loop.
        """
        metrics = get_registry()
        report = JobRunReport()
        seen: Set[str] = set()
        while max_jobs is None or report.executed < max_jobs:
            candidate = self.queue.peek()
            if candidate is None or candidate.job_id in seen:
                # Drained, or the next claimable job already ran this
                # drain (it failed and is up for retry): stop without
                # claiming so no attempt is burnt by the loop guard.
                break
            job = self.queue.claim()
            seen.add(job.job_id)
            report.executed += 1
            handler = self._handlers.get(job.type)
            with metrics.timed("jobs.job"):
                try:
                    if handler is None:
                        raise KeyError(
                            f"no handler registered for job type "
                            f"{job.type!r} (have {sorted(self._handlers)})"
                        )
                    with metrics.timed(f"jobs.{job.type}"):
                        result = handler(job)
                except Exception as exc:
                    self.queue.fail(job, classify_exception(exc))
                    if job.state == "dead":
                        report.dead.append(job.job_id)
                    else:
                        report.failed.append(job.job_id)
                    continue
            self.queue.complete(job)
            report.done.append(job.job_id)
            if result:
                report.results[job.job_id] = dict(result)
        return report


@dataclass
class ReextractHandler:
    """Handler healing one degraded record per ``re-extract`` job.

    The job payload names the record (``{"shape_id": N}``); the handler
    re-runs *full* extraction over the stored geometry and swaps the
    healed feature vectors into the database in place.
    Raises — failing the job — when the record is gone, carries no
    geometry, or extraction still cannot produce the full set.

    A module-level dataclass (not a closure) so instances are picklable
    and satisfy the RPL005 handler contract.
    """

    database: "ShapeDatabase"

    def __call__(self, job: Job) -> Dict[str, object]:
        shape_id = int(job.payload["shape_id"])
        was_degraded = self.database.get(shape_id).is_degraded()
        self.database.reextract_record(shape_id)
        return {"shape_id": shape_id, "was_degraded": was_degraded}


def make_reextract_handler(database: "ShapeDatabase") -> JobHandler:
    """Back-compat factory; equivalent to ``ReextractHandler(database)``."""
    return ReextractHandler(database)
