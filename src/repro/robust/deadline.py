"""Cooperative per-request deadlines (the ``repro.service`` time budget).

A :class:`Deadline` is an absolute point on the monotonic clock.  Code
that honours one calls :meth:`Deadline.check` at stage boundaries —
between query resolution, scan, and rerank steps — and the check
raises :class:`DeadlineExceededError` once the budget is spent.  The
model is cooperative: a check cannot preempt a CPU-bound numpy call that
is already running, it bounds how much *further* work is started.

The server maps :class:`DeadlineExceededError` onto an HTTP 504; library
callers can catch it like any other :class:`~repro.robust.errors.ReproError`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

from .errors import ReproError

__all__ = ["Deadline", "DeadlineExceededError"]


class DeadlineExceededError(ReproError, TimeoutError):
    """A request's time budget ran out before the work completed.

    Also a ``TimeoutError`` so generic timeout handling keeps working.
    """

    stage = "service"
    default_code = "service.deadline_exceeded"


@dataclass(frozen=True)
class Deadline:
    """An absolute expiry on the monotonic clock.

    Build one with :meth:`after` (a relative budget) and pass it down the
    call chain; every :meth:`check` call raises
    :class:`DeadlineExceededError` once it has passed.  Frozen, so one
    deadline can be shared across threads without locking.
    """

    expires_at: float

    @classmethod
    def after(cls, seconds: float) -> "Deadline":
        """A deadline ``seconds`` from now (must be positive)."""
        if seconds <= 0:
            raise ValueError(f"deadline budget must be > 0, got {seconds}")
        return cls(expires_at=time.monotonic() + seconds)

    def remaining(self) -> float:
        """Seconds left before expiry (negative once past)."""
        return self.expires_at - time.monotonic()

    def expired(self) -> bool:
        """Whether the deadline has passed."""
        return self.remaining() <= 0.0

    def check(self, where: Optional[str] = None) -> None:
        """Raise :class:`DeadlineExceededError` if the budget is spent.

        ``where`` names the stage boundary for the error message (and the
        ``context`` of the taxonomy error) so operators can see how far a
        timed-out request got.
        """
        overrun = -self.remaining()
        if overrun >= 0.0:
            suffix = f" at {where}" if where else ""
            raise DeadlineExceededError(
                f"deadline exceeded{suffix} ({overrun:.3f}s over budget)",
                where=where or "",
                overrun_s=overrun,
            )
