"""Stdlib client of the query service (used by tests and the CLI).

:class:`ServiceClient` speaks the JSON wire protocol of
:mod:`repro.service.protocol` over ``http.client`` — no dependencies,
one class.  By default the client keeps one HTTP/1.1 connection alive
and reuses it across calls (the TCP + slow-start handshake dominates
small-query latency); a reused socket that the server has since closed
is detected and the request retried once on a fresh connection.

Resilience (opt-in, both deterministic under a fixed seed):

* :class:`RetryPolicy` — bounded retry with exponential backoff and
  *full jitter* (``uniform(0, min(cap, base * 2**attempt))``), honoring
  a server-sent ``Retry-After``.  Only idempotent calls retry, only
  transport failures and statuses listed in ``retry_statuses`` are
  retryable, and a request that *timed out* is never retried (the
  server may still be working on it) — its connection is closed and
  discarded, never returned to the keep-alive slot.
* :class:`CircuitBreaker` — a windowed error-rate breaker
  (closed → open → half-open) that fails fast with
  :class:`CircuitOpenError` while the server is melting down, then
  probes its way back to closed.  State transitions are published on
  the ``service.client.breaker_state`` gauge.
* Idempotency keys — :meth:`ServiceClient.reload` sends one
  ``Idempotency-Key`` per *logical* call, so a retried reload that
  already applied server-side is replayed from the server's cache
  instead of double-swapping the snapshot.

Server-reported failures surface as :class:`ServiceError` carrying the
HTTP status and the taxonomy ``stage``/``code`` from the error body; a
server that cannot be reached at all raises
:class:`ServiceUnavailableError` (the CLI maps it to
``ExitCode.UNAVAILABLE``).
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
import time
import uuid
from collections import deque
from dataclasses import dataclass
from random import Random
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)
from urllib.parse import urlsplit

from ..geometry.mesh import TriangleMesh
from ..obs import get_registry
from ..robust.chaos import inject as chaos_inject
from ..robust.errors import ReproError
from ..search.cascade import CascadeStrategy

__all__ = [
    "CircuitBreaker",
    "CircuitOpenError",
    "RetryPolicy",
    "ServiceClient",
    "ServiceError",
    "ServiceUnavailableError",
]


class ServiceError(ReproError, RuntimeError):
    """The server answered with an error response.

    Attributes
    ----------
    status:
        HTTP status code (0 when no response was received).
    payload:
        Decoded JSON error body (may be empty on non-JSON responses).
    """

    stage = "service"
    default_code = "service.error"

    def __init__(
        self,
        message: str,
        *,
        status: int = 0,
        payload: Optional[Dict[str, Any]] = None,
        code: Optional[str] = None,
        **context: object,
    ) -> None:
        super().__init__(message, code=code, status=status, **context)
        self.status = status
        self.payload = payload if payload is not None else {}


class ServiceUnavailableError(ServiceError):
    """No server answered at the given URL (connection refused, DNS,
    socket timeout).

    ``timed_out`` distinguishes a request that *may still be executing*
    server-side (socket timeout mid-flight) from one that never reached
    a server — retry logic treats the two differently.
    """

    default_code = "service.unavailable"

    def __init__(
        self, message: str, *, timed_out: bool = False, **kwargs: Any
    ) -> None:
        super().__init__(message, **kwargs)
        self.timed_out = timed_out


class CircuitOpenError(ServiceUnavailableError):
    """The client's circuit breaker is open: recent calls failed at a
    rate over the threshold, so this call failed fast without touching
    the wire.  Retry after the breaker's reset timeout."""

    default_code = "service.circuit_open"


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with exponential backoff + full jitter.

    ``max_attempts`` counts the first try: ``3`` means one call and up
    to two retries.  Each retry sleeps ``uniform(0, min(max_delay_s,
    base_delay_s * 2**attempt))`` — *full jitter*, which decorrelates
    a thundering herd of recovering clients — bumped up to any
    server-sent ``Retry-After``.  Only transport-level failures and
    HTTP statuses in ``retry_statuses`` are retried (an empty tuple —
    the default — retries transport failures only, so server-reported
    errors like 503 queue-full keep surfacing immediately unless the
    caller opts in).  ``seed`` makes the jitter deterministic.
    """

    max_attempts: int = 3
    base_delay_s: float = 0.05
    max_delay_s: float = 2.0
    retry_statuses: Tuple[int, ...] = ()
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.base_delay_s < 0 or self.max_delay_s < 0:
            raise ValueError("delays must be non-negative")

    def delay(
        self, attempt: int, rng: Random, retry_after: Optional[float] = None
    ) -> float:
        """Sleep before retry number ``attempt`` (0-based)."""
        cap = min(self.max_delay_s, self.base_delay_s * (2.0**attempt))
        delay = rng.uniform(0.0, cap)
        if retry_after is not None and retry_after > delay:
            delay = retry_after
        return delay


#: Gauge values for ``service.client.breaker_state``.
_BREAKER_GAUGE = {"closed": 0, "half-open": 1, "open": 2}


class CircuitBreaker:
    """Windowed error-rate circuit breaker (closed / open / half-open).

    Outcomes of the last ``window`` calls feed a failure rate; once at
    least ``min_samples`` outcomes are in the window and the rate
    reaches ``failure_threshold``, the breaker **opens** and calls fail
    fast for ``reset_timeout_s``.  The next call after the timeout runs
    as a **half-open** probe: success closes the breaker (window
    cleared), failure re-opens it for another timeout.

    ``clock`` is injectable (default ``time.monotonic``) so tests drive
    the open→half-open transition deterministically.
    """

    def __init__(
        self,
        window: int = 20,
        failure_threshold: float = 0.5,
        min_samples: int = 5,
        reset_timeout_s: float = 5.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if not 0.0 < failure_threshold <= 1.0:
            raise ValueError("failure_threshold must be in (0, 1]")
        if window < 1 or min_samples < 1:
            raise ValueError("window and min_samples must be >= 1")
        self.failure_threshold = failure_threshold
        self.min_samples = min_samples
        self.reset_timeout_s = reset_timeout_s
        self._clock = clock
        self._events: Deque[bool] = deque(maxlen=window)
        self._state = "closed"
        self._opened_at = 0.0
        self._lock = threading.Lock()
        get_registry().gauge("service.client.breaker_state").set(0)

    @property
    def state(self) -> str:
        """``"closed"``, ``"open"``, or ``"half-open"`` (time-aware)."""
        with self._lock:
            self._maybe_half_open()
            return self._state

    # repro-lint: disable=RPL100 -- caller-holds-lock helper: state/allow/record enter under self._lock
    def _maybe_half_open(self) -> None:
        if (
            self._state == "open"
            and self._clock() - self._opened_at >= self.reset_timeout_s
        ):
            self._set_state("half-open")

    # repro-lint: disable=RPL100 -- caller-holds-lock helper: reached only from allow/record paths holding self._lock
    def _set_state(self, state: str) -> None:
        if state == self._state:
            return
        self._state = state
        metrics = get_registry()
        metrics.gauge("service.client.breaker_state").set(
            _BREAKER_GAUGE[state]
        )
        if state == "open":
            metrics.inc("service.client.breaker_open")
            self._opened_at = self._clock()

    def allow(self) -> bool:
        """Whether a call may proceed right now (half-open admits one
        probe at a time)."""
        with self._lock:
            self._maybe_half_open()
            if self._state == "closed":
                return True
            if self._state == "half-open":
                # One probe in flight: re-open the gate only after its
                # outcome is recorded.
                self._set_state("open")
                self._opened_at = self._clock() - self.reset_timeout_s
                self._state = "half-open"
                return True
            return False

    def record_success(self) -> None:
        with self._lock:
            if self._state == "half-open":
                self._events.clear()
                self._set_state("closed")
                return
            self._events.append(True)

    def record_failure(self) -> None:
        with self._lock:
            if self._state == "half-open":
                self._set_state("open")
                return
            self._events.append(False)
            if self._state == "closed" and len(self._events) >= self.min_samples:
                failures = sum(1 for ok in self._events if not ok)
                if failures / len(self._events) >= self.failure_threshold:
                    self._set_state("open")


class ServiceClient:
    """A minimal synchronous client for one ``three-dess serve`` daemon.

    Parameters
    ----------
    base_url:
        e.g. ``"http://127.0.0.1:8707"`` (a bare ``host:port`` is
        accepted and promoted to ``http://``).
    timeout:
        Socket timeout in seconds for each call (this is the transport
        bound; the *server-side* budget is ``deadline_ms`` per query).
    keep_alive:
        Reuse one HTTP/1.1 connection across calls (default).  When
        off, every call opens a fresh connection and sends
        ``Connection: close``.
    retry:
        :class:`RetryPolicy` for idempotent calls; None (default)
        preserves single-attempt semantics.
    breaker:
        Optional :class:`CircuitBreaker` shared across this client's
        calls; None (default) disables breaking.
    """

    def __init__(
        self,
        base_url: str,
        timeout: float = 30.0,
        keep_alive: bool = True,
        retry: Optional[RetryPolicy] = None,
        breaker: Optional[CircuitBreaker] = None,
    ) -> None:
        if "://" not in base_url:
            base_url = f"http://{base_url}"
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.keep_alive = keep_alive
        self.retry = retry
        self.breaker = breaker
        parts = urlsplit(self.base_url)
        self._scheme = parts.scheme
        self._host = parts.hostname or "127.0.0.1"
        self._port = parts.port
        self._prefix = parts.path.rstrip("/")
        self._conn: Optional[http.client.HTTPConnection] = None
        self._lock = threading.Lock()
        self._rng = Random(retry.seed) if retry is not None else Random()
        # Wire protocol version for /search.  The client opens at v2 and
        # negotiates down once — permanently for this client — when a
        # pre-versioning server rejects the unknown "v" field.
        self._wire_v = 2

    # ------------------------------------------------------------------
    def _connect(self) -> http.client.HTTPConnection:
        cls = (
            http.client.HTTPSConnection
            if self._scheme == "https"
            else http.client.HTTPConnection
        )
        return cls(self._host, self._port, timeout=self.timeout)

    def close(self) -> None:
        """Drop the persistent connection (safe to call repeatedly)."""
        with self._lock:
            if self._conn is not None:
                self._conn.close()
                self._conn = None

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # repro-lint: disable=RPL100 -- caller-holds-lock helper: _call wraps the whole retry loop in self._lock
    def _roundtrip(
        self,
        method: str,
        url: str,
        data: Optional[bytes],
        headers: Dict[str, str],
    ) -> Tuple[int, Any, bytes]:
        """One HTTP exchange, reusing the kept-alive connection.

        A reused socket may have been closed by the server between
        calls; that surfaces as an immediate OSError/HTTPException and
        is retried exactly once on a fresh connection.  Failures on a
        fresh connection are never retried here (the :class:`RetryPolicy`
        layer above decides that), and a connection whose request
        *timed out* is always closed and discarded — a late response
        from the server must never desynchronize the next exchange on a
        reused socket.
        """
        reused = self._conn is not None
        conn = self._conn if self._conn is not None else self._connect()
        self._conn = None
        while True:
            try:
                chaos_inject("client.request")
                conn.request(method, url, body=data, headers=headers)
                resp = conn.getresponse()
                raw = resp.read()
            except (socket.timeout, TimeoutError) as exc:
                # The server may still be processing this request and
                # could write its response later; reusing the socket
                # would hand that stale response to the *next* call.
                # Close and discard, never retry at this layer.
                conn.close()
                raise ServiceUnavailableError(
                    f"cannot reach {self.base_url}: {exc}",
                    status=0,
                    timed_out=True,
                ) from exc
            except (OSError, http.client.HTTPException) as exc:
                conn.close()
                if reused:
                    reused = False
                    conn = self._connect()
                    continue
                raise ServiceUnavailableError(
                    f"cannot reach {self.base_url}: {exc}", status=0
                ) from exc
            if self.keep_alive and not resp.will_close:
                self._conn = conn
            else:
                conn.close()
            return resp.status, resp.headers, raw

    @staticmethod
    def _decode_error(
        status: int, resp_headers: Any, raw: bytes, path: str
    ) -> ServiceError:
        try:
            payload = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            payload = {}
        error = payload.get("error", {}) if isinstance(payload, dict) else {}
        return ServiceError(
            error.get("message", f"HTTP {status} from {path}"),
            status=status,
            payload=payload,
            code=error.get("code"),
            retry_after=resp_headers.get("Retry-After"),
        )

    def _call(
        self,
        method: str,
        path: str,
        body: Optional[Dict[str, Any]] = None,
        idempotent: bool = True,
        extra_headers: Optional[Dict[str, str]] = None,
    ) -> Dict[str, Any]:
        data = None
        headers = {"Accept": "application/json"}
        if body is not None:
            data = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        if not self.keep_alive:
            headers["Connection"] = "close"
        if extra_headers:
            headers.update(extra_headers)

        metrics = get_registry()
        attempts = (
            self.retry.max_attempts if (self.retry and idempotent) else 1
        )
        url = f"{self._prefix}{path}"
        with self._lock:
            for attempt in range(attempts):
                if self.breaker is not None and not self.breaker.allow():
                    metrics.inc("service.client.failures")
                    raise CircuitOpenError(
                        f"circuit breaker open for {self.base_url}",
                        status=0,
                    )
                metrics.inc("service.client.requests")
                retry_after: Optional[float] = None
                try:
                    status, resp_headers, raw = self._roundtrip(
                        method, url, data, headers
                    )
                except ServiceUnavailableError as exc:
                    if self.breaker is not None:
                        self.breaker.record_failure()
                    # A timed-out request may still apply server-side;
                    # with no idempotency guarantee at this layer, bail.
                    if exc.timed_out or attempt + 1 >= attempts:
                        metrics.inc("service.client.failures")
                        raise
                else:
                    if status < 400:
                        if self.breaker is not None:
                            self.breaker.record_success()
                        return json.loads(raw.decode("utf-8"))
                    error = self._decode_error(status, resp_headers, raw, path)
                    if self.breaker is not None:
                        # 4xx means the *request* was wrong and the
                        # server is fine; only 5xx counts against it.
                        if status >= 500:
                            self.breaker.record_failure()
                        else:
                            self.breaker.record_success()
                    retryable = self.retry is not None and (
                        status in self.retry.retry_statuses
                    )
                    if not retryable or attempt + 1 >= attempts:
                        metrics.inc("service.client.failures")
                        raise error
                    raw_after = resp_headers.get("Retry-After")
                    if raw_after is not None:
                        try:
                            retry_after = float(raw_after)
                        except ValueError:
                            retry_after = None
                metrics.inc("service.client.retries")
                assert self.retry is not None  # attempts > 1 implies it
                time.sleep(
                    self.retry.delay(attempt, self._rng, retry_after)
                )
        raise AssertionError("retry loop must return or raise")

    # ------------------------------------------------------------------
    def search(
        self,
        *,
        shape_id: Optional[int] = None,
        vector: Optional[Sequence[float]] = None,
        mesh: Optional[Union[TriangleMesh, Dict[str, Any]]] = None,
        mode: str = "knn",
        feature_name: str = "principal_moments",
        k: int = 10,
        threshold: float = 0.9,
        steps: Optional[Sequence[Tuple[str, int]]] = None,
        strategy: Optional[
            Union[CascadeStrategy, Sequence[Dict[str, Any]]]
        ] = None,
        exclude_query: bool = True,
        deadline_ms: Optional[float] = None,
    ) -> Dict[str, Any]:
        """Run one query; returns the decoded response body.

        Exactly one of ``shape_id`` / ``vector`` / ``mesh`` must be
        given (``mesh`` accepts a :class:`TriangleMesh` or an
        already-encoded ``{"vertices": ..., "faces": ...}`` dict).
        ``strategy`` (a :class:`CascadeStrategy` or its wire form, a
        list of stage dicts) configures ``mode="cascade"`` retrievals
        and requires a protocol-v2 server.  Raises
        :class:`ServiceError` with ``status`` 503/504/400... on
        server-reported failures.  Search is read-only, so the retry
        policy (when configured) applies.

        The client sends protocol v2 and transparently renegotiates to
        v1 — once, remembered for the client's lifetime — when the
        server predates protocol versioning; a ``strategy`` cannot be
        expressed in v1, so against such a server it fails with the
        server's 400.
        """
        body: Dict[str, Any] = {
            "mode": mode,
            "feature_name": feature_name,
            "k": k,
            "threshold": threshold,
            "exclude_query": exclude_query,
        }
        if shape_id is not None:
            body["shape_id"] = shape_id
        if vector is not None:
            body["vector"] = [float(x) for x in vector]
        if mesh is not None:
            if isinstance(mesh, TriangleMesh):
                body["mesh"] = {
                    "vertices": mesh.vertices.tolist(),
                    "faces": mesh.faces.tolist(),
                    "name": mesh.name,
                }
            else:
                body["mesh"] = mesh
        if steps is not None:
            body["steps"] = [[str(name), int(keep)] for name, keep in steps]
        if strategy is not None:
            if isinstance(strategy, CascadeStrategy):
                body["strategy"] = strategy.to_wire()
            else:
                # Validate client-side so a malformed strategy fails
                # here instead of as an opaque server 400.
                body["strategy"] = CascadeStrategy.from_wire(
                    list(strategy)
                ).to_wire()
        if deadline_ms is not None:
            body["deadline_ms"] = deadline_ms
        if self._wire_v >= 2:
            body["v"] = self._wire_v
        try:
            return self._call("POST", "/search", body)
        except ServiceError as exc:
            if self._wire_v >= 2 and self._unknown_version_field(exc):
                # Pre-versioning server: drop to v1 for good and replay
                # the request once (minus the fields v1 cannot carry).
                self._wire_v = 1
                get_registry().inc("service.client.wire_downgrades")
                body.pop("v", None)
                if "strategy" not in body:
                    return self._call("POST", "/search", body)
            raise

    @staticmethod
    def _unknown_version_field(exc: ServiceError) -> bool:
        """Whether a 400 rejects the ``"v"`` field itself (the signature
        of a server that predates protocol versioning)."""
        if exc.status != 400 or "unknown request field" not in str(exc):
            return False
        listed = str(exc).split(":", 1)[-1].split(";", 1)[0]
        return "v" in {f.strip() for f in listed.split(",")}

    def hits(self, response: Dict[str, Any]) -> List[Dict[str, Any]]:
        """The hit list of a :meth:`search` response (convenience)."""
        return list(response.get("hits", []))

    def health(self) -> Dict[str, Any]:
        """``GET /healthz``."""
        return self._call("GET", "/healthz")

    def metrics(self) -> Dict[str, Any]:
        """``GET /metrics`` — the server's metrics-registry snapshot."""
        return self._call("GET", "/metrics")

    def reload(self) -> Dict[str, Any]:
        """``POST /admin/reload`` — swap in a fresh snapshot.

        One ``Idempotency-Key`` covers the logical call including all
        its retries: a retry of a reload that already applied is
        answered from the server's replay cache instead of swapping the
        snapshot a second time.
        """
        key = uuid.uuid4().hex
        return self._call(
            "POST",
            "/admin/reload",
            extra_headers={"Idempotency-Key": key},
        )
