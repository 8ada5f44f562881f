"""JSON wire protocol of the query service.

One request object in, one response object out — the wire mirror of
:class:`~repro.search.api.SearchRequest` / ``SearchResponse``.  The
query itself takes one of three forms (Fig. 2's query taxonomy):

``{"shape_id": 7}``
    a shape already in the database;
``{"vector": [0.1, ...]}``
    a raw feature vector in the requested space;
``{"mesh": {"vertices": [[x, y, z], ...], "faces": [[i, j, k], ...]}}``
    a fresh triangle mesh, run through the extraction pipeline.

Every other field matches the ``SearchRequest`` dataclass, plus
``deadline_ms`` (the per-request budget).  Malformed input raises
:class:`ProtocolError`, which the server answers with HTTP 400; the
error body carries the taxonomy ``stage``/``code`` so clients can
distinguish a bad request from a saturated or timed-out one.

The protocol is **versioned** via the ``"v"`` request field (default 1,
so every pre-versioning client keeps working unchanged):

* **v1** — the original shape.  Responses carry no ``"v"`` key and hits
  carry no staged provenance; byte-identical to the pre-cascade wire.
* **v2** — adds the ``"strategy"`` request field (a list of cascade
  stage objects, see :meth:`CascadeStrategy.from_wire`) and staged
  provenance on the response: a top-level ``"v": 2``, a ``"stages"``
  list (one report per executed cascade stage), and a per-hit
  ``"stage"`` (the 1-based stage whose score the hit carries).

A server answering a v1 request never emits v2 keys, so old clients
are unaffected; :class:`~repro.service.client.ServiceClient` sends v2
and negotiates down when a pre-versioning server rejects the ``"v"``
field.  The migration table lives in ``docs/SERVICE.md``.
"""

from __future__ import annotations

import numbers
from typing import Any, Dict, Optional, Tuple

from ..geometry.mesh import MeshError, TriangleMesh
from ..robust.errors import ReproError
from ..search.api import SEARCH_MODES, SearchRequest, SearchResponse
from ..search.cascade import CascadeStrategy

__all__ = [
    "ProtocolError",
    "WIRE_VERSIONS",
    "decode_request",
    "encode_response",
]

#: Wire protocol versions this server understands.
WIRE_VERSIONS = (1, 2)

#: Wire fields accepted by ``POST /search`` (everything else is rejected
#: so typos fail loudly instead of silently running defaults).
#: ``use_index`` is accepted and ignored: knn/threshold always run the
#: exact scan, and v1/v2 clients that still send it must not be rejected.
_REQUEST_FIELDS = frozenset(
    {
        "shape_id",
        "vector",
        "mesh",
        "mode",
        "feature_name",
        "k",
        "threshold",
        "steps",
        "strategy",
        "exclude_query",
        "use_index",
        "deadline_ms",
        "v",
    }
)

_QUERY_FIELDS = ("shape_id", "vector", "mesh")


class ProtocolError(ReproError, ValueError):
    """A request payload violated the wire protocol (HTTP 400)."""

    stage = "service"
    default_code = "service.bad_request"


def _decode_query(payload: Dict[str, Any]) -> Any:
    present = [f for f in _QUERY_FIELDS if payload.get(f) is not None]
    if len(present) != 1:
        raise ProtocolError(
            "exactly one of shape_id / vector / mesh must be given, "
            f"got {present or 'none'}"
        )
    field = present[0]
    value = payload[field]
    if field == "shape_id":
        if isinstance(value, bool) or not isinstance(value, int):
            raise ProtocolError(f"shape_id must be an integer, got {value!r}")
        return value
    if field == "vector":
        if not isinstance(value, list) or not value or not all(
            isinstance(x, numbers.Real) and not isinstance(x, bool)
            for x in value
        ):
            raise ProtocolError("vector must be a non-empty list of numbers")
        import numpy as np

        return np.asarray(value, dtype=np.float64)
    if not isinstance(value, dict):
        raise ProtocolError("mesh must be an object with vertices and faces")
    try:
        mesh = TriangleMesh(
            value.get("vertices", []),
            value.get("faces", []),
            name=str(value.get("name", "")),
        )
    except (MeshError, ValueError, TypeError) as exc:
        raise ProtocolError(f"invalid mesh: {exc}") from exc
    if mesh.vertices.size == 0 or mesh.faces.size == 0:
        raise ProtocolError("mesh must have at least one vertex and one face")
    return mesh


def decode_request(
    payload: Any,
) -> Tuple[SearchRequest, Optional[float], int]:
    """Decode a ``POST /search`` JSON body.

    Returns the :class:`SearchRequest`, the requested deadline budget in
    **seconds** (None when the client set none — the server then applies
    its default), and the negotiated wire version (1 when the client
    sent no ``"v"``).  Raises :class:`ProtocolError` on any malformed
    field.
    """
    if not isinstance(payload, dict):
        raise ProtocolError("request body must be a JSON object")
    unknown = sorted(set(payload) - _REQUEST_FIELDS)
    if unknown:
        raise ProtocolError(
            f"unknown request field(s): {', '.join(unknown)}; "
            f"expected a subset of {', '.join(sorted(_REQUEST_FIELDS))}"
        )
    wire_v = payload.get("v", 1)
    if isinstance(wire_v, bool) or wire_v not in WIRE_VERSIONS:
        raise ProtocolError(
            f"unsupported protocol version {wire_v!r}; "
            f"this server speaks {', '.join(str(v) for v in WIRE_VERSIONS)}"
        )
    query = _decode_query(payload)
    mode = payload.get("mode", "knn")
    if mode not in SEARCH_MODES:
        raise ProtocolError(
            f"unknown mode {mode!r}; expected one of {', '.join(SEARCH_MODES)}"
        )
    steps = payload.get("steps")
    if steps is not None:
        try:
            steps = tuple((str(name), int(keep)) for name, keep in steps)
        except (TypeError, ValueError) as exc:
            raise ProtocolError(
                "steps must be a list of [feature_name, keep] pairs"
            ) from exc
    strategy = payload.get("strategy")
    if strategy is not None:
        if wire_v < 2:
            raise ProtocolError(
                "the strategy field requires protocol version 2 "
                '(send "v": 2)'
            )
        try:
            strategy = CascadeStrategy.from_wire(strategy)
        except (TypeError, ValueError) as exc:
            raise ProtocolError(f"invalid strategy: {exc}") from exc
    deadline_ms = payload.get("deadline_ms")
    if deadline_ms is not None:
        if (
            isinstance(deadline_ms, bool)
            or not isinstance(deadline_ms, numbers.Real)
            or deadline_ms <= 0
        ):
            raise ProtocolError(
                f"deadline_ms must be a positive number, got {deadline_ms!r}"
            )
    try:
        request = SearchRequest(
            query=query,
            mode=mode,
            feature_name=str(payload.get("feature_name", "principal_moments")),
            k=int(payload.get("k", 10)),
            threshold=float(payload.get("threshold", 0.9)),
            steps=steps,
            strategy=strategy,
            exclude_query=bool(payload.get("exclude_query", True)),
        )
    except (TypeError, ValueError) as exc:
        raise ProtocolError(str(exc)) from exc
    budget_s = float(deadline_ms) / 1000.0 if deadline_ms is not None else None
    return request, budget_s, wire_v


def encode_response(
    response: SearchResponse,
    *,
    generation: int,
    elapsed_ms: float,
    degraded_records: int = 0,
    dropped_records: int = 0,
    wire_v: int = 1,
) -> Dict[str, Any]:
    """Encode a ``SearchResponse`` (plus snapshot provenance) as JSON.

    ``degraded_records`` / ``dropped_records`` surface the serving
    snapshot's health so a client can tell a complete answer from one
    computed over a partially-healed corpus (degraded mode, see
    ``docs/ROBUSTNESS.md``).  ``wire_v`` is the version the request
    negotiated: v1 responses are byte-identical to the pre-versioning
    wire; v2 adds ``"v"``, per-hit ``"stage"`` and the ``"stages"``
    provenance list.
    """
    body: Dict[str, Any] = {
        "ok": True,
        "mode": response.request.mode,
        "path": response.path,
        "generation": generation,
        "elapsed_ms": round(elapsed_ms, 3),
        "degraded": {
            "degraded_records": degraded_records,
            "dropped_records": dropped_records,
        },
        "hits": [
            {
                "shape_id": hit.shape_id,
                "rank": hit.rank,
                "distance": hit.distance,
                "similarity": hit.similarity,
                "name": hit.name,
                "group": hit.group,
                "degraded": hit.degraded,
                "path": hit.path,
            }
            for hit in response.hits
        ],
    }
    if wire_v >= 2:
        body["v"] = 2
        for encoded, hit in zip(body["hits"], response.hits):
            encoded["stage"] = hit.stage
        body["stages"] = [report.to_wire() for report in response.stages]
    return body
