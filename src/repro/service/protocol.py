"""Wire protocol for the diagnosis service: requests, replies, errors.

The service speaks JSON over HTTP/1.1.  A diagnosis request names a
*workload* (circuit, pattern count, fault sampling knobs) and a *scheme*
(partitioner, partition/group counts, MISR width) — everything the server
needs to rebuild the exact compiled state — plus the failing data itself,
in one of two forms:

* ``fault_index`` — an index into the workload's deterministically sampled
  fault set.  The server replays that fault's captured response.  This is
  the replay/benchmark mode: client and server agree on the fault universe
  by construction.
* ``cell_errors`` — an explicit failing signature: a map of scan-cell
  position to the list of pattern indices where the cell captured a wrong
  value (what a tester would upload).  The server packs it into a
  :class:`repro.sim.faultsim.FaultResponse` and diagnoses it directly.

Requests sharing a :meth:`DiagnoseRequest.workload_key` are coalesced into
one batch by the server (see :mod:`repro.service.batching`) because they
share compiled netlists, partition sets and compactor tables.

Errors carry **stable machine-readable codes** (:data:`ERROR_STATUS` maps
each to its HTTP status); clients should branch on ``error.code``, never
on the human-readable message.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Hashable, List, Optional, Tuple

#: Partitioning schemes the service accepts (mirrors ``make_partitioner``).
SCHEMES = ("two-step", "random", "interval", "deterministic")

#: Stable error code -> HTTP status.  Codes are part of the public API:
#: they never change meaning, new codes may be added.
ERROR_STATUS: Dict[str, int] = {
    "malformed_payload": 400,   # not JSON / wrong shape / missing field
    "invalid_argument": 400,    # well-formed but semantically wrong value
    "circuit_not_found": 404,   # unknown benchmark name
    "no_such_route": 404,       # unknown URL path
    "method_not_allowed": 405,  # e.g. GET /diagnose
    "request_timeout": 408,     # request not fully received in time
    "queue_full": 429,          # admission control rejected (Retry-After set)
    "internal_error": 500,      # unexpected server-side failure
    "shutting_down": 503,       # server is draining (SIGTERM received)
    "deadline_exceeded": 504,   # request timed out in queue or in flight
}


class ServiceError(Exception):
    """A request-level failure with a stable code and an HTTP status."""

    def __init__(self, code: str, message: str,
                 retry_after_s: Optional[float] = None):
        if code not in ERROR_STATUS:
            raise ValueError(f"unknown error code {code!r}")
        super().__init__(message)
        self.code = code
        self.message = message
        self.status = ERROR_STATUS[code]
        self.retry_after_s = retry_after_s

    def to_payload(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "error": {"code": self.code, "message": self.message}
        }
        if self.retry_after_s is not None:
            payload["error"]["retry_after_s"] = self.retry_after_s
        return payload


def _require(payload: Dict[str, Any], key: str, types: tuple) -> Any:
    if key not in payload:
        raise ServiceError("malformed_payload", f"missing field {key!r}")
    value = payload[key]
    if not isinstance(value, types) or isinstance(value, bool):
        raise ServiceError(
            "malformed_payload",
            f"field {key!r} must be {'/'.join(t.__name__ for t in types)}",
        )
    return value


def _optional(payload: Dict[str, Any], key: str, types: tuple, default: Any) -> Any:
    if key not in payload or payload[key] is None:
        return default
    return _require(payload, key, types)


@dataclass(frozen=True)
class DiagnoseRequest:
    """One diagnosis query.  See the module docstring for the two modes."""

    circuit: str
    scheme: str = "two-step"
    num_partitions: int = 6
    num_groups: int = 8
    misr_width: int = 24
    num_patterns: int = 128
    fault_seed: int = 20030301
    fault_count: int = 20
    scale: Optional[float] = None
    fault_index: Optional[int] = None
    #: cell position -> sorted pattern indices with a captured error.
    cell_errors: Optional[Tuple[Tuple[int, Tuple[int, ...]], ...]] = None
    timeout_ms: Optional[float] = None
    request_id: str = ""

    # -- construction --------------------------------------------------------

    @classmethod
    def from_payload(cls, payload: Any) -> "DiagnoseRequest":
        """Validate a decoded JSON body.  Raises :class:`ServiceError` with
        ``malformed_payload`` (shape) or ``invalid_argument`` (semantics)."""
        if not isinstance(payload, dict):
            raise ServiceError("malformed_payload", "request body must be a JSON object")
        circuit = _require(payload, "circuit", (str,))
        scheme = _optional(payload, "scheme", (str,), "two-step")
        if scheme not in SCHEMES:
            raise ServiceError(
                "invalid_argument",
                f"unknown scheme {scheme!r}; known: {', '.join(SCHEMES)}",
            )
        knobs = {}
        for key, default, lo in (
            ("num_partitions", 6, 1),
            ("num_groups", 8, 1),
            ("misr_width", 24, 1),
            ("num_patterns", 128, 1),
            ("fault_count", 20, 1),
            ("fault_seed", 20030301, None),
        ):
            value = _optional(payload, key, (int,), default)
            if lo is not None and value < lo:
                raise ServiceError("invalid_argument", f"{key} must be >= {lo}")
            knobs[key] = value
        scale = _optional(payload, "scale", (int, float), None)
        if scale is not None and not 0 < scale <= 1:
            raise ServiceError("invalid_argument", "scale must be in (0, 1]")
        timeout_ms = _optional(payload, "timeout_ms", (int, float), None)
        if timeout_ms is not None and timeout_ms <= 0:
            raise ServiceError("invalid_argument", "timeout_ms must be > 0")
        fault_index = _optional(payload, "fault_index", (int,), None)
        cell_errors = payload.get("cell_errors")
        if (fault_index is None) == (cell_errors is None):
            raise ServiceError(
                "malformed_payload",
                "exactly one of fault_index / cell_errors is required",
            )
        packed: Optional[Tuple[Tuple[int, Tuple[int, ...]], ...]] = None
        if cell_errors is not None:
            packed = cls._pack_cell_errors(cell_errors, knobs["num_patterns"])
        if fault_index is not None and fault_index < 0:
            raise ServiceError("invalid_argument", "fault_index must be >= 0")
        return cls(
            circuit=circuit,
            scheme=scheme,
            scale=float(scale) if scale is not None else None,
            fault_index=fault_index,
            cell_errors=packed,
            timeout_ms=float(timeout_ms) if timeout_ms is not None else None,
            request_id=str(_optional(payload, "request_id", (str, int), "")),
            **knobs,
        )

    @staticmethod
    def _pack_cell_errors(raw: Any, num_patterns: int):
        if not isinstance(raw, dict) or not raw:
            raise ServiceError(
                "malformed_payload",
                "cell_errors must be a non-empty object of cell -> pattern list",
            )
        packed = []
        for cell, patterns in raw.items():
            try:
                cell_pos = int(cell)
            except (TypeError, ValueError):
                raise ServiceError("malformed_payload",
                                   f"cell_errors key {cell!r} is not an integer")
            if cell_pos < 0:
                raise ServiceError("invalid_argument",
                                   f"cell position {cell_pos} must be >= 0")
            if not isinstance(patterns, list) or not patterns:
                raise ServiceError(
                    "malformed_payload",
                    f"cell_errors[{cell!r}] must be a non-empty pattern list",
                )
            seen = set()
            for p in patterns:
                if not isinstance(p, int) or isinstance(p, bool):
                    raise ServiceError("malformed_payload",
                                       f"cell_errors[{cell!r}] holds a non-integer")
                if not 0 <= p < num_patterns:
                    raise ServiceError(
                        "invalid_argument",
                        f"pattern index {p} out of range [0, {num_patterns})",
                    )
                seen.add(p)
            packed.append((cell_pos, tuple(sorted(seen))))
        return tuple(sorted(packed))

    # -- identity ------------------------------------------------------------

    @property
    def workload_key(self) -> Hashable:
        """Everything the compiled server-side state depends on.  Requests
        sharing this key batch into one vectorized diagnosis call."""
        return (
            self.circuit, self.scale, self.num_patterns,
            self.fault_seed, self.fault_count,
            self.scheme, self.num_partitions, self.num_groups, self.misr_width,
        )

    def to_payload(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "circuit": self.circuit,
            "scheme": self.scheme,
            "num_partitions": self.num_partitions,
            "num_groups": self.num_groups,
            "misr_width": self.misr_width,
            "num_patterns": self.num_patterns,
            "fault_seed": self.fault_seed,
            "fault_count": self.fault_count,
        }
        if self.scale is not None:
            payload["scale"] = self.scale
        if self.fault_index is not None:
            payload["fault_index"] = self.fault_index
        if self.cell_errors is not None:
            payload["cell_errors"] = {
                str(cell): list(patterns) for cell, patterns in self.cell_errors
            }
        if self.timeout_ms is not None:
            payload["timeout_ms"] = self.timeout_ms
        if self.request_id:
            payload["request_id"] = self.request_id
        return payload


@dataclass
class DiagnoseReply:
    """The diagnosis outcome for one request."""

    request_id: str
    circuit: str
    scheme: str
    candidate_cells: List[int]
    actual_cells: List[int]
    sound: bool
    num_sessions: int
    candidate_history: List[int] = field(default_factory=list)
    #: Server-side timings (filled by the server, not the engine).
    queue_wait_ms: Optional[float] = None
    execute_ms: Optional[float] = None
    batch_size: Optional[int] = None
    #: The request's trace id (client-supplied or server-minted); feed it
    #: to ``GET /debug/trace/<id>`` for the assembled span tree.
    trace_id: Optional[str] = None

    def to_payload(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "request_id": self.request_id,
            "circuit": self.circuit,
            "scheme": self.scheme,
            "candidate_cells": self.candidate_cells,
            "actual_cells": self.actual_cells,
            "num_candidates": len(self.candidate_cells),
            "sound": self.sound,
            "num_sessions": self.num_sessions,
            "candidate_history": self.candidate_history,
        }
        timing = {}
        if self.queue_wait_ms is not None:
            timing["queue_wait_ms"] = round(self.queue_wait_ms, 3)
        if self.execute_ms is not None:
            timing["execute_ms"] = round(self.execute_ms, 3)
        if self.batch_size is not None:
            timing["batch_size"] = self.batch_size
        if timing:
            payload["timing"] = timing
        if self.trace_id:
            payload["trace_id"] = self.trace_id
        return payload

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "DiagnoseReply":
        timing = payload.get("timing", {})
        return cls(
            request_id=payload.get("request_id", ""),
            circuit=payload["circuit"],
            scheme=payload["scheme"],
            candidate_cells=list(payload["candidate_cells"]),
            actual_cells=list(payload.get("actual_cells", [])),
            sound=bool(payload.get("sound", False)),
            num_sessions=int(payload.get("num_sessions", 0)),
            candidate_history=list(payload.get("candidate_history", [])),
            queue_wait_ms=timing.get("queue_wait_ms"),
            execute_ms=timing.get("execute_ms"),
            batch_size=timing.get("batch_size"),
            trace_id=payload.get("trace_id"),
        )
