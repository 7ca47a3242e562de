"""Length-prefixed frame protocol for the SLS serving front-end.

One frame = a 5-byte header (codec id + big-endian payload length)
followed by the encoded payload::

    +-------+-------------------+----------------------+
    | codec |   payload bytes   |       payload        |
    | u8    |   u32 big-endian  |  json / msgpack body |
    +-------+-------------------+----------------------+

JSON is the always-available codec (floats survive a JSON round trip
bit-exactly via shortest-repr encoding, which is what lets the serving
path keep the repo's bit-identity guarantees over the wire); msgpack is
negotiated per frame when the optional dependency is importable on both
sides — the codec byte travels with every frame, so a JSON client can
talk to a msgpack-capable server without handshaking.

Message schemas (plain dicts on the wire, typed dataclasses in-process):

* request — ``{"id": int, "op": "sls", "table": str, "rows": [int],
  "weights": [int] | null}``; ``op: "ping"`` / ``op: "heartbeat"``
  carry no query fields (heartbeat answers with liveness detail).
* response — ``{"id": int, "status": "ok" | "error" | "overloaded" |
  "shutting_down", "values": [float] | null, "error": str | null,
  "kind": str | null}`` where ``kind`` names the server-side exception
  class (``VerificationError``, ``ConfigurationError``, ...) so the
  client re-raises the typed error from :mod:`repro.errors`.
* node request/response — the cluster tier's control+data plane over
  the same framing (:class:`NodeRequest` / :class:`NodeResponse`):
  ``op`` is one of :data:`NODE_OPS` and everything op-specific travels
  in a free-form ``payload`` dict (shard assignments, partial-sum
  shares, heartbeat liveness detail).

Liveness: :func:`resolve_heartbeat_timeout` is the one place the
dead-peer deadline comes from (``SECNDP_HEARTBEAT_TIMEOUT`` in the
environment, mirroring ``SECNDP_TASK_TIMEOUT``), so the single-node
client and the cluster tier time out reads identically instead of
hanging on a dead peer.
"""

from __future__ import annotations

import asyncio
import json
import os
import struct
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..errors import ConfigurationError

__all__ = [
    "CODEC_JSON",
    "CODEC_MSGPACK",
    "MAX_FRAME_BYTES",
    "STATUS_OK",
    "STATUS_ERROR",
    "STATUS_OVERLOADED",
    "STATUS_SHUTTING_DOWN",
    "RESPONSE_STATUSES",
    "NODE_OPS",
    "ENV_HEARTBEAT_TIMEOUT",
    "DEFAULT_HEARTBEAT_TIMEOUT_S",
    "FrameError",
    "frame_id",
    "SlsRequest",
    "SlsResponse",
    "NodeRequest",
    "NodeResponse",
    "available_codecs",
    "encode_frame",
    "decode_payload",
    "read_frame",
    "write_frame",
    "resolve_heartbeat_timeout",
]

CODEC_JSON = 1
CODEC_MSGPACK = 2

#: Hard cap on a single frame's payload; a length prefix beyond this is
#: treated as a protocol violation, not an allocation request.
MAX_FRAME_BYTES = 16 * 1024 * 1024

_HEADER = struct.Struct(">BI")

STATUS_OK = "ok"
STATUS_ERROR = "error"
STATUS_OVERLOADED = "overloaded"
STATUS_SHUTTING_DOWN = "shutting_down"
RESPONSE_STATUSES = (
    STATUS_OK,
    STATUS_ERROR,
    STATUS_OVERLOADED,
    STATUS_SHUTTING_DOWN,
)

#: Cluster-tier frame ops (NodeRequest.op vocabulary): shard assignment
#: ships a table replica + owned row range to a node, partial_sum asks
#: for one shard's PartialSumShare over masked sub-queries, heartbeat
#: probes liveness, shutdown drains the node.
NODE_OPS = ("shard_assign", "partial_sum", "heartbeat", "shutdown")

ENV_HEARTBEAT_TIMEOUT = "SECNDP_HEARTBEAT_TIMEOUT"

#: Default liveness deadline for heartbeats and cluster dispatches; a
#: peer that does not answer within this window is treated as dead or
#: partitioned rather than waited on forever.
DEFAULT_HEARTBEAT_TIMEOUT_S = 5.0


def resolve_heartbeat_timeout(value: Optional[float] = None) -> float:
    """The liveness deadline in seconds (explicit > env > default).

    Mirrors the ``SECNDP_TASK_TIMEOUT`` pattern of the parallel engine:
    an explicit argument wins, otherwise ``SECNDP_HEARTBEAT_TIMEOUT``
    from the environment, otherwise :data:`DEFAULT_HEARTBEAT_TIMEOUT_S`.
    """
    if value is not None:
        timeout = float(value)
    else:
        raw = os.environ.get(ENV_HEARTBEAT_TIMEOUT, "").strip()
        try:
            timeout = float(raw) if raw else DEFAULT_HEARTBEAT_TIMEOUT_S
        except ValueError:
            raise ConfigurationError(
                f"{ENV_HEARTBEAT_TIMEOUT}={raw!r} is not a number"
            ) from None
    if timeout <= 0:
        raise ConfigurationError(
            f"heartbeat timeout must be positive, got {timeout}"
        )
    return timeout

try:  # optional dependency; JSON is the portable contract
    import msgpack as _msgpack
except ImportError:  # pragma: no cover - exercised on hosts with msgpack
    _msgpack = None


class FrameError(ConfigurationError):
    """A malformed, oversized or unsupported frame."""


# -- hostile-field checks ------------------------------------------------------
#
# A decoded payload is attacker-controlled: every field is checked for
# its wire type here, so a wrong type surfaces as FrameError instead of
# whatever ``int()``/``dict()`` would raise (or silently coerce).


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _int_field(obj: Dict[str, Any], key: str, default: int = 0) -> int:
    value = obj.get(key, default)
    if not _is_int(value):
        raise FrameError(f"frame field {key!r} must be an integer, got {type(value).__name__}")
    return value


def _int_tuple(value: Any, key: str) -> Tuple[int, ...]:
    if not isinstance(value, (list, tuple)) or not all(_is_int(v) for v in value):
        raise FrameError(f"frame field {key!r} must be a list of integers")
    return tuple(value)


def _float_tuple(value: Any, key: str) -> Tuple[float, ...]:
    if not isinstance(value, (list, tuple)) or not all(
        isinstance(v, float) or _is_int(v) for v in value
    ):
        raise FrameError(f"frame field {key!r} must be a list of numbers")
    try:
        return tuple(float(v) for v in value)
    except OverflowError as exc:  # an integer beyond the float range
        raise FrameError(f"frame field {key!r}: {exc}") from exc


def _opt_str(obj: Dict[str, Any], key: str) -> Optional[str]:
    value = obj.get(key)
    if value is not None and not isinstance(value, str):
        raise FrameError(f"frame field {key!r} must be a string, got {type(value).__name__}")
    return value


def _mapping(obj: Dict[str, Any], key: str) -> Dict[str, Any]:
    value = obj.get(key)
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise FrameError(f"frame field {key!r} must be a mapping, got {type(value).__name__}")
    return dict(value)


def frame_id(obj: Any) -> int:
    """The request id of a decoded frame, or 0 when it has no usable one.

    For answering a frame that failed :meth:`SlsRequest.from_wire` (or
    :meth:`NodeRequest.from_wire`): the error response must not raise
    on the same hostile ``id``.
    """
    rid = obj.get("id", 0) if isinstance(obj, dict) else 0
    return rid if _is_int(rid) else 0


def available_codecs() -> Tuple[str, ...]:
    """Codec names this process can encode/decode."""
    return ("json", "msgpack") if _msgpack is not None else ("json",)


def resolve_codec(name: str) -> int:
    if name == "json":
        return CODEC_JSON
    if name == "msgpack":
        if _msgpack is None:
            raise ConfigurationError(
                "codec 'msgpack' requested but msgpack is not installed; "
                "use 'json' or install msgpack"
            )
        return CODEC_MSGPACK
    raise ConfigurationError(
        f"unknown frame codec {name!r} (choose from: json, msgpack)"
    )


@dataclass(frozen=True)
class SlsRequest:
    """One client query (or control message) as it crosses the wire."""

    id: int
    op: str = "sls"
    table: Optional[str] = None
    rows: Tuple[int, ...] = ()
    weights: Optional[Tuple[int, ...]] = None

    def to_wire(self) -> Dict[str, Any]:
        return {
            "id": self.id,
            "op": self.op,
            "table": self.table,
            "rows": list(self.rows),
            "weights": None if self.weights is None else list(self.weights),
        }

    @classmethod
    def from_wire(cls, obj: Dict[str, Any]) -> "SlsRequest":
        if not isinstance(obj, dict):
            raise FrameError(f"request payload must be a dict, got {type(obj).__name__}")
        op = obj.get("op", "sls")
        if op not in ("sls", "ping", "heartbeat"):
            raise FrameError(f"unknown request op {op!r}")
        weights = obj.get("weights")
        return cls(
            id=_int_field(obj, "id"),
            op=op,
            table=_opt_str(obj, "table"),
            rows=_int_tuple(obj.get("rows") or (), "rows"),
            weights=None if weights is None else _int_tuple(weights, "weights"),
        )


@dataclass(frozen=True)
class SlsResponse:
    """One server answer; ``values`` only on ``status == "ok"``."""

    id: int
    status: str
    values: Optional[Tuple[float, ...]] = None
    error: Optional[str] = None
    kind: Optional[str] = None
    #: scheduler detail for observability ("batch", "scatter", ...)
    via: Optional[str] = None
    detail: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.status not in RESPONSE_STATUSES:
            raise FrameError(f"unknown response status {self.status!r}")

    def to_wire(self) -> Dict[str, Any]:
        wire: Dict[str, Any] = {
            "id": self.id,
            "status": self.status,
            "values": None if self.values is None else list(self.values),
            "error": self.error,
            "kind": self.kind,
            "via": self.via,
        }
        if self.detail:
            wire["detail"] = dict(self.detail)
        return wire

    @classmethod
    def from_wire(cls, obj: Dict[str, Any]) -> "SlsResponse":
        if not isinstance(obj, dict):
            raise FrameError(f"response payload must be a dict, got {type(obj).__name__}")
        values = obj.get("values")
        return cls(
            id=_int_field(obj, "id"),
            status=str(obj.get("status", "")),
            values=None if values is None else _float_tuple(values, "values"),
            error=_opt_str(obj, "error"),
            kind=_opt_str(obj, "kind"),
            via=_opt_str(obj, "via"),
            detail=_mapping(obj, "detail"),
        )


@dataclass(frozen=True)
class NodeRequest:
    """One cluster-tier control/data message (coordinator -> node).

    Same framing as :class:`SlsRequest`; ``op`` comes from
    :data:`NODE_OPS` and everything op-specific (serialized tables,
    masked sub-queries, fault directives) travels in ``payload`` so the
    frame vocabulary stays closed while the cluster codec evolves.
    """

    id: int
    op: str
    table: Optional[str] = None
    payload: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.op not in NODE_OPS:
            raise FrameError(f"unknown node op {self.op!r}")

    def to_wire(self) -> Dict[str, Any]:
        return {
            "id": self.id,
            "op": self.op,
            "table": self.table,
            "payload": self.payload,
        }

    @classmethod
    def from_wire(cls, obj: Dict[str, Any]) -> "NodeRequest":
        if not isinstance(obj, dict):
            raise FrameError(
                f"node request payload must be a dict, got {type(obj).__name__}"
            )
        return cls(
            id=_int_field(obj, "id"),
            op=str(obj.get("op", "")),
            table=_opt_str(obj, "table"),
            payload=_mapping(obj, "payload"),
        )


@dataclass(frozen=True)
class NodeResponse:
    """One node answer; op-specific results live in ``payload``."""

    id: int
    status: str
    payload: Dict[str, Any] = field(default_factory=dict)
    error: Optional[str] = None
    kind: Optional[str] = None

    def __post_init__(self) -> None:
        if self.status not in RESPONSE_STATUSES:
            raise FrameError(f"unknown response status {self.status!r}")

    def to_wire(self) -> Dict[str, Any]:
        return {
            "id": self.id,
            "status": self.status,
            "payload": self.payload,
            "error": self.error,
            "kind": self.kind,
        }

    @classmethod
    def from_wire(cls, obj: Dict[str, Any]) -> "NodeResponse":
        if not isinstance(obj, dict):
            raise FrameError(
                f"node response payload must be a dict, got {type(obj).__name__}"
            )
        return cls(
            id=_int_field(obj, "id"),
            status=str(obj.get("status", "")),
            payload=_mapping(obj, "payload"),
            error=_opt_str(obj, "error"),
            kind=_opt_str(obj, "kind"),
        )


# -- framing -------------------------------------------------------------------


def encode_frame(obj: Any, codec: int = CODEC_JSON) -> bytes:
    """One wire frame: header + encoded payload."""
    if codec == CODEC_JSON:
        payload = json.dumps(obj, separators=(",", ":")).encode("utf-8")
    elif codec == CODEC_MSGPACK:
        if _msgpack is None:
            raise FrameError("msgpack codec requested but msgpack is not installed")
        payload = _msgpack.packb(obj, use_bin_type=True)
    else:
        raise FrameError(f"unknown codec id {codec}")
    if len(payload) > MAX_FRAME_BYTES:
        raise FrameError(
            f"frame payload of {len(payload)} bytes exceeds MAX_FRAME_BYTES "
            f"({MAX_FRAME_BYTES})"
        )
    return _HEADER.pack(codec, len(payload)) + payload


def decode_payload(codec: int, payload: bytes) -> Any:
    if codec == CODEC_JSON:
        try:
            return json.loads(payload.decode("utf-8"))
        except (UnicodeDecodeError, ValueError, RecursionError) as exc:
            raise FrameError(f"bad JSON frame payload: {exc}") from exc
    if codec == CODEC_MSGPACK:
        if _msgpack is None:
            raise FrameError("received a msgpack frame but msgpack is not installed")
        try:
            return _msgpack.unpackb(payload, raw=False)
        except Exception as exc:  # msgpack raises a zoo of exception types
            raise FrameError(f"bad msgpack frame payload: {exc}") from exc
    raise FrameError(f"unknown codec id {codec}")


async def read_frame(reader: asyncio.StreamReader) -> Optional[Any]:
    """Read one frame; ``None`` on clean EOF at a frame boundary.

    A truncated header/payload (EOF mid-frame) or an oversized length
    prefix raises :class:`FrameError`.
    """
    header = await reader.read(_HEADER.size)
    if not header:
        return None
    while len(header) < _HEADER.size:
        chunk = await reader.read(_HEADER.size - len(header))
        if not chunk:
            raise FrameError("connection closed mid-header")
        header += chunk
    codec, length = _HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise FrameError(
            f"frame length {length} exceeds MAX_FRAME_BYTES ({MAX_FRAME_BYTES})"
        )
    try:
        payload = await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise FrameError("connection closed mid-frame") from exc
    return decode_payload(codec, payload)


async def write_frame(
    writer: asyncio.StreamWriter, obj: Any, codec: int = CODEC_JSON
) -> None:
    writer.write(encode_frame(obj, codec))
    await writer.drain()


def error_response(
    request_id: int,
    exc: BaseException,
    status: str = STATUS_ERROR,
    via: Optional[str] = None,
) -> SlsResponse:
    """Map a server-side exception to a typed wire response."""
    return SlsResponse(
        id=request_id,
        status=status,
        error=str(exc),
        kind=type(exc).__name__,
        via=via,
    )


def request_batch_rows(
    requests: Sequence[SlsRequest],
) -> Tuple[List[List[int]], List[Optional[List[int]]]]:
    """Split a request batch into the store's (rows, weights) lists."""
    rows_list = [list(req.rows) for req in requests]
    weights_list: List[Optional[List[int]]] = [
        None if req.weights is None else list(req.weights) for req in requests
    ]
    return rows_list, weights_list
