"""Hostile-input fuzzing of both frame codecs.

Every byte a peer sends is attacker-controlled: the serving frame
decoder (:mod:`repro.serve.protocol`) and the cluster payload codec
(:mod:`repro.cluster.codec`) must turn *any* input into either a decoded
value or a typed :class:`~repro.serve.protocol.FrameError` /
:class:`~repro.errors.ConfigurationError` — never a bare ``ValueError``,
``TypeError``, ``OverflowError`` or ``RecursionError`` that would kill a
connection handler.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster import codec
from repro.core import SecNDPParams
from repro.errors import ConfigurationError
from repro.serve.protocol import (
    CODEC_JSON,
    CODEC_MSGPACK,
    FrameError,
    NodeRequest,
    NodeResponse,
    SlsRequest,
    SlsResponse,
    decode_payload,
)

PARAMS = SecNDPParams(element_bits=32)

#: Any value a JSON (or msgpack) payload can decode to.
scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=2**63, max_value=2**200)
    | st.floats()
    | st.text(max_size=8)
)
wire_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)
#: Frames with the field names the decoders look up, holding hostile values.
FIELDS = (
    "id", "op", "table", "rows", "weights", "status", "values", "error",
    "kind", "via", "detail", "payload", "tag_sums", "batch_rows",
    "batch_weights",
)
frames = st.fixed_dictionaries(
    {}, optional={name: wire_values for name in FIELDS}
) | wire_values


DECODERS = (
    SlsRequest.from_wire,
    SlsResponse.from_wire,
    NodeRequest.from_wire,
    NodeResponse.from_wire,
    codec.decode_queries,
    lambda obj: codec.decode_device_sums(obj, PARAMS),
)


def _only_typed_errors(obj) -> None:
    for decode in DECODERS:
        try:
            decode(obj)
        except ConfigurationError:  # FrameError is one too
            pass


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(codec_id=st.sampled_from([CODEC_JSON, CODEC_MSGPACK, 0, 255]), raw=st.binary(max_size=64))
def test_byte_level_payloads_raise_only_frame_errors(codec_id, raw):
    try:
        obj = decode_payload(codec_id, raw)
    except FrameError:
        return
    _only_typed_errors(obj)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(obj=frames)
def test_structured_payloads_raise_only_typed_errors(obj):
    _only_typed_errors(obj)
    # The same structure through the JSON byte path.
    _only_typed_errors(decode_payload(CODEC_JSON, json.dumps(obj).encode()))


@pytest.mark.parametrize(
    "decode, obj",
    [
        (SlsRequest.from_wire, {"id": "x"}),
        (SlsResponse.from_wire, {"id": "x", "status": "ok"}),
        (NodeRequest.from_wire, {"id": "x", "op": "heartbeat"}),
        (NodeResponse.from_wire, {"id": "x", "status": "ok"}),
        (NodeRequest.from_wire, {"id": 1, "op": "heartbeat", "payload": [1]}),
        (NodeResponse.from_wire, {"id": 1, "status": "ok", "payload": "ab"}),
        (SlsRequest.from_wire, {"id": 1, "rows": ["a"]}),
        (SlsRequest.from_wire, {"id": 1, "rows": [1.5]}),
        (SlsRequest.from_wire, {"id": 1, "rows": 5}),
    ],
)
def test_known_hostile_frames_raise_frame_error(decode, obj):
    with pytest.raises(FrameError):
        decode(obj)


@pytest.mark.parametrize(
    "payload",
    [
        {"values": [[[1]]], "tag_sums": [0]},  # 3-D values
        {"values": [[1.5]], "tag_sums": [0]},  # would truncate to 1
        {"values": [[True]], "tag_sums": [0]},
        {"values": [["7"]], "tag_sums": [0]},
        {"values": [[1]], "tag_sums": [2.5]},
    ],
)
def test_device_sums_reject_non_integer_structure(payload):
    with pytest.raises(ConfigurationError):
        codec.decode_device_sums(payload, PARAMS)


def test_deeply_nested_json_is_a_frame_error():
    with pytest.raises(FrameError):
        decode_payload(CODEC_JSON, b"[" * 100_000)
