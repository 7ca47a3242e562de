"""Wire codecs for the cluster tier's frame payloads.

Cluster frames reuse the :mod:`repro.serve.protocol` length-prefixed
container (JSON or msgpack), so everything here maps protocol objects to
plain JSON-able values:

* encrypted tables travel as the :mod:`repro.core.serialization` binary
  container, base64-armoured — ciphertext and encrypted tags are
  untrusted data and the container is already self-describing;
* node answers are *ciphertext-domain* sums (``C_res`` ring residues and
  ``C_T_res`` 127-bit field elements, which JSON handles natively as
  Python bigints) — see :meth:`UntrustedNdpDevice.partial_sum_batch`;
* :class:`~repro.core.params.SecNDPParams` ships as its constructor
  fields (the counter-block layout is the default everywhere in this
  repo, so only widths and the tag modulus travel).

No key material ever crosses this wire: cluster NDP nodes are the
*untrusted* memory party of the SecNDP threat model, so ``shard_assign``
carries only public params and already-encrypted tables, and
``partial_sum`` responses carry only sums over that ciphertext.  The
trusted coordinator regenerates every pad share locally (the in-process
parallel engine's pool workers, by contrast, are trusted-side and do
receive the key via ``_PoolSpec``).

Every decoder treats its input as attacker-controlled: malformed
structure, non-integers, and out-of-range values (including the
``OverflowError`` a hostile bigint raises on the ``uint64`` cast) all
surface as :class:`~repro.errors.ConfigurationError`, which the
coordinator's recovery ladder converts into blame on the sending node.
"""

from __future__ import annotations

import base64
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.encryption import EncryptedMatrix
from ..core.params import SecNDPParams
from ..core.serialization import deserialize_matrix, serialize_matrix
from ..errors import ConfigurationError

__all__ = [
    "encode_params",
    "decode_params",
    "encode_table",
    "decode_table",
    "encode_device_sums",
    "decode_device_sums",
    "encode_queries",
    "decode_queries",
]


def _ints(value: Any, what: str) -> List[int]:
    """A wire list of plain integers (bools, floats and strings rejected)."""
    if not isinstance(value, (list, tuple)) or not all(
        isinstance(v, int) and not isinstance(v, bool) for v in value
    ):
        raise ConfigurationError(f"{what} must be a list of integers")
    return list(value)


def _int_rows(value: Any, what: str) -> List[List[int]]:
    """A wire list of integer lists (the 2-D shape every batch field has)."""
    if not isinstance(value, (list, tuple)):
        raise ConfigurationError(f"{what} must be a list of integer lists")
    return [_ints(row, what) for row in value]


def encode_params(params: SecNDPParams) -> Dict[str, Any]:
    return {
        "element_bits": int(params.element_bits),
        "tag_modulus": int(params.tag_modulus),
    }


def decode_params(payload: Dict[str, Any]) -> SecNDPParams:
    try:
        return SecNDPParams(
            element_bits=int(payload["element_bits"]),
            tag_modulus=int(payload["tag_modulus"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigurationError(f"bad params payload: {exc}") from exc


def encode_table(enc: EncryptedMatrix) -> str:
    return base64.b64encode(serialize_matrix(enc)).decode("ascii")


def decode_table(payload: str, params: SecNDPParams) -> EncryptedMatrix:
    try:
        blob = base64.b64decode(payload)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"bad table payload: {exc}") from exc
    return deserialize_matrix(blob, params)


def encode_device_sums(
    values: np.ndarray, tag_sums: Optional[Sequence[int]]
) -> Dict[str, Any]:
    """Node → coordinator: ciphertext-domain sums, nothing decryptable."""
    return {
        "values": [[int(v) for v in row] for row in np.asarray(values)],
        "tag_sums": (
            None if tag_sums is None else [int(t) for t in tag_sums]
        ),
    }


def decode_device_sums(
    payload: Dict[str, Any], params: SecNDPParams
) -> Tuple[np.ndarray, Optional[List[int]]]:
    """Decode an untrusted node's sums defensively.

    A hostile node controls every byte here: values outside the ring
    dtype raise ``OverflowError`` on the cast and are mapped — like any
    other malformed structure — to :class:`ConfigurationError` so the
    dispatch ladder can blame the sender; tag sums are reduced into the
    field so later exact field arithmetic never sees unbounded bigints.
    """
    modulus = int(params.tag_modulus)
    try:
        rows = _int_rows(payload["values"], "values")
        values = np.asarray(rows, dtype=np.uint64).astype(params.ring().dtype)
        if not rows:  # zero-query batch serializes as []
            values = values.reshape(0, 0)
        tags = payload.get("tag_sums")
        tag_sums: Optional[List[int]] = (
            None if tags is None else [t % modulus for t in _ints(tags, "tag_sums")]
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigurationError(f"bad device sums payload: {exc}") from exc
    return values, tag_sums


def encode_queries(
    batch_rows: Sequence[Sequence[int]],
    batch_weights: Sequence[Sequence[int]],
) -> Dict[str, Any]:
    return {
        "batch_rows": [[int(r) for r in rows] for rows in batch_rows],
        "batch_weights": [[int(w) for w in ws] for ws in batch_weights],
    }


def decode_queries(payload: Dict[str, Any]):
    try:
        rows = _int_rows(payload["batch_rows"], "batch_rows")
        weights = _int_rows(payload["batch_weights"], "batch_weights")
    except (KeyError, TypeError) as exc:
        raise ConfigurationError(f"bad queries payload: {exc}") from exc
    if len(rows) != len(weights):
        raise ConfigurationError("batch_rows and batch_weights length mismatch")
    return rows, weights
