"""The SecNDP computation protocols - Algorithms 4 and 5.

Two roles cooperate over a bus, exactly as in the appendix protocol
listings:

* :class:`UntrustedNdpDevice` - the memory-side party.  It only ever sees
  ciphertext ``C`` and encrypted tags ``C_T``; its operations (weighted
  summation in the ring, weighted tag summation in the field) are
  *identical* to what an unprotected NDP PU would execute, which is the
  paper's key deployment claim (Sec. IV-D: "there is no modification in
  the NDP implementation needed").
* :class:`SecNDPProcessor` - the trusted party.  It regenerates OTPs from
  addresses and versions (no memory traffic), runs the same weighted
  summation over its pad share, adds the two shares to decrypt, and
  verifies the result against the tag reconstruction of Alg. 5.

Overflow semantics (paper footnote 1 / Thm. A.2): ring arithmetic wraps
silently, but any column whose *integer* weighted sum of residues reaches
``2^w_e`` breaks the tag identity by a multiple of ``2^w_e``, so
verification detects it.  Applications are expected to budget
``PF * max(a) * max(P) < 2^w_e`` (the DLRM and analytics workloads do).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .. import obs
from ..crypto import limb_field
from ..crypto.tweaked import TweakedCipher
from ..errors import ConfigurationError, ShardVerificationError, VerificationError
from ..faults import hooks as fault_hooks
from .checksum import LinearChecksum, MultiPointChecksum
from .encryption import ArithmeticEncryptor, EncryptedMatrix
from .mac import EncryptedLinearMac
from .params import SecNDPParams
from .versions import VersionManager

__all__ = [
    "UntrustedNdpDevice",
    "SecNDPProcessor",
    "WeightedSumResult",
    "PartialSumShare",
]


@dataclass
class WeightedSumResult:
    """What comes back from a verified weighted-summation query.

    ``values`` are plaintext ring residues; ``verified`` records whether a
    tag check was performed (and passed - a failed check raises instead).
    """

    values: np.ndarray
    verified: bool


@dataclass
class PartialSumShare:
    """One shard's contribution to a batch of weighted-summation queries.

    Produced by :meth:`SecNDPProcessor.combine_device_sums` over the
    subset of each query's rows a shard owns, and combined on the
    trusted side by :meth:`SecNDPProcessor.finalize_row_sum_batch`.

    ``values`` has shape ``(n_queries, m)``: row ``q`` is this shard's
    already-decrypted share ``sum_k a_k * P_{i_k, j}`` restricted to the
    shard's rows (zeros when the query touches none of them).
    ``tag_shares`` holds the matching per-query field elements
    ``C_T_res + E_T_res`` restricted the same way, or ``None`` when the
    partial was computed without verification material.

    Both components live in exact modular structures (the ring
    ``Z(2^w_e)`` and the tag field), so summing shards in any order and
    any grouping reproduces the sequential result bit for bit.
    """

    values: np.ndarray
    tag_shares: Optional[List[int]]


def _batch_weights(
    batch_rows: Sequence[Sequence[int]],
    batch_weights: Optional[Sequence[Sequence[int]]],
) -> Sequence[Sequence[int]]:
    """One weight list per query; unit weights when none are given."""
    if batch_weights is None:
        return [[1] * len(rows) for rows in batch_rows]
    if len(batch_weights) != len(batch_rows):
        raise ConfigurationError("batch_rows and batch_weights must have equal length")
    return batch_weights


def _count_rows(prefix: str, batch_rows: Sequence[Sequence[int]]) -> None:
    """Pad-amortization counters of one batch: queries, rows, unique rows."""
    if obs.enabled() and any(len(rows) for rows in batch_rows):
        obs.inc(f"{prefix}.queries", len(batch_rows))
        obs.inc(f"{prefix}.rows_total", sum(len(rows) for rows in batch_rows))
        obs.inc(f"{prefix}.rows_unique", len({int(r) for rows in batch_rows for r in rows}))


class UntrustedNdpDevice:
    """Memory-side party: stores ciphertext, computes over it on request.

    Everything this class holds (ciphertext, encrypted tags) and computes
    is considered attacker-visible and attacker-controllable in the threat
    model (Sec. II).  The ``tamper_*`` hooks let tests and examples inject
    exactly the misbehaviours the verification scheme must catch.
    """

    def __init__(self, params: SecNDPParams):
        self.params = params
        self.ring = params.ring()
        self.field = params.field()
        self._store: dict = {}
        # Fault-injection state (None = honest device).
        self._result_delta: Optional[int] = None
        self._tag_delta: Optional[int] = None

    # -- storage --------------------------------------------------------------

    def store(self, name: str, encrypted: EncryptedMatrix) -> None:
        """Receive ciphertext (the T0 initialisation arrow of Fig. 4)."""
        self._store[name] = encrypted

    def stored(self, name: str) -> EncryptedMatrix:
        return self._store[name]

    # -- honest NDP operations (identical to unprotected NDP) -----------------

    def weighted_row_sum(
        self, name: str, rows: Sequence[int], weights: Sequence[int]
    ) -> np.ndarray:
        """``C_res_j = sum_k a_k * C_{i_k, j} mod 2^w_e`` (Alg. 5 line 5)."""
        enc = self._store[name]
        rows = np.asarray(rows, dtype=np.int64)
        c_rows = enc.ciphertext[rows]
        result = self.ring.dot(np.asarray(weights), c_rows)
        if self._result_delta is not None:
            result = result.copy()
            result[0] = self.ring.add(result[0], self._result_delta)
        inj = fault_hooks.armed_injector()
        if inj is not None:
            result = inj.perturb_result(self.ring, result, "device.row_sum")
        return result

    def weighted_element_sum(
        self,
        name: str,
        rows: Sequence[int],
        cols: Sequence[int],
        weights: Sequence[int],
    ) -> int:
        """``C_res = sum_k a_k * C_{i_k, j_k} mod 2^w_e`` (Alg. 4 line 7)."""
        enc = self._store[name]
        elems = enc.ciphertext[np.asarray(rows), np.asarray(cols)]
        total = self.ring.dot(np.asarray(weights), elems[:, None])[0]
        if self._result_delta is not None:
            total = self.ring.add(total, self._result_delta)
        inj = fault_hooks.armed_injector()
        if inj is not None:
            total = inj.perturb_scalar_result(self.ring, int(total), "device.element_sum")
        return int(total)

    def weighted_tag_sum(
        self, name: str, rows: Sequence[int], weights: Sequence[int]
    ) -> int:
        """``C_{T_res} = sum_k a_k * C_{T_k} mod q`` (Alg. 5 line 15)."""
        enc = self._store[name]
        if enc.tags is None:
            raise ConfigurationError(f"matrix {name!r} stored without tags")
        tag_values = [enc.tags[int(i)] for i in rows]
        # Identical math to an unprotected NDP PU; the limb-vectorized
        # dot only changes how fast the functional model computes it.
        result = limb_field.field_dot(
            self.field, [int(w) for w in weights], tag_values
        )
        if self._tag_delta is not None:
            result = self.field.add(result, self._tag_delta)
        inj = fault_hooks.armed_injector()
        if inj is not None:
            result = inj.perturb_tag(self.field, result, "device.tag_sum")
        return result

    def partial_sum_batch(
        self,
        name: str,
        batch_rows: Sequence[Sequence[int]],
        batch_weights: Optional[Sequence[Sequence[int]]] = None,
        with_tags: bool = True,
    ) -> Tuple[np.ndarray, Optional[List[int]]]:
        """Ciphertext-domain halves of a sharded batch (Alg. 5 lines 5/15).

        For each query ``q``: ``C_res[q] = sum_k a_k * C_{i_k}`` over the
        stored ciphertext and, when ``with_tags``, ``C_T_res[q] = sum_k
        a_k * C_{T_k}`` over the encrypted tags — computed entirely from
        attacker-visible state, with no key material.  The trusted side
        adds its pad halves (:meth:`SecNDPProcessor.pad_share_batch` via
        :meth:`SecNDPProcessor.combine_device_sums`) to reconstruct the
        shard's :class:`PartialSumShare`.  This is the whole wire
        contract of a cluster NDP node: ciphertext sums go out, nothing
        decryptable comes back.
        """
        batch_weights = _batch_weights(batch_rows, batch_weights)
        if name not in self._store:
            raise ConfigurationError(f"no matrix {name!r} stored on this device")
        enc = self._store[name]
        n_cols = int(enc.ciphertext.shape[1])
        values = np.zeros((len(batch_rows), n_cols), dtype=self.ring.dtype)
        tag_sums: Optional[List[int]] = [0] * len(batch_rows) if with_tags else None
        for q, (rows, weights) in enumerate(zip(batch_rows, batch_weights)):
            if not len(rows):
                continue
            weights_ring = self.ring.encode(np.asarray(weights))
            values[q] = self.weighted_row_sum(name, rows, weights_ring)
            if with_tags:
                tag_sums[q] = self.weighted_tag_sum(
                    name, rows, [int(w) for w in weights_ring]
                )
        return values, tag_sums

    # -- adversarial hooks -----------------------------------------------------

    def tamper_results(self, delta: int) -> None:
        """Make the device add ``delta`` to every returned data result."""
        self._result_delta = delta

    def tamper_tags(self, delta: int) -> None:
        """Make the device add ``delta`` to every returned tag result."""
        self._tag_delta = delta

    def behave_honestly(self) -> None:
        self._result_delta = None
        self._tag_delta = None

    def corrupt_stored_ciphertext(self, name: str, i: int, j: int, delta: int) -> None:
        """Flip stored ciphertext in place (memory tampering / bit flips)."""
        enc = self._store[name]
        enc.ciphertext[i, j] = self.ring.add(enc.ciphertext[i, j], delta)

    def replay_stored_tag(self, name: str, i: int, stale_tag: int) -> None:
        """Replace a stored tag with a stale value (replay attack)."""
        enc = self._store[name]
        if enc.tags is None:
            raise ConfigurationError("no tags to replay")
        enc.tags[i] = stale_tag


class SecNDPProcessor:
    """Trusted party: encrypts, regenerates pads, decrypts, verifies.

    Parameters
    ----------
    key:
        The processor secret key ``K`` (16 bytes).
    params:
        Shared scheme parameters.
    versions:
        Version manager; a default (64-region budget) is created if absent.
    """

    def __init__(
        self,
        key: bytes,
        params: Optional[SecNDPParams] = None,
        versions: Optional[VersionManager] = None,
        multipoint_checksum: bool = False,
    ):
        self.params = params or SecNDPParams()
        self.cipher: TweakedCipher = self.params.cipher(key)
        self.ring = self.params.ring()
        self.field = self.params.field()
        self.encryptor = ArithmeticEncryptor(self.cipher, self.params)
        # multipoint_checksum selects the Alg. 8 variant (appendix D),
        # which extracts cnt_s = w_c/w_t evaluation points per cipher
        # block and tightens the forgery bound to m/(cnt_s * q).
        checksum = (
            MultiPointChecksum(self.cipher, self.params)
            if multipoint_checksum
            else None
        )
        self.mac = EncryptedLinearMac(self.cipher, self.params, checksum=checksum)
        self.checksum = self.mac.checksum
        self.versions = versions or VersionManager(
            version_bits=self.params.layout.version_bits
        )

    # -- initialisation (T0 in Fig. 4) ----------------------------------------

    def encrypt_matrix(
        self,
        plaintext: np.ndarray,
        base_addr: int,
        region: str,
        with_tags: bool = True,
    ) -> EncryptedMatrix:
        """Run ``ArithEnc``: encrypt and (optionally) tag a matrix.

        ``plaintext`` holds ring residues.  Three independent versions are
        drawn for the three cipher domains, matching Alg. 1/2/3 each
        calling ``V()`` separately.
        """
        obs.inc("protocol.matrices_encrypted")
        data_version = self.versions.fresh(f"{region}/data")
        with obs.span("protocol.encrypt"):
            encrypted = self.encryptor.encrypt(plaintext, base_addr, data_version)
        if with_tags:
            checksum_version = self.versions.fresh(f"{region}/checksum")
            tag_version = self.versions.fresh(f"{region}/tag")
            with obs.span("protocol.tag_attach"):
                self.mac.attach_tags(
                    encrypted, plaintext, checksum_version, tag_version
                )
        return encrypted

    # -- queries (T1 in Fig. 4) -------------------------------------------------
    #
    # Every verified query runs the same four steps, batched: the trusted
    # pad half (:meth:`pad_share_batch`), the NDP ciphertext half
    # (:meth:`UntrustedNdpDevice.partial_sum_batch`), the one adder that
    # joins them (:meth:`combine_device_sums`), and the tag identity
    # (:meth:`finalize_row_sum_batch`).  A single query is a batch of one;
    # a shard is a batch over the rows it owns.

    def weighted_row_sum(
        self,
        device: UntrustedNdpDevice,
        name: str,
        rows: Sequence[int],
        weights: Sequence[int],
        verify: bool = True,
    ) -> WeightedSumResult:
        """Full Alg. 4 + Alg. 5 for a row-vector weighted summation.

        Computes ``res_j = sum_k a_k * P_{i_k, j} mod 2^w_e`` for every
        column ``j``, with optional tag verification.  This is exactly the
        SLS / pooling primitive the evaluation offloads to NDP.
        """
        obs.inc("protocol.queries")
        share = self._split_share(device, name, [rows], [weights], verify)
        (result,) = self.finalize_row_sum_batch(
            device.stored(name), name, [share], verify=verify
        )
        return result

    def weighted_row_sum_batch(
        self,
        device: UntrustedNdpDevice,
        name: str,
        batch_rows: Sequence[Sequence[int]],
        batch_weights: Optional[Sequence[Sequence[int]]] = None,
        verify: bool = True,
    ) -> List[WeightedSumResult]:
        """Alg. 4 + Alg. 5 for a whole batch of weighted-summation queries.

        Functionally identical to calling :meth:`weighted_row_sum` per
        query, with the pad regeneration amortized over the union of the
        batch's rows (see :meth:`pad_share_batch`).  This is the shape of
        a DLRM inference batch, where consecutive SLS queries hit
        overlapping hot rows.
        """
        _count_rows("protocol.batch", batch_rows)
        obs.inc("protocol.queries", len(batch_rows))
        share = self._split_share(device, name, batch_rows, batch_weights, verify)
        return self.finalize_row_sum_batch(
            device.stored(name), name, [share], verify=verify
        )

    def partial_row_sum_batch(
        self,
        device: UntrustedNdpDevice,
        name: str,
        batch_rows: Sequence[Sequence[int]],
        batch_weights: Optional[Sequence[Sequence[int]]] = None,
        with_tag_shares: bool = True,
    ) -> PartialSumShare:
        """One shard's half of :meth:`weighted_row_sum_batch`.

        ``batch_rows[q]`` lists only the rows of query ``q`` that this
        shard owns (possibly none); the returned share holds the
        decrypted partial sums and, when ``with_tag_shares``, the
        combined tag shares ``C_T_res + E_T_res`` for those rows.  No
        verification happens here — :meth:`failed_share_queries` checks
        a share on its own, :meth:`finalize_row_sum_batch` the
        recombined totals.
        """
        _count_rows("protocol.partial", batch_rows)
        return self._split_share(
            device, name, batch_rows, batch_weights, with_tag_shares
        )

    def _split_share(
        self,
        device: UntrustedNdpDevice,
        name: str,
        batch_rows: Sequence[Sequence[int]],
        batch_weights: Optional[Sequence[Sequence[int]]],
        with_tag_shares: bool,
    ) -> PartialSumShare:
        """Pad half + device half + combine against a local device."""
        pad = self.pad_share_batch(
            device.stored(name), name, batch_rows, batch_weights, with_tag_shares
        )
        with obs.span("protocol.offload"):
            values, tag_sums = device.partial_sum_batch(
                name, batch_rows, batch_weights, with_tags=with_tag_shares
            )
        return self.combine_device_sums(pad, values, tag_sums)

    def pad_share_batch(
        self,
        enc: EncryptedMatrix,
        name: str,
        batch_rows: Sequence[Sequence[int]],
        batch_weights: Optional[Sequence[Sequence[int]]] = None,
        with_tag_shares: bool = True,
    ) -> PartialSumShare:
        """The trusted-side half of a batch (the OTP PU of Fig. 4).

        ``E_res[q] = sum_k a_k * pad_{i_k}`` per query (and, when
        ``with_tag_shares``, the tag-pad sums ``E_T_res[q]``) — computed
        entirely key-side, with no device interaction.  Pads are
        regenerated once for the union of the batch's rows.  Adding a
        device's ciphertext-domain sums
        (:meth:`UntrustedNdpDevice.partial_sum_batch`) via
        :meth:`combine_device_sums` gives the decrypted share, while the
        key never leaves the trusted side: a remote shard only ever
        receives ciphertext and returns ciphertext sums.
        """
        batch_weights = _batch_weights(batch_rows, batch_weights)
        n_cols = int(enc.ciphertext.shape[1])
        values = np.zeros((len(batch_rows), n_cols), dtype=self.ring.dtype)
        tag_shares: Optional[List[int]] = (
            [0] * len(batch_rows) if with_tag_shares else None
        )
        batch_arrs = [
            np.asarray(rows, dtype=np.int64).reshape(-1) for rows in batch_rows
        ]
        touched = [rows for rows in batch_arrs if rows.size]
        if not touched:
            return PartialSumShare(values=values, tag_shares=tag_shares)
        if with_tag_shares:
            self._require_tags(enc, name)
        pad_source = enc
        inj = fault_hooks.armed_injector()
        if inj is not None:
            # A version-management fault (Sec. V-A): pads regenerated under
            # a flipped OTP version no longer match the ciphertext, so
            # verification must trip.
            version = inj.perturb_version(enc.version, "protocol.otp_version")
            if version != enc.version:
                pad_source = replace(enc, version=version)
        with obs.span("protocol.otp"):
            all_rows, inverse = np.unique(
                np.concatenate(touched), return_inverse=True
            )
            pads = self.encryptor.pads_for_rows(pad_source, all_rows)
            tag_pads = (
                self.mac.tag_pads_for_rows(enc, all_rows) if with_tag_shares else None
            )
            start = 0
            for q, (rows, weights) in enumerate(zip(batch_arrs, batch_weights)):
                if not rows.size:
                    continue
                idx = inverse[start : start + rows.size]
                start += rows.size
                weights_ring = self.ring.encode(np.asarray(weights))
                values[q] = self.ring.dot(weights_ring, pads[idx])
                if with_tag_shares:
                    tag_shares[q] = limb_field.field_dot(
                        self.field,
                        [int(w) for w in weights_ring],
                        [tag_pads[k] for k in idx],
                    )
        return PartialSumShare(values=values, tag_shares=tag_shares)

    def combine_device_sums(
        self,
        pad: PartialSumShare,
        device_values: np.ndarray,
        device_tag_sums: Optional[Sequence[int]] = None,
    ) -> PartialSumShare:
        """Add a device's ciphertext-domain sums onto the trusted pad half.

        ``values = C_res + E_res`` in the ring and ``tag_shares =
        C_T_res + E_T_res`` in the field: the decrypt-and-reconstruct
        step of Alg. 5 with the two halves computed by different
        parties — the one adder on the critical path (Sec. V-E3).  The
        device inputs are untrusted — shape mismatches raise
        :class:`ConfigurationError` so callers can blame the shard that
        produced them; forged sums pass through and are caught by
        :meth:`verify_partial_share`.
        """
        values = np.asarray(device_values, dtype=self.ring.dtype)
        if values.shape != pad.values.shape:
            raise ConfigurationError(
                f"device sums shape {values.shape} does not match the "
                f"pad share shape {pad.values.shape}"
            )
        if pad.tag_shares is not None and (
            device_tag_sums is None or len(device_tag_sums) != len(pad.tag_shares)
        ):
            raise ConfigurationError(
                "device tag sums missing or mismatched against the "
                "pad share's tag shares"
            )
        with obs.span("protocol.combine"):
            tag_shares = None if pad.tag_shares is None else [
                self.field.add(int(c), int(e))
                for c, e in zip(device_tag_sums, pad.tag_shares)
            ]
            values = self.ring.add(values, pad.values)
        return PartialSumShare(values=values, tag_shares=tag_shares)

    def weighted_element_sum(
        self,
        device: UntrustedNdpDevice,
        name: str,
        rows: Sequence[int],
        cols: Sequence[int],
        weights: Sequence[int],
    ) -> int:
        """Scalar Alg. 4: ``res = sum_k a_k * P_{i_k, j_k} mod 2^w_e``.

        Element-granular queries cannot be tag-verified (tags cover whole
        rows), matching the paper where verification is defined for the
        vector weighted summation (Alg. 5).
        """
        weights_ring = self.ring.encode(np.asarray(weights))
        enc = device.stored(name)
        c_res = device.weighted_element_sum(name, rows, cols, weights_ring)
        elem_addrs = np.array(
            [enc.element_addr(int(i), int(j)) for i, j in zip(rows, cols)],
            dtype=np.uint64,
        )
        pads = self.encryptor.otp.pad_elements_at(elem_addrs, enc.version)
        e_res = self.ring.dot(weights_ring, pads[:, None])[0]
        return int(self.ring.add(self.ring.dtype(c_res), e_res))

    # -- verification (Alg. 5) ---------------------------------------------------

    def _checksum_key(
        self, enc: EncryptedMatrix, name: str, partials: Sequence[PartialSumShare]
    ):
        """The checksum key of ``enc``, once there are tags to check against it."""
        if any(part.tag_shares is None for part in partials):
            raise VerificationError(
                "partial share carries no tag shares; recompute with "
                "with_tag_shares=True to verify"
            )
        self._require_tags(enc, name)
        return self.checksum.key_for(enc.base_addr, enc.checksum_version)

    def _require_tags(self, enc: EncryptedMatrix, name: str) -> None:
        if enc.tags is None or enc.checksum_version is None:
            raise VerificationError(
                f"matrix {name!r} was encrypted without verification tags"
            )

    def _tag_mismatches(
        self, values: np.ndarray, tag_shares: Sequence[int], key
    ) -> List[int]:
        """Queries whose retrieved tag is not ``result_tag`` of their values.

        The one tag-identity loop (Alg. 5 line 16), shared by the
        per-shard and the combined check.
        """
        return [
            q
            for q in range(values.shape[0])
            if tag_shares[q] != self.checksum.result_tag(values[q], key)
        ]

    def failed_share_queries(
        self,
        enc: EncryptedMatrix,
        name: str,
        part: PartialSumShare,
        key=None,
    ) -> List[int]:
        """Batch-local query indices whose tag share fails *this* shard.

        The checksum is linear with no affine term (``T = sum_j P_j *
        s^(m-j)``), so its restriction to one shard's row partition is
        an exact identity of its own: shard ``s``'s combined tag share
        ``C_T_res + E_T_res`` over the rows it served must equal
        ``result_tag`` of its decrypted partial values.  A mismatch
        therefore blames this shard specifically — no other shard's
        share enters the check.  Subject to the same per-query forgery
        bound (``m/q``) and ring-overflow caveat as the combined check;
        a *whole-query* overflow splits across shards and is only
        visible to the combined identity, which is why
        :meth:`finalize_row_sum_batch` keeps checking totals even when
        per-shard checks ran.
        """
        if key is None or part.tag_shares is None:
            key = self._checksum_key(enc, name, [part])
        with obs.span("protocol.shard_verify"):
            failed = self._tag_mismatches(part.values, part.tag_shares, key)
        if failed:
            obs.inc("protocol.shard_verify.failures", len(failed))
        return failed

    def verify_partial_share(
        self,
        enc: EncryptedMatrix,
        name: str,
        part: PartialSumShare,
        key=None,
        shard=None,
    ) -> None:
        """Raise :class:`ShardVerificationError` if ``part`` fails its check.

        The raising twin of :meth:`failed_share_queries` for callers that
        want the Alg. 5 abort semantics with blame attached.
        """
        failed = self.failed_share_queries(enc, name, part, key=key)
        if failed:
            raise ShardVerificationError(
                f"tag share mismatch for shard {shard!r} on {name!r}: "
                f"queries {failed} (tampering, replay, or a forged share)",
                shard=shard,
                queries=failed,
            )

    def finalize_row_sum_batch(
        self,
        enc: EncryptedMatrix,
        name: str,
        partials: Sequence[PartialSumShare],
        verify: bool = True,
        per_shard: bool = False,
        shard_labels: Optional[Sequence] = None,
    ) -> List[WeightedSumResult]:
        """Combine shard shares into verified results (trusted side).

        Ring-adds the value shares and field-adds the tag shares across
        shards, then runs the Alg. 5 check on each recombined total:
        because every shard partitions the query's rows and both
        structures are exact modular arithmetic, the totals — and hence
        the verification outcome — are bit-identical to
        :meth:`weighted_row_sum_batch` on the unsharded queries (which
        is this method over a single share).

        With ``per_shard=True`` every share is first verified against
        its *own* restricted checksum (see :meth:`failed_share_queries`),
        raising :class:`ShardVerificationError` naming the offending
        shard (``shard_labels[i]`` when given, else the shard's index).
        The combined check still runs afterwards: per-shard identities
        are exact over residues, but a whole-query integer overflow of
        ``2^w_e`` (Thm. A.2) splits across shards and only breaks the
        recombined identity.
        """
        partials = list(partials)
        if not partials:
            return []
        res = partials[0].values
        for part in partials[1:]:
            res = self.ring.add(res, part.values)
        if verify:
            key = self._checksum_key(enc, name, partials)
            if per_shard:
                for s, part in enumerate(partials):
                    label = shard_labels[s] if shard_labels is not None else s
                    self.verify_partial_share(enc, name, part, key=key, shard=label)
            with obs.span("protocol.verify"):
                retrieved = [
                    self.field.reduce(sum(int(p.tag_shares[q]) for p in partials))
                    for q in range(res.shape[0])
                ]
                failed = self._tag_mismatches(res, retrieved, key)
            if failed:
                obs.inc("protocol.verify.failures")
                raise VerificationError(
                    f"tag mismatch for queries {failed} on {name!r} "
                    f"(tampering, replay, or ring overflow)"
                )
        return [WeightedSumResult(values=values, verified=verify) for values in res]

    # -- convenience --------------------------------------------------------------

    def decrypt_matrix(self, encrypted: EncryptedMatrix) -> np.ndarray:
        return self.encryptor.decrypt(encrypted)
