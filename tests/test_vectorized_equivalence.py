"""Vectorized hot paths vs scalar reference paths: bit-identical results.

Each consumer that was rewired onto the limb-vectorized field keeps its
scalar method as the oracle:

* ``LinearChecksum.matrix_tags`` (vectorized sweep) vs per-row
  ``row_tag`` (scalar Horner) — single-point Alg. 2;
* ``MultiPointChecksum.matrix_tags`` vs per-row ``row_tag`` — Alg. 8,
  both for the default modulus (``cnt_s == 1``) and a small Mersenne
  modulus with ``cnt_s > 1`` where the scalar fallback runs;
* ``EncryptedLinearMac.tag_pads`` (batched AES) vs scalar ``tag_pad``;
* batched ``weighted_row_sum_batch`` / ``SecureEmbeddingStore.sls_many``
  vs their one-query-at-a-time equivalents.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.checksum import LinearChecksum, MultiPointChecksum
from repro.core.mac import EncryptedLinearMac
from repro.core.params import SecNDPParams
from repro.core.protocol import SecNDPProcessor, UntrustedNdpDevice
from repro.errors import VerificationError
from repro.workloads.secure_sls import SecureEmbeddingStore

KEY = bytes(range(16))


def _params(tag_modulus=None, element_bits=32):
    if tag_modulus is None:
        return SecNDPParams(element_bits=element_bits)
    return SecNDPParams(element_bits=element_bits, tag_modulus=tag_modulus)


class TestSinglePointEquivalence:
    @pytest.mark.parametrize("dtype", [np.uint8, np.uint32, np.uint64, np.int64])
    def test_matrix_tags_match_per_row_scalar(self, dtype):
        params = _params()
        checksum = LinearChecksum(params.cipher(KEY), params)
        rng = np.random.default_rng(3)
        hi = 200 if dtype == np.uint8 else 2**31
        matrix = rng.integers(0, hi, size=(23, 9)).astype(dtype)
        s = checksum.secret_point(0x4000, 5)
        vectorized = checksum.matrix_tags(matrix, 0x4000, 5)
        scalar = [checksum.row_tag(row, s) for row in matrix]
        assert vectorized == scalar

    def test_small_prime_fallback_matches(self):
        params = _params(tag_modulus=(1 << 31) - 1)
        checksum = LinearChecksum(params.cipher(KEY), params)
        matrix = np.arange(40, dtype=np.uint32).reshape(8, 5)
        s = checksum.secret_point(0x100, 0)
        assert checksum.matrix_tags(matrix, 0x100, 0) == [
            checksum.row_tag(row, s) for row in matrix
        ]

    def test_result_tag_accepts_arrays(self):
        params = _params()
        checksum = LinearChecksum(params.cipher(KEY), params)
        s = checksum.secret_point(0x80, 1)
        res = np.asarray([5, 0, 2**32 - 1, 17], dtype=np.uint64)
        assert checksum.result_tag(res, s) == checksum.row_tag(
            [int(x) for x in res], s
        )

    def test_negative_values_fall_back_and_agree(self):
        params = _params()
        checksum = LinearChecksum(params.cipher(KEY), params)
        s = checksum.secret_point(0x80, 1)
        matrix = np.asarray([[-3, 4, -5], [6, -7, 8]], dtype=np.int64)
        assert checksum.row_tags(matrix, s) == [
            checksum.row_tag(row, s) for row in matrix
        ]


class TestMultiPointEquivalence:
    def test_default_modulus_cnt1(self):
        params = _params()
        checksum = MultiPointChecksum(params.cipher(KEY), params)
        assert checksum.cnt_s == 1
        rng = np.random.default_rng(5)
        matrix = rng.integers(0, 2**16, size=(17, 6), dtype=np.uint64)
        points = checksum.secret_points(0x2000, 3)
        assert checksum.matrix_tags(matrix, 0x2000, 3) == [
            checksum.row_tag(row, points) for row in matrix
        ]

    def test_multi_point_cnt_gt_1(self):
        # w_t = 61 -> cnt_s = 2: the Alg. 8 case with multiple secret
        # points per cipher block (small Mersenne prime, scalar field).
        params = _params(tag_modulus=(1 << 61) - 1)
        checksum = MultiPointChecksum(params.cipher(KEY), params)
        assert checksum.cnt_s > 1
        rng = np.random.default_rng(6)
        matrix = rng.integers(0, 2**20, size=(11, 7), dtype=np.uint64)
        points = checksum.secret_points(0x3000, 9)
        assert checksum.matrix_tags(matrix, 0x3000, 9) == [
            checksum.row_tag(row, points) for row in matrix
        ]

    def test_result_tag_matches_row_tag(self):
        params = _params()
        checksum = MultiPointChecksum(params.cipher(KEY), params)
        points = checksum.secret_points(0x40, 2)
        res = np.asarray([9, 8, 7, 6, 5], dtype=np.uint32)
        assert checksum.result_tag(res, points) == checksum.row_tag(
            [int(x) for x in res], points
        )

    def test_weight_vector_is_cached(self):
        params = _params(tag_modulus=(1 << 61) - 1)
        checksum = MultiPointChecksum(params.cipher(KEY), params)
        points = checksum.secret_points(0x40, 2)
        w1 = checksum.weight_vector(12, points)
        w2 = checksum.weight_vector(12, points)
        assert w1 is w2


class TestBatchedTagPads:
    def test_tag_pads_match_scalar_tag_pad(self):
        params = _params()
        mac = EncryptedLinearMac(params.cipher(KEY), params)
        addrs = [0x1000, 0x1080, 0x2000, 0x1000]
        assert mac.tag_pads(addrs, 7) == [mac.tag_pad(a, 7) for a in addrs]

    def test_tag_pads_small_prime(self):
        params = _params(tag_modulus=(1 << 31) - 1)
        mac = EncryptedLinearMac(params.cipher(KEY), params)
        addrs = [0x500, 0x600]
        assert mac.tag_pads(addrs, 1) == [mac.tag_pad(a, 1) for a in addrs]

    def test_empty(self):
        params = _params()
        mac = EncryptedLinearMac(params.cipher(KEY), params)
        assert mac.tag_pads([], 0) == []


class TestBatchedProtocol:
    def _setup(self, multipoint=False):
        params = _params(element_bits=8)
        processor = SecNDPProcessor(KEY, params, multipoint_checksum=multipoint)
        device = UntrustedNdpDevice(params)
        rng = np.random.default_rng(11)
        plaintext = rng.integers(0, 8, size=(64, 16), dtype=np.uint8)
        enc = processor.encrypt_matrix(plaintext, 0x10000, "t")
        device.store("t", enc)
        return processor, device, rng

    @pytest.mark.parametrize("multipoint", [False, True])
    def test_batch_matches_sequential(self, multipoint):
        processor, device, rng = self._setup(multipoint)
        batch_rows = [list(rng.integers(0, 64, size=5)) for _ in range(6)]
        batch_weights = [list(rng.integers(0, 4, size=5)) for _ in range(6)]
        batched = processor.weighted_row_sum_batch(
            device, "t", batch_rows, batch_weights
        )
        for result, rows, weights in zip(batched, batch_rows, batch_weights):
            single = processor.weighted_row_sum(device, "t", rows, weights)
            assert np.array_equal(result.values, single.values)
            assert result.verified

    def test_batch_detects_tampering(self):
        processor, device, rng = self._setup()
        device.tamper_results(1)
        with pytest.raises(VerificationError):
            processor.weighted_row_sum_batch(device, "t", [[0, 1, 2]], [[1, 1, 1]])

    def test_empty_batch(self):
        processor, device, _ = self._setup()
        assert processor.weighted_row_sum_batch(device, "t", []) == []

    def test_batch_without_tags_raises_when_verifying(self):
        params = _params(element_bits=8)
        processor = SecNDPProcessor(KEY, params)
        device = UntrustedNdpDevice(params)
        plaintext = np.zeros((4, 16), dtype=np.uint8)
        enc = processor.encrypt_matrix(plaintext, 0x0, "t", with_tags=False)
        device.store("t", enc)
        with pytest.raises(VerificationError):
            processor.weighted_row_sum_batch(device, "t", [[0]], [[1]])
        # verify=False is still served.
        res = processor.weighted_row_sum_batch(
            device, "t", [[0]], [[1]], verify=False
        )
        assert not res[0].verified


class TestStoreBatchEquivalence:
    def _store(self):
        params = _params(element_bits=32)
        processor = SecNDPProcessor(KEY, params)
        device = UntrustedNdpDevice(params)
        store = SecureEmbeddingStore(processor, device, quantization="column")
        rng = np.random.default_rng(21)
        store.add_table("emb", rng.normal(size=(50, 12)))
        return store, rng

    def test_sls_many_matches_per_query_sls(self):
        store, rng = self._store()
        batch_rows = [list(rng.integers(0, 50, size=4)) for _ in range(5)]
        batch_weights = [list(rng.integers(1, 3, size=4)) for _ in range(5)]
        batched = store.sls_many("emb", batch_rows, batch_weights)
        for i, (rows, weights) in enumerate(zip(batch_rows, batch_weights)):
            assert np.allclose(batched[i], store.sls("emb", rows, weights))

    def test_sls_many_rejects_overflow(self):
        store, _ = self._store()
        from repro.errors import ConfigurationError

        budget = store.max_pooling_factor("emb")
        too_many = [0] * (budget + 1)
        with pytest.raises(ConfigurationError):
            store.sls_many("emb", [too_many])
