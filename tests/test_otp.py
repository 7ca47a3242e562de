"""OTP generation: block chunking, element slicing, scatter/gather parity."""

from __future__ import annotations

import numpy as np
import pytest

from repro.crypto import OtpGenerator, RING8, RING32, TweakedCipher

KEY = bytes(range(16))


@pytest.fixture
def gen32():
    return OtpGenerator(TweakedCipher(KEY), RING32)


@pytest.fixture
def gen8():
    return OtpGenerator(TweakedCipher(KEY), RING8)


class TestPadElements:
    def test_elements_per_block(self, gen32, gen8):
        assert gen32.elements_per_block == 4
        assert gen8.elements_per_block == 16

    def test_unaligned_base_rejected(self, gen32):
        with pytest.raises(ValueError):
            gen32.pad_elements(0x1001, 4, 0)

    def test_negative_count_rejected(self, gen32):
        with pytest.raises(ValueError):
            gen32.pad_elements(0x1000, -1, 0)

    def test_zero_count(self, gen32):
        assert len(gen32.pad_elements(0x1000, 0, 0)) == 0

    def test_partial_block(self, gen32):
        # 6 elements span 1.5 blocks; the pad is a prefix of the 8-element pad.
        pads6 = gen32.pad_elements(0x2000, 6, 1)
        pads8 = gen32.pad_elements(0x2000, 8, 1)
        assert np.array_equal(pads6, pads8[:6])

    def test_deterministic(self, gen32):
        assert np.array_equal(
            gen32.pad_elements(0x1000, 8, 5), gen32.pad_elements(0x1000, 8, 5)
        )

    def test_version_sensitivity(self, gen32):
        a = gen32.pad_elements(0x1000, 8, 0)
        b = gen32.pad_elements(0x1000, 8, 1)
        assert not np.array_equal(a, b)

    def test_adjacent_blocks_differ(self, gen32):
        pads = gen32.pad_elements(0x1000, 8, 0)
        assert not np.array_equal(pads[:4], pads[4:])


class TestScatteredPads:
    def test_single_matches_bulk(self, gen32):
        bulk = gen32.pad_elements(0x3000, 12, 2)
        for j in range(12):
            assert gen32.pad_element_at(0x3000 + 4 * j, 2) == int(bulk[j])

    def test_vectorised_matches_single(self, gen8):
        addrs = np.array([0x100, 0x105, 0x11F, 0x200], dtype=np.uint64)
        batch = gen8.pad_elements_at(addrs, 3)
        for i, a in enumerate(addrs):
            assert int(batch[i]) == gen8.pad_element_at(int(a), 3)

    def test_unaligned_element_rejected(self, gen32):
        with pytest.raises(ValueError):
            gen32.pad_element_at(0x1002, 0)
        with pytest.raises(ValueError):
            gen32.pad_elements_at(np.array([0x1002], dtype=np.uint64), 0)

    def test_8bit_any_byte_address_ok(self, gen8):
        # 1-byte elements are always aligned.
        assert isinstance(gen8.pad_element_at(0x1003, 0), int)

    def test_empty_scatter(self, gen32):
        assert gen32.pad_elements_at(np.array([], dtype=np.uint64), 0).size == 0


class TestBlockDedupeAndCache:
    """pad_elements_at dedupes shared cipher blocks and caches pad blocks."""

    def test_duplicate_blocks_encrypt_once(self):
        gen = OtpGenerator(TweakedCipher(KEY), RING32)
        # 8 elements spanning exactly 2 distinct blocks (4 elements each).
        addrs = np.arange(8, dtype=np.uint64) * 4 + 0x1000
        gen.pad_elements_at(addrs, 0)
        assert gen.cache_misses == 2
        assert gen.cache_hits == 0

    def test_repeat_query_hits_cache(self):
        gen = OtpGenerator(TweakedCipher(KEY), RING32)
        addrs = np.arange(8, dtype=np.uint64) * 4 + 0x1000
        gen.pad_elements_at(addrs, 0)
        before = gen.cache_misses
        out = gen.pad_elements_at(addrs, 0)
        assert gen.cache_misses == before  # fully served from cache
        assert gen.cache_hits >= 2
        # Cached results are still bit-identical to direct generation.
        fresh = OtpGenerator(TweakedCipher(KEY), RING32, cache_blocks=0)
        assert np.array_equal(out, fresh.pad_elements_at(addrs, 0))

    def test_version_keys_cache_entries(self):
        gen = OtpGenerator(TweakedCipher(KEY), RING32)
        addrs = np.array([0x1000], dtype=np.uint64)
        a = gen.pad_elements_at(addrs, 0)
        b = gen.pad_elements_at(addrs, 1)
        assert gen.cache_misses == 2  # same address, distinct versions
        assert not np.array_equal(a, b)

    def test_cache_disabled(self):
        gen = OtpGenerator(TweakedCipher(KEY), RING32, cache_blocks=0)
        addrs = np.array([0x1000, 0x1004], dtype=np.uint64)
        ref = OtpGenerator(TweakedCipher(KEY), RING32)
        assert np.array_equal(
            gen.pad_elements_at(addrs, 0), ref.pad_elements_at(addrs, 0)
        )
        assert gen.cache_hits == 0 and gen.cache_misses == 0

    def test_lru_eviction_bounds_cache(self):
        gen = OtpGenerator(TweakedCipher(KEY), RING32, cache_blocks=2)
        for block in range(5):
            gen.pad_elements_at(
                np.array([0x1000 + 16 * block], dtype=np.uint64), 0
            )
        assert len(gen._block_cache) == 2

    def test_clear_cache(self):
        gen = OtpGenerator(TweakedCipher(KEY), RING32)
        gen.pad_elements_at(np.array([0x1000], dtype=np.uint64), 0)
        gen.clear_cache()
        assert len(gen._block_cache) == 0
        assert gen.cache_hits == 0 and gen.cache_misses == 0

    def test_scatter_still_matches_bulk_with_cache(self):
        gen = OtpGenerator(TweakedCipher(KEY), RING8)
        bulk = gen.pad_elements(0x2000, 48, 4)
        addrs = 0x2000 + np.arange(48, dtype=np.uint64)
        # Prime the cache, then query again out of order with duplicates.
        gen.pad_elements_at(addrs, 4)
        shuffled = np.concatenate([addrs[::-1], addrs[:7]])
        out = gen.pad_elements_at(shuffled, 4)
        expected = np.concatenate([bulk[::-1], bulk[:7]])
        assert np.array_equal(out, expected)


class TestCacheInfo:
    """cache_info() exposes the LRU statistics; eviction bounds memory."""

    def test_fresh_generator(self, gen32):
        info = gen32.cache_info()
        assert info == (0, 0, 0, 0, gen32.cache_blocks)
        assert info.maxsize == gen32.cache_blocks

    def test_hits_misses_reported(self, gen32):
        addrs = np.arange(8, dtype=np.uint64) * 4 + 0x1000
        gen32.pad_elements_at(addrs, 0)  # 2 distinct blocks -> 2 misses
        gen32.pad_elements_at(addrs, 0)  # same blocks -> 2 hits
        info = gen32.cache_info()
        assert info.misses == 2
        assert info.hits == 2
        assert info.currsize == 2
        assert info.evictions == 0

    def test_clear_cache_resets_info(self, gen32):
        gen32.pad_elements_at(np.array([0x1000], dtype=np.uint64), 0)
        gen32.clear_cache()
        assert gen32.cache_info() == (0, 0, 0, 0, gen32.cache_blocks)

    def test_eviction_counts_and_bounds_memory(self):
        capacity = 64
        gen = OtpGenerator(TweakedCipher(KEY), RING32, cache_blocks=capacity)
        rng = np.random.default_rng(7)
        # Long scattered workload over a row space far larger than the
        # cache: 200 queries of 32 random block-aligned addresses each.
        for _ in range(200):
            rows = rng.integers(0, 10_000, size=32).astype(np.uint64)
            gen.pad_elements_at(rows * 16, 1)
            info = gen.cache_info()
            assert info.currsize <= capacity  # memory stays bounded
        info = gen.cache_info()
        assert info.evictions > 0
        assert info.misses >= info.evictions + info.currsize
        # Conservation: every miss either got evicted or is still cached.
        assert info.misses == info.evictions + info.currsize

    def test_disabled_cache_info(self):
        gen = OtpGenerator(TweakedCipher(KEY), RING32, cache_blocks=0)
        gen.pad_elements_at(np.array([0x1000], dtype=np.uint64), 0)
        info = gen.cache_info()
        assert info.maxsize == 0
        assert info.currsize == 0
        assert info.hits == 0 and info.misses == 0


class TestBlockCacheAcrossReencryption:
    """The block LRU stays invisible when a table is re-encrypted.

    Pads are keyed ``(version, address)``: after ``reencrypt_table``
    bumps the data version, entries of the retired version can never be
    served for the new ciphertext, whatever the cache capacity.
    """

    @staticmethod
    def _store(recovery):
        from repro.core import SecNDPParams, SecNDPProcessor, UntrustedNdpDevice
        from repro.faults import RecoveryPolicy
        from repro.workloads import SecureEmbeddingStore

        params = SecNDPParams(element_bits=32)
        store = SecureEmbeddingStore(
            SecNDPProcessor(KEY, params),
            UntrustedNdpDevice(params),
            quantization="table",
            recovery=(
                RecoveryPolicy(backoff_base_s=1e-5, reencrypt_after=None)
                if recovery
                else None
            ),
        )
        store.add_table("emb", np.random.default_rng(0).normal(size=(64, 16)))
        return store

    @pytest.mark.parametrize("cache_blocks", [None, 0, 8])
    def test_bit_exact_across_reencryption(self, cache_blocks):
        hot = list(range(16))
        reference = self._store(recovery=False)
        reference.processor.encryptor.otp.resize_cache(0)
        expected = reference.sls("emb", hot)
        store = self._store(recovery=True)
        otp = store.processor.encryptor.otp
        if cache_blocks is not None:
            otp.resize_cache(cache_blocks)
        before = [store.sls("emb", hot) for _ in range(2)]  # cold, then warm
        old_version = store.device.stored("emb").version
        store.reencrypt_table("emb")
        assert store.device.stored("emb").version != old_version
        misses = otp.cache_info().misses
        after = [store.sls("emb", hot) for _ in range(2)]
        for got in before + after:
            assert np.array_equal(got, expected)
        if otp.cache_blocks:
            # The bumped version re-misses: no retired pad was reused.
            assert otp.cache_info().misses > misses
            assert otp.cache_info().currsize <= otp.cache_blocks

    def test_purge_version_drops_only_the_retired_version(self):
        store = self._store(recovery=True)
        otp = store.processor.encryptor.otp
        store.sls("emb", [0, 1])
        old_version = store.device.stored("emb").version
        store.reencrypt_table("emb")
        store.sls("emb", [0, 1])
        resident = otp.cache_info().currsize
        dropped = otp.purge_version(old_version)
        assert dropped > 0
        assert not any(key[0] == old_version for key in otp._block_cache)
        assert otp.cache_info().currsize == resident - dropped

    def test_resize_rejects_negative(self, gen32):
        with pytest.raises(ValueError):
            gen32.resize_cache(-1)

    def test_resize_shrinks_and_zero_disables(self, gen32):
        addrs = 0x1000 + 16 * np.arange(8, dtype=np.uint64)
        gen32.pad_elements_at(addrs, 0)
        gen32.resize_cache(2)
        info = gen32.cache_info()
        assert info.currsize == 2 and info.maxsize == 2 and info.evictions == 6
        gen32.resize_cache(0)
        assert gen32.cache_info().currsize == 0
