"""One-time-pad (OTP) generation for SecNDP arithmetic encryption.

Alg. 1 derives the processor's share of the secret by encrypting counter
blocks: plaintext is split into ``w_c``-bit chunks, the chunk's physical
byte address (plus the version) is fed through ``E_00`` and the resulting
128-bit pad is sliced into ``l = w_c / w_e`` ring elements.

This module produces exactly those pad elements, both for whole
matrices (bulk encryption, Alg. 1) and for scattered single elements
(Alg. 4 lines 8-12, where the processor regenerates only the pads of the
elements that participate in a weighted summation).

Hot-path note: scattered queries touch many elements that share a cipher
block (``l`` adjacent elements per block), so :meth:`pad_elements_at`
deduplicates block addresses before invoking AES and keeps a small
per-(version, address) LRU of recently generated pad blocks.  Pads are a
pure function of ``(K, version, address)``, so caching is semantically
invisible; repeated SLS queries over hot embedding rows skip the cipher
entirely.

Concurrency note: a store may be served from more than one thread (the
serving front-end and the parallel engine's offload thread).  Every
cache operation here is a single C-level dict/OrderedDict call (atomic
under the GIL) and pad rows are immutable copies, so interleavings can
only cost a duplicated AES call or a slightly-early eviction — never a
wrong pad.  The two read-modify-write spots that could observe a
concurrent eviction (``move_to_end`` after a hit, ``popitem`` while
shrinking) tolerate ``KeyError``.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import NamedTuple

import numpy as np

from .. import obs
from .aes import BLOCK_BYTES
from .ring import Ring
from .tweaked import DOMAIN_DATA, TweakedCipher

__all__ = [
    "OtpGenerator",
    "OtpCacheInfo",
    "merge_cache_info",
    "publish_cache_gauges",
]


class OtpCacheInfo(NamedTuple):
    """Pad-block LRU statistics (mirrors ``functools.lru_cache.cache_info``)."""

    hits: int
    misses: int
    evictions: int
    currsize: int
    maxsize: int

def merge_cache_info(infos) -> OtpCacheInfo:
    """Aggregate :class:`OtpCacheInfo` tuples from independent generators.

    Each pool worker owns a private pad-block LRU; this sums their
    hit/miss/eviction counters and sizes so a sharded
    ``SecureEmbeddingStore`` can report one fleet-wide ``cache_info()``.
    ``maxsize`` sums too — it is the total pad memory the fleet may pin.
    """
    hits = misses = evictions = currsize = maxsize = 0
    for info in infos:
        hits += info.hits
        misses += info.misses
        evictions += info.evictions
        currsize += info.currsize
        maxsize += info.maxsize
    return OtpCacheInfo(
        hits=hits,
        misses=misses,
        evictions=evictions,
        currsize=currsize,
        maxsize=maxsize,
    )


def publish_cache_gauges(prefix: str, info: OtpCacheInfo) -> None:
    """Export one cache-info tuple as ``{prefix}.*`` gauges.

    Used for the fleet-wide (store + pool workers) views the CLI's
    ``--stats`` output reports: counters live in each process, so the
    merged tuple is published from the parent as point-in-time gauges.
    """
    if not obs.enabled():
        return
    obs.gauge(f"{prefix}.hits", info.hits)
    obs.gauge(f"{prefix}.misses", info.misses)
    obs.gauge(f"{prefix}.evictions", info.evictions)
    obs.gauge(f"{prefix}.currsize", info.currsize)
    obs.gauge(f"{prefix}.maxsize", info.maxsize)
    served = info.hits + info.misses
    if served:
        obs.gauge(f"{prefix}.hit_rate", info.hits / served)


#: Default LRU capacity in cipher blocks (16 B of pad each); at the
#: default 4096 blocks the cache tops out well under 1 MiB.
DEFAULT_CACHE_BLOCKS = 4096


class OtpGenerator:
    """Generates data-domain OTP elements from (address, version) pairs.

    Parameters
    ----------
    cipher:
        The shared :class:`~repro.crypto.tweaked.TweakedCipher`.
    ring:
        Element ring ``Z(2^w_e)``; determines how each 128-bit pad block is
        sliced into elements (``l = w_c / w_e`` per block).
    cache_blocks:
        Capacity of the block-pad LRU (0 disables caching).
    """

    def __init__(
        self, cipher: TweakedCipher, ring: Ring, cache_blocks: int = DEFAULT_CACHE_BLOCKS
    ):
        self.cipher = cipher
        self.ring = ring
        self.elements_per_block = BLOCK_BYTES * 8 // ring.width
        self.cache_blocks = cache_blocks
        self._block_cache: "OrderedDict[tuple, np.ndarray]" = OrderedDict()
        #: bytes one cached pad row pins (the ``otp.cache.bytes`` gauge
        #: is ``currsize * entry_bytes``).
        self.entry_bytes = self.elements_per_block * np.dtype(ring.dtype).itemsize
        self.cache_hits = 0
        self.cache_misses = 0
        self.cache_evictions = 0

    # -- block-level pad generation -------------------------------------------

    def _encrypt_blocks(self, block_addrs: np.ndarray, version: int) -> np.ndarray:
        """Pad rows ``(len(block_addrs), l)`` straight from the cipher."""
        pads = self.cipher.encrypt_counters(DOMAIN_DATA, block_addrs, version)
        return self.ring.from_bytes(pads).reshape(
            len(block_addrs), self.elements_per_block
        )

    def _pads_for_blocks(self, block_addrs: np.ndarray, version: int) -> np.ndarray:
        """Like :meth:`_encrypt_blocks` but served through the LRU.

        Callers pass *deduplicated* block addresses; only cache misses
        reach the cipher, in one vectorized sweep.
        """
        if not self.cache_blocks:
            return self._encrypt_blocks(block_addrs, version)
        out = np.empty(
            (len(block_addrs), self.elements_per_block), dtype=self.ring.dtype
        )
        cache = self._block_cache
        missing: list = []
        missing_pos: list = []
        for pos, addr in enumerate(block_addrs.tolist()):
            key = (version, addr)
            row = cache.get(key)
            if row is None:
                missing.append(addr)
                missing_pos.append(pos)
            else:
                try:
                    cache.move_to_end(key)
                except KeyError:
                    # A concurrent eviction raced the hit; the row
                    # reference is still valid, only the LRU position is
                    # lost.
                    pass
                out[pos] = row
        hits = len(block_addrs) - len(missing)
        self.cache_hits += hits
        self.cache_misses += len(missing)
        if obs.enabled():
            obs.inc("otp.cache.hit", hits)
            obs.inc("otp.cache.miss", len(missing))
        if missing:
            rows = self._encrypt_blocks(
                np.asarray(missing, dtype=np.uint64), version
            )
            for k, pos in enumerate(missing_pos):
                out[pos] = rows[k]
                cache[(version, missing[k])] = rows[k].copy()
            self._evict_to_capacity()
        return out

    def _evict_to_capacity(self) -> None:
        """Shrink the LRU to ``cache_blocks`` in one accounted pass.

        The excess is computed once and popped in a single sweep (instead
        of re-checking ``len`` and incrementing counters per pop), and the
        resident pad memory is republished so sizing decisions are
        observable via the ``otp.cache.bytes`` gauge.
        """
        cache = self._block_cache
        excess = len(cache) - self.cache_blocks
        if excess > 0:
            for _ in range(excess):
                try:
                    cache.popitem(last=False)
                except KeyError:  # another thread emptied it first
                    break
            self.cache_evictions += excess
            obs.inc("otp.cache.eviction", excess)
        if obs.enabled():
            obs.gauge("otp.cache.bytes", len(cache) * self.entry_bytes)

    def cache_info(self) -> OtpCacheInfo:
        """Current pad-block LRU statistics.

        ``currsize`` is bounded by ``maxsize`` (the constructor's
        ``cache_blocks``); once the workload's distinct-block footprint
        exceeds the capacity, ``evictions`` starts counting and memory
        stays flat.
        """
        return OtpCacheInfo(
            hits=self.cache_hits,
            misses=self.cache_misses,
            evictions=self.cache_evictions,
            currsize=len(self._block_cache),
            maxsize=self.cache_blocks,
        )

    def clear_cache(self) -> None:
        self._block_cache.clear()
        self.cache_hits = 0
        self.cache_misses = 0
        self.cache_evictions = 0

    def resize_cache(self, cache_blocks: int) -> None:
        """Change the LRU capacity in place.

        Growing keeps every resident pad; shrinking evicts the coldest
        entries down to the new capacity.  ``0`` disables caching and
        drops everything.
        """
        if cache_blocks < 0:
            raise ValueError("cache_blocks must be non-negative")
        self.cache_blocks = cache_blocks
        if cache_blocks == 0:
            self._block_cache.clear()
        else:
            self._evict_to_capacity()
        if obs.enabled():
            obs.gauge("otp.cache.capacity_blocks", cache_blocks)
            obs.gauge("otp.cache.bytes", len(self._block_cache) * self.entry_bytes)

    def purge_version(self, version: int) -> int:
        """Drop every cached pad generated under ``version``.

        For use after a region is re-encrypted under a bumped version:
        pads are keyed by ``(version, address)``, so stale entries can
        never be *served* for the new version, but they squat in the
        capacity until natural eviction.  Returns the number of entries
        dropped.
        """
        stale = [key for key in list(self._block_cache) if key[0] == version]
        dropped = 0
        for key in stale:
            try:
                del self._block_cache[key]
            except KeyError:
                continue
            dropped += 1
        if dropped and obs.enabled():
            obs.inc("otp.cache.purged", dropped)
            obs.gauge("otp.cache.bytes", len(self._block_cache) * self.entry_bytes)
        return dropped

    # -- element-level pad generation -----------------------------------------

    def pad_elements(self, base_addr: int, count: int, version: int) -> np.ndarray:
        """OTP elements covering ``count`` consecutive elements at ``base_addr``.

        ``base_addr`` is a byte address and must be aligned to the cipher
        block size, matching Alg. 1 where chunk ``i`` lives at
        ``Addr + i * (w_c / 8)``.  Bulk generation bypasses the LRU: the
        addresses are distinct by construction and a whole-matrix sweep
        would only evict the hot query blocks.
        """
        if base_addr % BLOCK_BYTES:
            raise ValueError(
                f"base address {base_addr:#x} not aligned to {BLOCK_BYTES}-byte blocks"
            )
        if count < 0:
            raise ValueError("count must be non-negative")
        n_blocks = -(-count // self.elements_per_block)  # ceil division
        addrs = base_addr + BLOCK_BYTES * np.arange(n_blocks, dtype=np.uint64)
        pads = self.cipher.encrypt_counters(DOMAIN_DATA, addrs, version)
        return self.ring.from_bytes(pads)[:count]

    def pad_element_at(self, elem_byte_addr: int, version: int) -> int:
        """The single OTP element covering the element at ``elem_byte_addr``.

        Mirrors Alg. 4 lines 9-11: the block address is the element address
        rounded down to the cipher block, and ``idx`` selects the
        ``w_e``-bit substring inside the pad.
        """
        elem_bytes = self.ring.width // 8
        if elem_byte_addr % elem_bytes:
            raise ValueError(
                f"element address {elem_byte_addr:#x} not aligned to "
                f"{elem_bytes}-byte elements"
            )
        block_addr = (elem_byte_addr // BLOCK_BYTES) * BLOCK_BYTES
        idx = (elem_byte_addr % BLOCK_BYTES) // elem_bytes
        row = self._pads_for_blocks(
            np.asarray([block_addr], dtype=np.uint64), version
        )[0]
        return int(row[idx])

    def pad_elements_at(
        self, elem_byte_addrs: np.ndarray, version: int
    ) -> np.ndarray:
        """Vectorised :meth:`pad_element_at` for scattered element addresses.

        Adjacent elements share cipher blocks (``l`` per block), so the
        block addresses are deduplicated before encryption: a pooled SLS
        query over contiguous rows pays one AES call per *block* touched,
        not one per element, and hot blocks come from the LRU for free.
        """
        addrs = np.asarray(elem_byte_addrs, dtype=np.uint64)
        elem_bytes = self.ring.width // 8
        if addrs.size and int(np.max(addrs % elem_bytes)):
            raise ValueError("element addresses must be element-aligned")
        if addrs.size == 0:
            return np.empty(0, dtype=self.ring.dtype)
        block_addrs = (addrs // BLOCK_BYTES) * BLOCK_BYTES
        idx = ((addrs % BLOCK_BYTES) // elem_bytes).astype(np.intp)
        unique_blocks, inverse = np.unique(block_addrs, return_inverse=True)
        if obs.enabled():
            obs.inc("otp.elements", int(addrs.size))
            obs.inc("otp.dedupe.saved_blocks", int(addrs.size - unique_blocks.size))
        pad_rows = self._pads_for_blocks(unique_blocks, version)
        return pad_rows[inverse, idx]
