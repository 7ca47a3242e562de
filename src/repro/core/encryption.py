"""SecNDP arithmetic encryption - Algorithm 1, ``Arith-E(K, P, Addr)``.

The plaintext matrix is split into ``w_c``-bit chunks; each chunk's
physical address (and the region version) seeds the block cipher to
produce an OTP block; each ``w_e``-bit element is encrypted by *ring
subtraction* ``c_j = p_j - e_j mod 2^w_e``.  Ciphertext and OTP then form
a two-party arithmetic sharing of the plaintext (Fig. 2(d), Fig. 3):
``C + E = P``, which is what lets the untrusted NDP compute on ``C``
while the processor computes on ``E``.

The inverse operation (ring addition of the regenerated pad) is what the
paper calls decryption; in hardware it is the single adder on the
``SecNDPLd`` critical path (Sec. V-E3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..crypto.aes import BLOCK_BYTES
from ..crypto.otp import OtpGenerator
from ..crypto.tweaked import TweakedCipher
from ..errors import ConfigurationError
from .params import SecNDPParams

__all__ = ["EncryptedMatrix", "ArithmeticEncryptor"]


@dataclass
class EncryptedMatrix:
    """Ciphertext of a 2-D matrix plus the metadata needed to operate on it.

    ``ciphertext`` is an ``(n, m)`` array of ring residues living (in the
    architectural model) in untrusted memory at byte address ``base_addr``.
    ``tags``, when present, is the list of per-row encrypted tags
    ``C_{T_i}`` produced by Alg. 3 - also untrusted data.
    """

    ciphertext: np.ndarray
    base_addr: int
    version: int
    params: SecNDPParams
    tags: Optional[list] = None
    checksum_version: Optional[int] = None
    tag_version: Optional[int] = None

    @property
    def n_rows(self) -> int:
        return self.ciphertext.shape[0]

    @property
    def n_cols(self) -> int:
        return self.ciphertext.shape[1]

    @property
    def row_bytes(self) -> int:
        return self.n_cols * self.params.element_bytes

    def row_addr(self, i: int) -> int:
        """Physical byte address of row ``i`` (``paddr(P_i)``)."""
        if not 0 <= i < self.n_rows:
            raise IndexError(f"row {i} out of range [0, {self.n_rows})")
        return self.base_addr + i * self.row_bytes

    def element_addr(self, i: int, j: int) -> int:
        """Physical byte address of element ``P_{i,j}``."""
        if not 0 <= j < self.n_cols:
            raise IndexError(f"column {j} out of range [0, {self.n_cols})")
        return self.row_addr(i) + j * self.params.element_bytes


class ArithmeticEncryptor:
    """Implements Alg. 1 (and its inverse) for matrices of ring elements.

    Parameters
    ----------
    cipher:
        The processor's tweaked cipher (holds the secret key ``K``).
    params:
        Shared scheme parameters; fixes ``w_e`` and the chunk geometry.
    """

    def __init__(self, cipher: TweakedCipher, params: SecNDPParams):
        self.cipher = cipher
        self.params = params
        self.ring = params.ring()
        self.otp = OtpGenerator(cipher, self.ring)

    def encrypt(
        self, plaintext: np.ndarray, base_addr: int, version: int
    ) -> EncryptedMatrix:
        """Encrypt a matrix of ring residues placed at ``base_addr``.

        ``plaintext`` must already be ring residues (use
        :meth:`~repro.crypto.ring.Ring.encode` for signed values).  The
        total size must divide into whole cipher blocks and ``base_addr``
        must be block aligned, exactly as Alg. 1 assumes when it walks the
        matrix chunk by chunk.
        """
        plaintext = np.asarray(plaintext, dtype=self.ring.dtype)
        if plaintext.ndim != 2:
            raise ConfigurationError("plaintext must be 2-D (n rows x m columns)")
        n, m = plaintext.shape
        total_bits = n * m * self.params.element_bits
        if total_bits % self.params.block_bits:
            raise ConfigurationError(
                f"matrix of {n}x{m} {self.params.element_bits}-bit elements does "
                f"not divide into {self.params.block_bits}-bit cipher chunks"
            )
        if base_addr % BLOCK_BYTES:
            raise ConfigurationError(
                f"base address {base_addr:#x} must be {BLOCK_BYTES}-byte aligned"
            )
        pads = self.otp.pad_elements(base_addr, n * m, version).reshape(n, m)
        ciphertext = self.ring.sub(plaintext, pads)
        return EncryptedMatrix(
            ciphertext=ciphertext,
            base_addr=base_addr,
            version=version,
            params=self.params,
        )

    def decrypt(self, encrypted: EncryptedMatrix) -> np.ndarray:
        """Recover the plaintext residues: ``P = C + E mod 2^w_e``."""
        n, m = encrypted.ciphertext.shape
        pads = self.otp.pad_elements(
            encrypted.base_addr, n * m, encrypted.version
        ).reshape(n, m)
        return self.ring.add(encrypted.ciphertext, pads)

    def pads_for_rows(
        self, encrypted: EncryptedMatrix, rows: Sequence[int]
    ) -> np.ndarray:
        """Regenerate OTP elements for a set of rows (the ``E_i`` of Fig. 4).

        This is the processor-side share used during computation; it never
        touches memory - the pads are derived purely from addresses and the
        version (the property that makes SecNDP bandwidth-free on the OTP
        side).  Pad blocks come through the OTP generator's block LRU.
        """
        rows = np.asarray(rows, dtype=np.int64)
        m = encrypted.n_cols
        elem_bytes = self.params.element_bytes
        addrs = (
            encrypted.base_addr
            + rows[:, None].astype(np.uint64) * np.uint64(encrypted.row_bytes)
            + np.arange(m, dtype=np.uint64)[None, :] * np.uint64(elem_bytes)
        )
        flat = self.otp.pad_elements_at(addrs.reshape(-1), encrypted.version)
        return flat.reshape(len(rows), m)

    def pad_for_element(
        self, encrypted: EncryptedMatrix, i: int, j: int
    ) -> int:
        """Single-element pad ``E_{i,j}`` (Alg. 4 lines 9-11)."""
        return self.otp.pad_element_at(
            encrypted.element_addr(i, j), encrypted.version
        )
