"""Property-based end-to-end protocol tests across parameterisations.

These exercise Theorems A.1/A.2 as executable properties: for *any*
element width, matrix, index multiset and non-negative weights within the
overflow budget, the reconstructed result equals the integer weighted sum
and verification passes; any single-bit ciphertext flip in a queried row
fails verification.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SecNDPParams, SecNDPProcessor, UntrustedNdpDevice
from repro.errors import VerificationError

KEY = bytes(range(16))

# Cache processors per width: key schedule + params are reusable.
_PROCESSORS = {}


def processor_for(width: int) -> SecNDPProcessor:
    if width not in _PROCESSORS:
        _PROCESSORS[width] = SecNDPProcessor(KEY, SecNDPParams(element_bits=width))
    return _PROCESSORS[width]


@st.composite
def protocol_case(draw):
    width = draw(st.sampled_from([8, 16, 32]))
    n_rows = draw(st.integers(2, 12))
    elems_per_block = 128 // width
    m = elems_per_block * draw(st.integers(1, 3))
    pf = draw(st.integers(1, 6))
    rows = draw(
        st.lists(st.integers(0, n_rows - 1), min_size=pf, max_size=pf)
    )
    # Budget values/weights so sum stays below 2^width (Thm. A.2 premise):
    # pf * max_w * max_v < 2^width, with max_w <= 3.
    max_v = max(((1 << width) - 1) // (6 * 3), 1)
    weights = draw(st.lists(st.integers(0, 3), min_size=pf, max_size=pf))
    seed = draw(st.integers(0, 2**16))
    values = np.random.default_rng(seed).integers(
        0, max_v + 1, size=(n_rows, m), dtype=np.int64
    )
    version_salt = draw(st.integers(0, 1000))
    return width, values, rows, weights, version_salt


class TestCorrectnessProperty:
    @given(protocol_case())
    @settings(max_examples=40, deadline=None)
    def test_weighted_sum_and_verification(self, case):
        width, values, rows, weights, salt = case
        proc = processor_for(width)
        device = UntrustedNdpDevice(proc.params)
        ring = proc.ring
        enc = proc.encrypt_matrix(
            ring.encode(values), 0x1000, "prop", with_tags=True  # one region, fresh versions per example
        )
        device.store("m", enc)
        res = proc.weighted_row_sum(device, "m", rows, weights, verify=True)
        expected = (
            np.asarray(weights, dtype=np.int64)[:, None] * values[rows]
        ).sum(axis=0) % (1 << width)
        assert np.array_equal(res.values.astype(np.int64), expected)

    @given(protocol_case(), st.integers(1, 63))
    @settings(max_examples=25, deadline=None)
    def test_any_corruption_in_queried_row_detected(self, case, delta):
        """Soundness caveat baked into the construction: the result only
        changes by ``(sum of the row's weights) * delta mod 2^w_e``, so the
        test dedupes rows and bounds ``w * delta < 2^8`` - otherwise the
        corruption can *cancel*, leaving a correct result that rightly
        verifies."""
        width, values, rows, weights, salt = case
        rows = sorted(set(rows))                      # each row at most once
        weights = [max(w, 1) for w in weights[: len(rows)]]  # w in [1, 3]
        proc = processor_for(width)
        device = UntrustedNdpDevice(proc.params)
        enc = proc.encrypt_matrix(
            proc.ring.encode(values), 0x1000, "propc", with_tags=True
        )
        device.store("m", enc)
        # w * delta <= 3 * 63 = 189 < 2^8 <= 2^width: never cancels.
        device.corrupt_stored_ciphertext("m", rows[0], delta % values.shape[1], delta)
        with pytest.raises(VerificationError):
            proc.weighted_row_sum(device, "m", rows, weights, verify=True)


class TestDeterminismProperty:
    @given(protocol_case())
    @settings(max_examples=15, deadline=None)
    def test_idempotent_queries(self, case):
        width, values, rows, weights, salt = case
        proc = processor_for(width)
        device = UntrustedNdpDevice(proc.params)
        enc = proc.encrypt_matrix(
            proc.ring.encode(values), 0x2000, "propd", with_tags=True
        )
        device.store("m", enc)
        a = proc.weighted_row_sum(device, "m", rows, weights).values
        b = proc.weighted_row_sum(device, "m", rows, weights).values
        assert np.array_equal(a, b)


# -- one split protocol, four entry points -------------------------------------

#: Mersenne tag field for the multi-point checksum: cnt_s = 128/61 = 2 points.
SMALL_Q = (1 << 61) - 1


def multipoint_processor_for(width: int) -> SecNDPProcessor:
    key = ("mp", width)
    if key not in _PROCESSORS:
        params = SecNDPParams(element_bits=width, tag_modulus=SMALL_Q)
        _PROCESSORS[key] = SecNDPProcessor(KEY, params, multipoint_checksum=True)
    return _PROCESSORS[key]


@st.composite
def batch_case(draw):
    """A batch with duplicate rows, an empty query and one query at budget.

    Values and weights are budgeted so ``PF * max(a) * max(P) <= 2^w - 1``
    (Thm. A.2).  The at-budget query pools row 0, which holds the maximal
    value, at maximal weight exactly ``budget`` times: the largest PF the
    store's ``max_pooling_factor`` would admit for this table.
    """
    width = draw(st.sampled_from([8, 16, 32]))
    multipoint = draw(st.booleans())
    n_rows = draw(st.integers(2, 10))
    m = (128 // width) * draw(st.integers(1, 2))
    pf_max = draw(st.integers(1, 6))
    max_w = draw(st.integers(1, 3))
    max_v = ((1 << width) - 1) // (pf_max * max_w)
    values = np.random.default_rng(draw(st.integers(0, 2**16))).integers(
        0, max_v + 1, size=(n_rows, m), dtype=np.int64
    )
    values[0, 0] = max_v
    batch_rows = [
        draw(st.lists(st.integers(0, n_rows - 1), min_size=0, max_size=pf_max))
        for _ in range(draw(st.integers(0, 3)))
    ]
    batch_weights = [
        draw(st.lists(st.integers(0, max_w), min_size=len(r), max_size=len(r)))
        for r in batch_rows
    ]
    budget = ((1 << width) - 1) // (max_v * max_w)
    for rows, weights in (([], []), ([0] * budget, [max_w] * budget)):
        at = draw(st.integers(0, len(batch_rows)))
        batch_rows.insert(at, rows)
        batch_weights.insert(at, weights)
    cut = draw(st.integers(1, n_rows - 1))
    return width, multipoint, values, batch_rows, batch_weights, cut


def _single(proc, dev, batch_rows, batch_weights, cut):
    return [
        proc.weighted_row_sum(dev, "m", rows, weights)
        for rows, weights in zip(batch_rows, batch_weights)
    ]


def _batch(proc, dev, batch_rows, batch_weights, cut):
    return proc.weighted_row_sum_batch(dev, "m", batch_rows, batch_weights)


def _sharded(proc, dev, batch_rows, batch_weights, cut):
    parts = []
    for lo, hi in ((0, cut), (cut, dev.stored("m").n_rows)):
        masks = [[lo <= r < hi for r in rows] for rows in batch_rows]
        parts.append(
            proc.partial_row_sum_batch(
                dev,
                "m",
                [[r for r, k in zip(rows, mk) if k] for rows, mk in zip(batch_rows, masks)],
                [[w for w, k in zip(ws, mk) if k] for ws, mk in zip(batch_weights, masks)],
            )
        )
    return proc.finalize_row_sum_batch(dev.stored("m"), "m", parts, per_shard=True)


def _untrusted_split(proc, dev, batch_rows, batch_weights, cut):
    enc = dev.stored("m")
    pad = proc.pad_share_batch(enc, "m", batch_rows, batch_weights)
    share = proc.combine_device_sums(
        pad, *dev.partial_sum_batch("m", batch_rows, batch_weights)
    )
    return proc.finalize_row_sum_batch(enc, "m", [share])


PATHS = [_single, _batch, _sharded, _untrusted_split]


def _parties(width, multipoint, values):
    proc = multipoint_processor_for(width) if multipoint else processor_for(width)
    dev = UntrustedNdpDevice(proc.params)
    dev.store("m", proc.encrypt_matrix(proc.ring.encode(values), 0x3000, "diff"))
    return proc, dev


class TestSplitPathsDifferential:
    """Every entry point to the split protocol returns the oracle's bits."""

    @given(batch_case())
    @settings(max_examples=30, deadline=None)
    def test_every_path_returns_the_integer_oracle(self, case):
        width, multipoint, values, batch_rows, batch_weights, cut = case
        proc, dev = _parties(width, multipoint, values)
        expected = [
            (np.asarray(w, dtype=np.int64)[:, None] * values[r]).sum(axis=0)
            if r
            else np.zeros(values.shape[1], dtype=np.int64)
            for r, w in zip(batch_rows, batch_weights)
        ]
        assert all(int(e.max()) < (1 << width) for e in expected)  # no overflow
        for path in PATHS:
            results = path(proc, dev, batch_rows, batch_weights, cut)
            assert len(results) == len(expected), path.__name__
            for res, want in zip(results, expected):
                assert res.verified
                assert np.array_equal(res.values.astype(np.int64), want), path.__name__

    @given(batch_case(), st.sampled_from(["results", "tags"]))
    @settings(max_examples=15, deadline=None)
    def test_tampering_detected_on_every_path(self, case, target):
        width, multipoint, values, batch_rows, batch_weights, cut = case
        proc, dev = _parties(width, multipoint, values)
        getattr(dev, f"tamper_{target}")(1)
        for path in PATHS:
            with pytest.raises(VerificationError):
                path(proc, dev, batch_rows, batch_weights, cut)
            # An empty query never reaches the device, so the tampering
            # cannot touch it: zeros, verified, on every path.
            (empty,) = path(proc, dev, [[]], [[]], cut)
            assert empty.verified and not empty.values.any()
