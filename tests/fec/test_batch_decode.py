"""Batched Viterbi/RCPC decode: byte-identity with the scalar path.

The batched decoders are the same add-compare-select kernel with the
step loop lifted to ``(batch, states)`` arrays — branch metrics
accumulate in the same floating-point order, so equivalence here is
*byte* identity across random damage, erasure, weight, and termination
patterns, not a statistical bound.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.fec.convolutional import ConvolutionalCode
from repro.fec.rcpc import RATE_ORDER, RcpcCodec
from repro.fec.viterbi import (
    _SWEEP_ROWS,
    ERASED,
    viterbi_decode,
    viterbi_decode_batch,
)


@pytest.fixture
def code():
    return ConvolutionalCode()


@pytest.fixture
def rng():
    return np.random.default_rng(2024)


def _damaged_batch(code, rng, batch, info_bits, flip=0.03, erase=0.0):
    rows = []
    for _ in range(batch):
        bits = rng.integers(0, 2, info_bits).astype(np.uint8)
        coded = code.encode(bits)
        coded[rng.random(coded.size) < flip] ^= 1
        if erase:
            coded[rng.random(coded.size) < erase] = ERASED
        rows.append(coded)
    return np.stack(rows)


class TestViterbiBatchIdentity:
    @pytest.mark.parametrize("terminated", [True, False])
    def test_matches_scalar_across_random_patterns(
        self, code, rng, terminated
    ):
        received = _damaged_batch(code, rng, 9, 64, flip=0.05, erase=0.08)
        batched = viterbi_decode_batch(code, received, terminated=terminated)
        for row in range(received.shape[0]):
            scalar = viterbi_decode(
                code, received[row], terminated=terminated
            )
            np.testing.assert_array_equal(batched[row], scalar)

    def test_matches_scalar_with_random_weights(self, code, rng):
        received = _damaged_batch(code, rng, 6, 48, flip=0.06, erase=0.05)
        weights = rng.random(received.shape)
        batched = viterbi_decode_batch(code, received, weights=weights)
        for row in range(received.shape[0]):
            scalar = viterbi_decode(
                code, received[row], weights=weights[row]
            )
            np.testing.assert_array_equal(batched[row], scalar)

    def test_all_ones_weights_identical_to_no_weights(self, code, rng):
        received = _damaged_batch(code, rng, 5, 64, flip=0.04, erase=0.1)
        plain = viterbi_decode_batch(code, received)
        weighted = viterbi_decode_batch(
            code, received, weights=np.ones(received.shape)
        )
        np.testing.assert_array_equal(plain, weighted)

    def test_batch_of_one_equals_scalar(self, code, rng):
        received = _damaged_batch(code, rng, 1, 128, flip=0.03)
        np.testing.assert_array_equal(
            viterbi_decode_batch(code, received)[0],
            viterbi_decode(code, received[0]),
        )

    def test_empty_batch_and_empty_steps(self, code):
        assert viterbi_decode_batch(
            code, np.empty((0, 12), dtype=np.uint8)
        ).shape == (0, 0)
        assert viterbi_decode_batch(
            code, np.empty((3, 0), dtype=np.uint8)
        ).shape == (3, 0)

    def test_shape_validation(self, code):
        with pytest.raises(ValueError, match="2-D"):
            viterbi_decode_batch(code, np.zeros(16, dtype=np.uint8))
        with pytest.raises(ValueError, match="multiple"):
            viterbi_decode_batch(code, np.zeros((2, 15), dtype=np.uint8))
        with pytest.raises(ValueError, match="weights shape"):
            viterbi_decode_batch(
                code,
                np.zeros((2, 16), dtype=np.uint8),
                weights=np.ones((2, 8)),
            )


class TestRcpcBatchIdentity:
    @pytest.mark.parametrize("rate_name", RATE_ORDER)
    def test_matches_scalar_per_rate(self, rate_name, rng):
        codec = RcpcCodec(rate_name)
        batch, info_bits = 7, 96
        rows = []
        for _ in range(batch):
            bits = rng.integers(0, 2, info_bits).astype(np.uint8)
            transmitted = codec.encode(bits)
            transmitted[rng.random(transmitted.size) < 0.02] ^= 1
            rows.append(transmitted)
        received = np.stack(rows)
        weights = rng.random(received.shape)
        for w in (None, weights):
            batched = codec.decode_batch(received, weights=w)
            for row in range(batch):
                scalar = codec.decode(
                    received[row], None if w is None else w[row]
                )
                np.testing.assert_array_equal(batched[row], scalar)

    def test_clean_roundtrip(self, rng):
        codec = RcpcCodec("2/3")
        info = rng.integers(0, 2, (5, 64)).astype(np.uint8)
        received = np.stack([codec.encode(row) for row in info])
        decoded = codec.decode_batch(received)
        np.testing.assert_array_equal(decoded, info)

    def test_shape_validation(self):
        codec = RcpcCodec("1/2")
        with pytest.raises(ValueError, match="2-D"):
            codec.decode_batch(np.zeros(16, dtype=np.uint8))
        with pytest.raises(ValueError, match="weights shape"):
            codec.decode_batch(
                np.zeros((2, 16), dtype=np.uint8), weights=np.ones((2, 4))
            )

    def test_mixed_weighted_and_unweighted_rows_batch_together(self, rng):
        """fec_eval batches marked (weighted) and unmarked rows in one
        decode by giving unmarked rows all-ones weights — that must
        equal scalar decodes with weights=None for those rows."""
        codec = RcpcCodec("4/5")
        info = rng.integers(0, 2, (4, 48)).astype(np.uint8)
        received = np.stack([codec.encode(row) for row in info])
        received[rng.random(received.shape) < 0.03] ^= 1
        weights = np.ones(received.shape)
        weights[1] = rng.random(received.shape[1])
        batched = codec.decode_batch(received, weights=weights)
        np.testing.assert_array_equal(
            batched[0], codec.decode(received[0])
        )
        np.testing.assert_array_equal(
            batched[1], codec.decode(received[1], weights[1])
        )


# Batch sizes straddling the sweep block: one row, one short of a
# block, exactly one, one over, and two blocks plus one.
BLOCK_BATCHES = [1, 63, 64, 65, 129]


def _mixed_rows(rng, received):
    """Erase in about half the rows; weight about half the rows (the
    rest all-ones, decoded against ``weights=None``)."""
    received = received.copy()
    erased_rows = rng.random(received.shape[0]) < 0.5
    erase = (rng.random(received.shape) < 0.1) & erased_rows[:, None]
    received[erase] = ERASED
    weighted_rows = rng.random(received.shape[0]) < 0.5
    weights = rng.random(received.shape)
    weights[~weighted_rows] = 1.0
    return received, weights, weighted_rows


class TestSweepBlockBoundaries:
    """Batches are swept :data:`_SWEEP_ROWS` rows at a time; a row must
    decode the same whichever block, and block position, it lands in.

    The compiled-tier CI leg runs these same cases with the numba
    kernel substituted, so both tiers see the same blocks.
    """

    def test_cases_straddle_the_block(self):
        assert _SWEEP_ROWS == 64

    @pytest.mark.parametrize("terminated", [True, False])
    @pytest.mark.parametrize("batch", BLOCK_BATCHES)
    def test_viterbi_rows_match_scalar(self, code, rng, batch, terminated):
        clean = _damaged_batch(code, rng, batch, 24, flip=0.06)
        received, weights, weighted_rows = _mixed_rows(rng, clean)
        plain = viterbi_decode_batch(code, received, terminated=terminated)
        mixed = viterbi_decode_batch(
            code, received, terminated=terminated, weights=weights
        )
        for row in range(batch):
            np.testing.assert_array_equal(
                plain[row],
                viterbi_decode(code, received[row], terminated=terminated),
            )
            np.testing.assert_array_equal(
                mixed[row],
                viterbi_decode(
                    code,
                    received[row],
                    terminated=terminated,
                    weights=weights[row] if weighted_rows[row] else None,
                ),
            )

    @pytest.mark.parametrize("rate_name", ["8/9", "1/2"])
    @pytest.mark.parametrize("batch", BLOCK_BATCHES)
    def test_rcpc_rows_match_scalar(self, rng, batch, rate_name):
        codec = RcpcCodec(rate_name)
        info = rng.integers(0, 2, (batch, 24)).astype(np.uint8)
        transmitted = np.stack([codec.encode(row) for row in info])
        transmitted[rng.random(transmitted.shape) < 0.04] ^= 1
        received, weights, weighted_rows = _mixed_rows(rng, transmitted)
        plain = codec.decode_batch(received)
        mixed = codec.decode_batch(received, weights=weights)
        for row in range(batch):
            np.testing.assert_array_equal(
                plain[row], codec.decode(received[row])
            )
            np.testing.assert_array_equal(
                mixed[row],
                codec.decode(
                    received[row],
                    weights[row] if weighted_rows[row] else None,
                ),
            )


class TestRcpcScalarDecode:
    def test_weights_length_mismatch_is_a_value_error(self):
        codec = RcpcCodec("4/5")
        received = codec.encode(np.zeros(16, dtype=np.uint8))
        with pytest.raises(ValueError, match="weights length"):
            codec.decode(received, np.ones(len(received) - 1))

    def test_depunctured_streams_of_every_rate_decode_together(self, rng):
        """Every rate maps the same information length onto the same
        mother stream, so mixed-rate rows decode in one mother-code
        batch exactly as each rate's own decode does."""
        info = rng.integers(0, 2, 40).astype(np.uint8)
        mothers, expected = [], []
        for rate_name in RATE_ORDER:
            codec = RcpcCodec(rate_name)
            received = np.stack([codec.encode(info)] * 3)
            received[rng.random(received.shape) < 0.05] ^= 1
            mother, _ = codec.depuncture(received)
            mothers.append(mother)
            expected.append(codec.decode_batch(received))
        decoded = RcpcCodec("1/2").decode_batch(np.concatenate(mothers))
        np.testing.assert_array_equal(decoded, np.concatenate(expected))
