"""Batched FEC replay against per-packet and per-rate oracles.

The ``throughput``, ``fec`` and ``burst`` experiments decode whole
populations of damaged blocks in one batched Viterbi sweep.  The
oracles below are the per-packet (``throughput``, ``burst``) and
per-rate (``fec``) decode loops those sweeps replaced; the batched
results must equal them exactly, not statistically.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments import burst_ablation, fec_eval, throughput
from repro.fec.interleave import BlockInterleaver
from repro.fec.rcpc import RATE_ORDER, RcpcCodec
from repro.fec.viterbi import ERASED
from repro.framing.testpacket import BODY_BITS


def _fec_recovers(syndrome, codec, interleaver, info, transmitted) -> bool:
    """Per-packet oracle: one B=1 decode per damaged packet."""
    scale = len(transmitted) / BODY_BITS
    positions = np.unique((syndrome.body_bit_positions * scale).astype(np.int64))
    positions = positions[positions < len(transmitted)]
    stream = interleaver.scramble(transmitted).copy()
    stream[positions] ^= 1
    return bool(np.array_equal(codec.decode(interleaver.unscramble(stream)), info))


def _per_packet_recovered(syndromes, codec, interleaver, info, transmitted) -> int:
    return sum(
        _fec_recovers(syndrome, codec, interleaver, info, transmitted)
        for syndrome in syndromes
    )


@pytest.mark.parametrize("seed", [99, 1996])
def test_throughput_points_equal_per_packet_oracle(seed, monkeypatch):
    batched = throughput.run(scale=0.1, seed=seed).points
    monkeypatch.setattr(throughput, "_fec_recovered", _per_packet_recovered)
    oracle = throughput.run(scale=0.1, seed=seed).points
    assert batched == oracle
    # The replay must have had real work to agree on.
    assert sum(p.fec_recovered for p in oracle) > 0


def _evaluate_rate(scenario, syndromes, rate_name, interleaved, marking="none"):
    """Per-rate oracle: one ``decode_batch`` per (rate, interleaving,
    marking) cell, unmarked cells decoded without weights."""
    codec = RcpcCodec(rate_name)
    interleaver = BlockInterleaver(rows=32, columns=64)
    rng = np.random.default_rng(7)
    info = rng.integers(0, 2, 1024).astype(np.uint8)
    transmitted = codec.encode(info)
    coded_bits = len(transmitted)
    damaged_rows, weight_rows = [], []
    for syndrome in syndromes:
        span_positions = fec_eval._window_syndrome(syndrome, coded_bits, rng)
        damaged = (
            interleaver.scramble(transmitted) if interleaved else transmitted
        ).copy()
        positions = span_positions[span_positions < len(damaged)]
        damaged[positions] ^= 1
        weights = None
        if marking != "none" and len(positions):
            lo = max(0, int(positions.min()) - fec_eval.WINDOW_PAD_BITS)
            hi = min(coded_bits, int(positions.max()) + fec_eval.WINDOW_PAD_BITS)
            if marking == "erase":
                damaged[lo:hi] = ERASED
            else:
                weights = np.ones(coded_bits, dtype=np.float64)
                weights[lo:hi] = fec_eval.SOFT_WEIGHT
        if interleaved:
            damaged = interleaver.unscramble(damaged)
            if weights is not None:
                weights = interleaver.unscramble(weights)
        damaged_rows.append(damaged)
        weight_rows.append(weights)
    recovered = residual = 0
    if damaged_rows:
        weights_block = None
        if any(w is not None for w in weight_rows):
            weights_block = np.stack(
                [np.ones(coded_bits) if w is None else w for w in weight_rows]
            )
        decoded = codec.decode_batch(np.stack(damaged_rows), weights=weights_block)
        errors = (decoded != info[None, :]).sum(axis=1)
        recovered = int((errors == 0).sum())
        residual = int(errors.sum())
    return fec_eval.RateOutcome(
        scenario=scenario,
        rate_name=rate_name,
        interleaved=interleaved,
        packets=len(syndromes),
        packets_recovered=recovered,
        residual_bit_errors=residual,
        overhead_fraction=codec.overhead,
        marking=marking,
    )


def _per_rate_outcomes(scenario, syndromes):
    outcomes = [
        _evaluate_rate(scenario, syndromes, rate_name, interleaved)
        for rate_name in RATE_ORDER
        for interleaved in (False, True)
    ]
    outcomes += [
        _evaluate_rate(scenario, syndromes, "1/2", True, marking)
        for marking in ("erase", "soft")
    ]
    return outcomes


@pytest.fixture(scope="module")
def harvested():
    """Each damage source's syndromes at scale 0.1, harvested once."""
    return {
        name: fec_eval._collect_syndromes(source.harvest(0.1, 81), 60)
        for name, source in fec_eval.DAMAGE_SOURCES.items()
    }


@pytest.mark.parametrize("syndrome_limit", [25, 60])
@pytest.mark.parametrize("scenario", sorted(fec_eval.DAMAGE_SOURCES))
def test_fec_single_sweep_equals_per_rate_oracle(
    harvested, scenario, syndrome_limit
):
    syndromes = harvested[scenario][:syndrome_limit]
    assert syndromes
    swept = fec_eval._evaluate_cells(scenario, syndromes)
    assert swept == _per_rate_outcomes(scenario, syndromes)


def test_fec_empty_syndrome_population():
    outcomes = fec_eval._evaluate_cells("none", [])
    assert outcomes == _per_rate_outcomes("none", [])
    assert all(o.packets == 0 and o.recovery_fraction == 1.0 for o in outcomes)


def _run_ber_per_packet(mean_ber, packets, seed):
    """Per-packet oracle for one BER point of the burst ablation."""
    outcomes = []
    rng = np.random.default_rng(seed)
    interleaver = BlockInterleaver(32, 64)
    info = rng.integers(0, 2, burst_ablation.INFO_BITS).astype(np.uint8)
    for rate_name in RATE_ORDER:
        codec = RcpcCodec(rate_name)
        transmitted = codec.encode(info)
        for channel in ("iid", "burst"):
            for interleaved in (False, True):
                recovered = 0
                for _ in range(packets):
                    positions = burst_ablation._error_positions(
                        channel, mean_ber, len(transmitted), rng
                    )
                    stream = (
                        interleaver.scramble(transmitted) if interleaved else transmitted
                    ).copy()
                    stream[positions] ^= 1
                    if interleaved:
                        stream = interleaver.unscramble(stream)
                    recovered += bool(np.array_equal(codec.decode(stream), info))
                outcomes.append(
                    burst_ablation.BurstOutcome(
                        mean_ber, rate_name, channel, interleaved, packets, recovered
                    )
                )
    return outcomes


@pytest.mark.parametrize("mean_ber", [3e-3, 1e-2])
def test_burst_cells_equal_per_packet_oracle(mean_ber, monkeypatch):
    # A short information block keeps the B=1 oracle loop fast.
    monkeypatch.setattr(burst_ablation, "INFO_BITS", 160)
    batched = burst_ablation._run_ber(mean_ber, packets=12, seed=5)
    assert batched == _run_ber_per_packet(mean_ber, packets=12, seed=5)
    recovered = [o.packets_recovered for o in batched]
    assert 0 < sum(recovered) < 12 * len(batched)
