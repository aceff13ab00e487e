"""Unit tests for the Appendix-A analytic throughput models."""

import pytest

from repro.analysis.model import (
    lbft_max_throughput,
    pab_ack_row_bytes,
    pbft_batched_max_throughput,
    pbft_max_throughput,
    smp_limit_throughput,
    smp_max_throughput,
    smp_optimal_microblock_bytes,
)

C = 1e9          # 1 Gb/s
B = 128 * 8      # 128-byte transactions, in bits
SIGMA = 100 * 8  # 100-byte votes


def test_lbft_declines_inversely_with_n():
    t16 = lbft_max_throughput(C, B, 16)
    t32 = lbft_max_throughput(C, B, 32)
    assert t16 / t32 == pytest.approx(31 / 15)


def test_lbft_known_value():
    # C/(B(n-1)) with n=2: full line rate.
    assert lbft_max_throughput(C, B, 2) == pytest.approx(C / B)


def test_pbft_below_lbft_due_to_votes():
    assert pbft_max_throughput(C, B, 32, SIGMA) < lbft_max_throughput(C, B, 32)


def test_pbft_batching_approaches_c_over_nb():
    n = 32
    batched = pbft_batched_max_throughput(C, B, n, SIGMA,
                                          batch_bits=512 * 1024 * 8)
    assert batched == pytest.approx(C / (n * B), rel=0.05)


def test_pbft_batching_helps():
    n = 32
    plain = pbft_max_throughput(C, B, n, SIGMA)
    batched = pbft_batched_max_throughput(C, B, n, SIGMA,
                                          batch_bits=512 * 1024 * 8)
    assert batched > plain


def test_smp_near_c_over_2b_at_optimal_eta():
    n = 128
    gamma = 32 * 8
    eta = smp_optimal_microblock_bytes(n, gamma) * 8
    tput = smp_max_throughput(C, B, n, batch_bits=512 * 1024 * 8,
                              microblock_bits=eta, id_bits=gamma)
    assert tput == pytest.approx(smp_limit_throughput(C, B, n), rel=0.01)
    assert tput == pytest.approx(C / (2 * B), rel=0.05)


def test_smp_limit_independent_of_n():
    small = smp_limit_throughput(C, B, 64)
    large = smp_limit_throughput(C, B, 512)
    assert small == pytest.approx(large, rel=0.02)


def test_smp_beats_lbft_at_scale():
    n = 128
    gamma = 32 * 8
    eta = 128 * 1024 * 8
    smp = smp_max_throughput(C, B, n, 512 * 1024 * 8, eta, gamma)
    assert smp > 10 * lbft_max_throughput(C, B, n)


def test_optimal_microblock_grows_with_n():
    assert smp_optimal_microblock_bytes(256, 32 * 8) > \
        smp_optimal_microblock_bytes(64, 32 * 8)


def test_invalid_inputs_rejected():
    with pytest.raises(ValueError):
        lbft_max_throughput(0, B, 4)
    with pytest.raises(ValueError):
        lbft_max_throughput(C, -1, 4)
    with pytest.raises(ValueError):
        lbft_max_throughput(C, B, 1)
    with pytest.raises(ValueError):
        pbft_batched_max_throughput(C, B, 4, SIGMA, batch_bits=B / 2)
    with pytest.raises(ValueError):
        smp_max_throughput(C, B, 4, 0, 1, 1)
    with pytest.raises(ValueError):
        smp_optimal_microblock_bytes(2, 32)


def test_pab_ack_row_known_value():
    # n=32, q=11: 100-byte acks for 248 foreign microblocks, and 31
    # copies of a 150-byte aggregate proof for each of 8 own ones.
    assert pab_ack_row_bytes(32, 11, own=8, others=248) == (
        248 * 100 + 8 * 31 * 150
    )
    with pytest.raises(ValueError):
        pab_ack_row_bytes(32, 0, own=8, others=248)
