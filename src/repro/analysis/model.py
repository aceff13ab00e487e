"""Closed-form throughput models (Appendix A).

All formulas bound throughput by per-replica network capacity ``C``
(bits per second) and express workloads in bits: the maximum throughput
is ``min(C / W_l, C / W_nl)`` where ``W_l`` and ``W_nl`` are the
per-transaction workloads of the leader and of a non-leader replica.

These models are cross-checked against the simulator in
``benchmarks/test_appendix_a_model.py`` — the network substrate was
chosen precisely so that the formulas are exact in the saturated limit.
"""

from __future__ import annotations

from repro.types import sizes


def _check(capacity_bps: float, tx_bits: float, n: int) -> None:
    if capacity_bps <= 0:
        raise ValueError(f"capacity must be positive, got {capacity_bps}")
    if tx_bits <= 0:
        raise ValueError(f"transaction size must be positive, got {tx_bits}")
    if n < 2:
        raise ValueError(f"need at least 2 replicas, got {n}")


def lbft_max_throughput(capacity_bps: float, tx_bits: float, n: int) -> float:
    """Ideal LBFT throughput: ``C / (B (n - 1))`` (Appendix A-A).

    The leader disseminates each transaction to ``n - 1`` replicas, so its
    per-transaction workload is ``B (n - 1)`` while non-leaders only
    receive (reception is not counted against egress capacity).
    """
    _check(capacity_bps, tx_bits, n)
    return capacity_bps / (tx_bits * (n - 1))


def pbft_max_throughput(
    capacity_bps: float, tx_bits: float, n: int, vote_bits: float
) -> float:
    """PBFT without batching (Appendix A-A, Eq. 1).

    ``W_l = nB + 4(n-1)sigma`` and ``W_nl = B + 4(n-1)sigma``.
    """
    _check(capacity_bps, tx_bits, n)
    leader = n * tx_bits + 4 * (n - 1) * vote_bits
    non_leader = tx_bits + 4 * (n - 1) * vote_bits
    return min(capacity_bps / leader, capacity_bps / non_leader)


def pbft_batched_max_throughput(
    capacity_bps: float,
    tx_bits: float,
    n: int,
    vote_bits: float,
    batch_bits: float,
) -> float:
    """PBFT with proposals of ``K`` bits batching ``K / B`` transactions.

    As ``K`` grows this tends to ``C / (nB)``: batching amortizes votes
    but cannot remove the leader's dissemination bottleneck.
    """
    _check(capacity_bps, tx_bits, n)
    if batch_bits < tx_bits:
        raise ValueError("batch must hold at least one transaction")
    leader = n * batch_bits + 4 * (n - 1) * vote_bits
    non_leader = batch_bits + 4 * (n - 1) * vote_bits
    per_batch = min(capacity_bps / leader, capacity_bps / non_leader)
    return (batch_bits / tx_bits) * per_batch


def smp_max_throughput(
    capacity_bps: float,
    tx_bits: float,
    n: int,
    batch_bits: float,
    microblock_bits: float,
    id_bits: float,
) -> float:
    """Shared-mempool throughput (Appendix A-B).

    A proposal of ``K`` bits references ``K / gamma`` microblocks of
    ``eta`` bits each, disseminated by the ``n - 1`` non-leader replicas:

    ``W_l  = K eta / gamma + (n - 1) K``
    ``W_nl = 2 K eta / gamma + K``

    per proposal, which represents ``(K / gamma) (eta / B)`` transactions.
    """
    _check(capacity_bps, tx_bits, n)
    if microblock_bits <= 0 or id_bits <= 0 or batch_bits <= 0:
        raise ValueError("microblock, id, and batch sizes must be positive")
    txs_per_proposal = (batch_bits / id_bits) * (microblock_bits / tx_bits)
    leader = batch_bits * microblock_bits / id_bits + (n - 1) * batch_bits
    non_leader = 2 * batch_bits * microblock_bits / id_bits + batch_bits
    per_proposal = min(capacity_bps / leader, capacity_bps / non_leader)
    return txs_per_proposal * per_proposal


def smp_optimal_microblock_bytes(n: int, id_bits: float) -> float:
    """Workload-balancing microblock size ``eta = (n - 2) gamma``.

    At this size leader and non-leader workloads equalize and throughput
    approaches the scalability-optimal ``C (n-2) / (B (2n-3)) ~ C / 2B``.
    """
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    if id_bits <= 0:
        raise ValueError(f"id size must be positive, got {id_bits}")
    return (n - 2) * id_bits / 8.0


def smp_limit_throughput(capacity_bps: float, tx_bits: float, n: int) -> float:
    """SMP throughput at the optimal microblock size: ``C(n-2)/(B(2n-3))``."""
    _check(capacity_bps, tx_bits, n)
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    return capacity_bps * (n - 2) / (tx_bits * (2 * n - 3))


def pab_ack_row_bytes(n: int, quorum: int, own: int, others: int) -> float:
    """Bytes one Stratus replica sends as PAB acks and proofs (Table
    III's ``acks`` row): one ``sizes.ACK`` for each of the ``others``
    microblocks other origins cut, and a ``quorum``-signer proof to each
    of its ``n - 1`` peers for each of the ``own`` microblocks it cut.

    An upper bound without loss or retransmission: a replica that
    already holds a body's proof does not ack the body.
    """
    if n < 2 or quorum < 1 or own < 0 or others < 0:
        raise ValueError(
            f"need n >= 2, quorum >= 1 and counts >= 0, got "
            f"n={n}, quorum={quorum}, own={own}, others={others}"
        )
    return others * sizes.ACK + own * (n - 1) * sizes.certificate_bytes(quorum)
