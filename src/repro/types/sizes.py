"""Wire-size constants (bytes) used for bandwidth accounting.

The values follow the paper's setting: 128-byte transaction payloads,
~100-byte consensus messages (votes, acks), 32-byte ids/hashes, and
64-byte signatures. Every certificate — a PAB availability certificate
or a consensus QC — is charged as one aggregate signature
(:func:`certificate_bytes`), the ``threshold-sign`` of Algorithms 1-3.
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


def microblock_bytes(tx_count: int, tx_payload: int = TX_PAYLOAD_DEFAULT) -> int:
    """Total wire size of a microblock carrying ``tx_count`` transactions."""
    if tx_count < 0:
        raise ValueError(f"tx_count must be >= 0, got {tx_count}")
    return MICROBLOCK_HEADER + tx_count * tx_payload


def certificate_bytes(signers: int) -> int:
    """Wire size of a BLS-style aggregate of ``signers`` signatures: a
    64-byte header (the id and four 8-byte fields), one signature and a
    2-byte member index per signer. The prototype's concatenated ECDSA
    signatures (Section VI) put ``64 * signers`` bytes per entry into
    every proposal: at n=128, the leader bottleneck the shared mempool
    removes."""
    if signers <= 0:
        raise ValueError(f"signers must be positive, got {signers}")
    return MICROBLOCK_ID + 4 * 8 + SIGNATURE + 2 * signers
