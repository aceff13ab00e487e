"""Quorum certificates for the consensus engines."""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.signatures import Signature, verify_signature
from repro.types import sizes


@dataclass(frozen=True)
class QuorumCert:
    """Aggregated 2f+1 votes over ``(block_id, view)``."""

    block_id: int
    view: int
    signers: tuple[int, ...]
    forged: bool = False

    @property
    def size_bytes(self) -> int:
        return sizes.certificate_bytes(max(1, len(self.signers)))

    # Memoized ``(quorum, n)`` of the last successful check (a plain class
    # attribute, not a dataclass field — it stays out of eq/repr/hash). A
    # QC object is shared by every receiver of the proposal carrying it,
    # so after the first full check ``verify_quorum_cert`` is one tuple
    # compare. Forged or malformed certs take the full path every time.
    _verified_key = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"QC(block={self.block_id}, view={self.view}, |S|={len(self.signers)})"


GENESIS_QC = QuorumCert(block_id=0, view=0, signers=())
"""Certificate for the genesis block; verified specially."""


def make_quorum_cert(
    block_id: int, view: int, votes: list[Signature], quorum: int, n: int
) -> QuorumCert:
    """Aggregate vote signatures into a QC; raises on an invalid quorum."""
    digest = _vote_digest(block_id, view)
    valid_signers: set[int] = set()
    for vote in votes:
        if verify_signature(vote, digest, n):
            valid_signers.add(vote.signer)
    if len(valid_signers) < quorum:
        raise ValueError(
            f"need {quorum} votes for block {block_id} view {view}, "
            f"got {len(valid_signers)}"
        )
    return QuorumCert(block_id=block_id, view=view, signers=tuple(sorted(valid_signers)))


def verify_quorum_cert(qc: QuorumCert, quorum: int, n: int) -> bool:
    """Structural QC verification; the genesis QC is always valid."""
    if qc._verified_key == (quorum, n):
        return True
    if qc == GENESIS_QC:
        object.__setattr__(qc, "_verified_key", (quorum, n))
        return True
    if qc.forged:
        return False
    signers = set(qc.signers)
    if len(signers) != len(qc.signers):
        return False
    if any(not 0 <= signer < n for signer in signers):
        return False
    if len(signers) < quorum:
        return False
    object.__setattr__(qc, "_verified_key", (quorum, n))
    return True


def vote_signature(signer: int, block_id: int, view: int) -> Signature:
    """Sign a consensus vote for ``(block_id, view)``."""
    # _vote_digest, spelled out: every replica signs one vote per view.
    return Signature(signer=signer, digest=(block_id << 24) ^ view)


def _vote_digest(block_id: int, view: int) -> int:
    return (block_id << 24) ^ view
