"""Shard availability certificates (BigDipper-style ordered certificates).

A :class:`ShardCertificate` asserts that a quorum of the owning shard's
members hold a microblock body. It is what consensus orders instead of
the body: proposals reference ``(id, certificate)`` pairs, replicas vote
on certificate validity, and bodies are fetched lazily from certificate
signers only where execution needs them.

Unlike :class:`repro.crypto.AvailabilityProof`, the certificate carries
the commit-accounting scalars (``tx_count``, ``mean_arrival``) so a
replica outside the shard can record throughput and latency for a
committed block without ever receiving the bodies.

Minting and verifying live in :class:`repro.sharding.scope.ShardScope`,
which fixes the shard map they are checked against.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.proofs import ProofError
from repro.types import sizes


class CertificateError(ProofError):
    """Raised when a certificate cannot be assembled from the given acks."""


@dataclass(frozen=True)
class ShardCertificate:
    """Proof that shard ``shard``'s quorum holds microblock ``mb_id``."""

    mb_id: int
    shard: int
    origin: int
    tx_count: int
    mean_arrival: float
    signers: tuple[int, ...]
    forged: bool = False

    @property
    def size_bytes(self) -> int:
        return sizes.shard_certificate_bytes(max(1, len(self.signers)))

    # Memoized verification key (plain class attribute, not a dataclass
    # field): one certificate object is shared by every receiver of the
    # broadcast or proposal carrying it, so the O(quorum) structural
    # check runs once per certificate instead of once per receiver. Only
    # successful checks are cached; the ``mb_id`` binding is re-checked
    # on every call.
    _verified_key = None
