"""PAB availability certificates (Section IV-A; BigDipper-style ordering).

A :class:`ShardCertificate` asserts that a quorum of the owning shard's
members hold a microblock body. At one shard that is the paper's
availability proof over all ``n`` replicas. It is what consensus orders:
proposals reference ``(id, certificate)`` pairs, replicas vote on
certificate validity, and bodies are fetched from certificate signers
only where they are needed.

The certificate carries the commit-accounting scalars (``tx_count``,
``mean_arrival``), so a replica outside the shard can record throughput
and latency for a committed block without ever receiving the bodies.
Its shard and origin are not carried: both follow from ``mb_id``.

Minting and verifying live in :class:`repro.sharding.scope.ShardScope`,
which fixes the shard map they are checked against.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.types import sizes


class CertificateError(ValueError):
    """Raised when a certificate cannot be assembled from the given acks."""


@dataclass(frozen=True)
class ShardCertificate:
    """Proof that a quorum of its shard's members hold microblock ``mb_id``."""

    mb_id: int
    tx_count: int
    mean_arrival: float
    signers: tuple[int, ...]
    forged: bool = False

    #: Memoized verification key (a plain class attribute, not a
    #: dataclass field: it does not cross the wire). One certificate
    #: object is shared by every receiver of the broadcast or proposal
    #: carrying it, so the O(quorum) structural check runs once per
    #: certificate instead of once per receiver. Only successful checks
    #: are cached; the ``mb_id`` binding is re-checked on every call.
    _verified_key = None

    @property
    def size_bytes(self) -> int:
        return sizes.certificate_bytes(max(1, len(self.signers)))
