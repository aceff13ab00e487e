"""Availability proofs for PAB (Section IV-A).

A proof over a microblock id asserts that at least ``quorum`` distinct
replicas acknowledged holding the microblock. With ``quorum >= f + 1``
at least one of them is correct, so the microblock can always be fetched
— the **PAB-Provable Availability** property.

The prototype realizes proofs as ``f + 1`` concatenated ECDSA signatures
(Section VI); :attr:`AvailabilityProof.size_bytes` models that wire cost.

Minting and verifying live with the PAB scope that fixes ``quorum`` and
``n`` (:class:`repro.mempool.stratus.pab.NetworkScope`); this module is
the wire object and its error type.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.types import sizes


class ProofError(ValueError):
    """Raised when a proof cannot be assembled from the given acks."""


@dataclass(frozen=True)
class AvailabilityProof:
    """Threshold proof that a microblock is held by a quorum of replicas."""

    mb_id: int
    signers: tuple[int, ...]
    forged: bool = False

    @property
    def size_bytes(self) -> int:
        return sizes.availability_proof_bytes(max(1, len(self.signers)))

    # Memoized verification parameters (plain class attributes, not
    # dataclass fields). One proof object is shared by every receiver of
    # the proposal or PROOF broadcast carrying it, so the O(quorum)
    # structural check runs once per proof instead of once per receiver.
    # Only successful checks are cached; the ``mb_id`` binding is still
    # re-checked on every call.
    _verified_quorum = -1
    _verified_n = -1
