"""Structural simulated cryptography.

Signatures, quorum certificates, and availability proofs are dataclasses
validated for well-formedness (signer identity, digest match, quorum size,
distinct signers). Honest code obtains them only through the constructors
below; Byzantine code may *forge* objects, but forgeries carry a flag that
verification rejects — modeling the paper's assumption that "the adversary
cannot break these signatures" without paying for real ECDSA in a
simulation whose measurements deliberately exclude crypto cost
(Section VII-A).
"""

from repro.crypto.signatures import Signature, sign, verify_signature
from repro.crypto.proofs import AvailabilityProof, ProofError
from repro.crypto.certificates import (
    GENESIS_QC,
    QuorumCert,
    make_quorum_cert,
    verify_quorum_cert,
    vote_signature,
)

__all__ = [
    "GENESIS_QC",
    "vote_signature",
    "Signature",
    "sign",
    "verify_signature",
    "AvailabilityProof",
    "ProofError",
    "QuorumCert",
    "make_quorum_cert",
    "verify_quorum_cert",
]
