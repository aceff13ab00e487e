"""Structural simulated cryptography.

Signatures and quorum certificates are dataclasses validated for
well-formedness (signer identity, digest match, quorum size, distinct
signers); PAB availability certificates live with the shard layout that
checks them (:mod:`repro.sharding`). Honest code obtains them only
through the constructors below; Byzantine code may *forge* objects, but
forgeries carry a flag that verification rejects — modeling the paper's
assumption that "the adversary cannot break these signatures" without
paying for real ECDSA in a simulation whose measurements deliberately
exclude crypto cost (Section VII-A).
"""

from repro.crypto.signatures import Signature, sign, verify_signature
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
    "QuorumCert",
    "make_quorum_cert",
    "verify_quorum_cert",
]
