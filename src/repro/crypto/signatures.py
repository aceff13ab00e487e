"""Simulated digital signatures.

A :class:`Signature` binds a signer id to a digest. ``forged=True`` marks
objects fabricated by Byzantine code paths; :func:`verify_signature`
rejects them, which is the simulation equivalent of unforgeability.
"""

from __future__ import annotations

from dataclasses import dataclass

Digest = int


@dataclass(frozen=True)
class Signature:
    """One signer's signature over a digest."""

    signer: int
    digest: Digest
    forged: bool = False


def sign(signer: int, digest: Digest) -> Signature:
    """Produce ``signer``'s signature over ``digest``.

    In the simulation every component holds its own id, so possession of
    the id stands in for possession of the private key; Byzantine actors
    impersonating others must use :meth:`Signature` with ``forged=True``
    (there is no honest constructor for someone else's signature).
    """
    return Signature(signer=signer, digest=digest)


def verify_signature(signature: Signature, digest: Digest, n: int) -> bool:
    """Check a signature: not forged, digest matches, signer id in range."""
    if signature.forged:
        return False
    if signature.digest != digest:
        return False
    return 0 <= signature.signer < n
