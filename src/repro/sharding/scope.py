"""The per-shard PAB scope.

:class:`repro.mempool.stratus.pab.PabEngine` is one push -> ack -> proof
-> fetch loop; :class:`ShardScope` runs it over the host's own shard
instead of all ``n`` replicas (Arma's parties): bodies go to the shard's
other members, ``f_s + 1`` member acks mint a
:class:`~repro.sharding.certificate.ShardCertificate`, and the
certificate — not the body — is what the rest of the network sees. It is
broadcast to everyone on the control channel and later rides inside
consensus proposals.

Recovery is certificate-driven: a member that missed the push fetches
right away (it is part of the availability quorum peers will fetch
from); everyone else stays lazy, because the certificate alone is enough
to vote.
"""

from __future__ import annotations

from repro.crypto.signatures import Signature, verify_signature
from repro.mempool.base import MessageKinds
from repro.sharding.certificate import CertificateError, ShardCertificate
from repro.sharding.map import ShardMap
from repro.types.microblock import MicroBlock, MicroBlockId, microblock_origin


class ShardScope:
    """PAB over the shard that owns ``node_id``'s microblocks."""

    body_kind = MessageKinds.SHARD_MICROBLOCK
    ack_kind = MessageKinds.SHARD_ACK
    proof_kind = MessageKinds.SHARD_CERT
    #: The :class:`PayloadEntry` field that carries this scope's proofs.
    slot = "cert"

    def __init__(self, node_id: int, shard_map: ShardMap) -> None:
        self.shard_map = shard_map
        #: The shard this replica's own microblocks land in.
        self.shard = shard_map.shard_of_origin(node_id)
        #: Acks needed to mint a certificate, and signers needed to
        #: accept one — of *any* shard: the map pads every membership to
        #: ``shard_size``, so all shards share one ``f_s + 1``.
        self.quorum = shard_map.quorum(self.shard)
        self.peers: tuple[int, ...] = tuple(
            node for node in shard_map.members(self.shard)
            if node != node_id
        )
        self._member_of = frozenset(
            shard for shard in range(shard_map.shards)
            if shard_map.is_member(node_id, shard)
        )

    def make(
        self, microblock: MicroBlock, acks: list[Signature]
    ) -> ShardCertificate:
        """Aggregate member acks into a certificate.

        Raises :class:`CertificateError` if the acks do not form a valid
        shard quorum: too few distinct valid *member* signers, wrong
        digest, or forged signatures. Acks from non-members are
        discarded — a quorum of outsiders says nothing about the shard's
        availability.
        """
        member_set = self.shard_map.member_set(self.shard)
        valid_signers: set[int] = set()
        for ack in acks:
            if ack.signer in member_set and verify_signature(
                ack, microblock.id, self.shard_map.n
            ):
                valid_signers.add(ack.signer)
        if len(valid_signers) < self.quorum:
            raise CertificateError(
                f"need {self.quorum} distinct member acks over mb "
                f"{microblock.id} in shard {self.shard}, "
                f"got {len(valid_signers)}"
            )
        return ShardCertificate(
            mb_id=microblock.id,
            shard=self.shard,
            origin=microblock.origin,
            tx_count=microblock.tx_count,
            mean_arrival=microblock.mean_arrival,
            signers=tuple(sorted(valid_signers)),
        )

    def verify(self, cert: ShardCertificate, mb_id: MicroBlockId) -> bool:
        """Certificate-validity vote: structural + binding checks.

        The verifier recomputes the owning shard from the microblock id,
        so a certificate signed by the wrong shard's members (or claiming
        a foreign origin) is rejected even if its signatures check out.
        """
        if cert.mb_id != mb_id:
            return False
        shard_map = self.shard_map
        key = (shard_map.n, shard_map.config)
        if cert._verified_key == key:
            return True
        if cert.forged:
            return False
        if cert.tx_count <= 0:
            return False
        if cert.origin != microblock_origin(mb_id):
            return False
        if not 0 <= cert.shard < shard_map.shards:
            return False
        if cert.shard != shard_map.shard_of_origin(cert.origin):
            return False
        signers = set(cert.signers)
        if len(signers) != len(cert.signers):
            return False
        if not signers <= shard_map.member_set(cert.shard):
            return False
        if len(signers) < self.quorum:
            return False
        object.__setattr__(cert, "_verified_key", key)
        return True

    def fetches_eagerly(self, cert: ShardCertificate) -> bool:
        """Only members of the certificate's shard recover unasked."""
        return cert.shard in self._member_of
