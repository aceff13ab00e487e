"""The PAB scope: whom one replica's push -> ack -> proof loop runs over.

:class:`repro.mempool.stratus.pab.PabEngine` is one push -> ack -> proof
-> fetch loop; :class:`ShardScope` runs it over the shard that owns the
host's microblocks (Arma's parties). Bodies go to the shard's other
members, ``quorum(s)`` member acks mint a
:class:`~repro.sharding.certificate.ShardCertificate`, and the
certificate is broadcast to everyone on the control channel and later
rides inside consensus proposals. At one shard the shard is all ``n``
replicas and this is the paper's PAB.

Recovery is certificate-driven: a member that missed the push fetches
right away (it is part of the availability quorum peers will fetch
from); everyone else stays lazy, because the certificate alone is enough
to vote.
"""

from __future__ import annotations

from repro.crypto.signatures import Signature, verify_signature
from repro.sharding.certificate import CertificateError, ShardCertificate
from repro.sharding.map import ShardMap
from repro.types.microblock import MicroBlock, MicroBlockId


class ShardScope:
    """PAB over the shard that owns ``node_id``'s microblocks."""

    def __init__(self, node_id: int, shard_map: ShardMap) -> None:
        self.shard_map = shard_map
        #: The shard this replica's own microblocks land in.
        self.shard = shard_map.shard_of_origin(node_id)
        #: Acks needed to mint a certificate, and signers needed to
        #: accept one — of *any* shard: the map pads every membership to
        #: ``shard_size``, so all shards share one quorum.
        self.quorum = shard_map.quorum(self.shard)
        self.peers: tuple[int, ...] = tuple(
            node for node in shard_map.members(self.shard)
            if node != node_id
        )
        #: The shards this replica is a member of.
        self.member_of = frozenset(
            shard for shard in range(shard_map.shards)
            if shard_map.is_member(node_id, shard)
        )
        #: A member of every shard (every replica at one shard) holds or
        #: fetches every body it learns a certificate for.
        self.resolves_all = len(self.member_of) == shard_map.shards
        #: ``None`` means "every certificate": no per-certificate rule to
        #: ask on the per-proof path.
        self.fetches_eagerly = (
            None if self.resolves_all else self._in_own_shards
        )
        #: What a memoized verification was checked against, bar the quorum.
        self._layout = (shard_map.n, shard_map.shards)

    def make(
        self, microblock: MicroBlock, acks: list[Signature]
    ) -> ShardCertificate:
        """Aggregate member acks into a certificate (``threshold-sign``
        in Algorithm 1).

        Raises :class:`CertificateError` if the acks do not form a valid
        shard quorum: too few distinct valid *member* signers, wrong
        digest, or forged signatures. Acks from non-members are
        discarded — a quorum of outsiders says nothing about the shard's
        availability.
        """
        shard_map = self.shard_map
        member_set = shard_map.member_set(self.shard)
        valid_signers: set[int] = set()
        for ack in acks:
            if ack.signer in member_set and verify_signature(
                ack, microblock.id, shard_map.n
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
            tx_count=microblock.tx_count,
            mean_arrival=microblock.mean_arrival,
            signers=tuple(sorted(valid_signers)),
        )

    def verify(self, cert: ShardCertificate, mb_id: MicroBlockId) -> bool:
        """Certificate-validity vote (``threshold-verify`` in Algorithms
        2 and 3): structural and membership checks.

        The verifier recomputes the owning shard from the microblock id,
        so a certificate signed by another shard's members is rejected
        even if its signatures check out.
        """
        if cert.mb_id != mb_id:
            return False
        key = (self._layout, self.quorum)
        if cert._verified_key == key:
            return True
        if cert.forged or cert.tx_count <= 0:
            return False
        signers = set(cert.signers)
        if len(signers) != len(cert.signers) or len(signers) < self.quorum:
            return False
        shard_map = self.shard_map
        if not signers <= shard_map.member_set(
            shard_map.shard_of_microblock(mb_id)
        ):
            return False
        object.__setattr__(cert, "_verified_key", key)
        return True

    def _in_own_shards(self, cert: ShardCertificate) -> bool:
        """Only members of the certificate's shard recover unasked."""
        shard = self.shard_map.shard_of_microblock(cert.mb_id)
        return shard in self.member_of
