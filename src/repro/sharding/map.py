"""Deterministic shard assignment and membership (Arma's parties).

Two mappings live here:

* **Keying** — which shard owns a piece of content. Microblocks key by
  their origin replica (``shard_of_origin``): all of a client's
  transactions are batched by one replica, so they land in that
  replica's shard.
* **Membership** — which replicas disseminate and certify a shard's
  microblocks. Memberships are strided orbits over the replica ring
  (shard ``s`` owns ``s, s + S, s + 2S, ...``), padded along the ring
  when the orbit is smaller than the requested size. Every replica is a
  member of its own shard, so the pusher's local copy counts toward the
  quorum.

Each shard tolerates ``f_s = (m - 1) // 3`` Byzantine members out of its
``m``-member subset and certifies availability with ``f_s + 1`` acks —
at least one from a correct member, so a certified body is always
recoverable (the per-shard PAB-Provable-Availability property). An
unsharded run is the map with one shard of all ``n`` replicas, where
``ProtocolConfig.pab_quorum`` may raise the quorum towards ``2f + 1``.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional

from repro.config import ProtocolConfig, ShardingConfig
from repro.types.microblock import MicroBlockId, microblock_origin

#: The layout of a run without ``ProtocolConfig.sharding``.
ONE_SHARD = ShardingConfig(shards=1)


class ShardMap:
    """Derived shard structure for an ``n``-replica network."""

    __slots__ = (
        "n", "shards", "shard_size", "_members", "_member_sets",
        "_quorums",
    )

    def __init__(
        self, n: int, config: ShardingConfig, quorum: Optional[int] = None
    ) -> None:
        """``quorum``, when given, replaces every shard's ``f_s + 1``
        (``ProtocolConfig`` allows it at one shard only)."""
        if n < 1:
            raise ValueError(f"need at least one replica, got n={n}")
        if config.shards > n:
            raise ValueError(
                f"cannot split {n} replicas into {config.shards} shards"
            )
        self.n = n
        self.shards = config.shards
        #: Replicas per shard membership: large enough that every shard
        #: tolerates at least one fault whenever ``n >= 4``, and the
        #: memberships jointly cover all replicas.
        self.shard_size = min(n, max(4, -(-n // config.shards)))
        self._members = tuple(
            self._build_members(shard) for shard in range(self.shards)
        )
        self._member_sets = tuple(frozenset(m) for m in self._members)
        self._quorums = tuple(
            self.f_of(shard) + 1 if quorum is None else quorum
            for shard in range(self.shards)
        )

    @staticmethod
    def of(config: ProtocolConfig) -> "ShardMap":
        """The map a Stratus run over ``config`` disseminates through,
        one object for every replica of the run."""
        sharding = config.sharding or ONE_SHARD
        return _shared_map(config.n, sharding.shards, config.pab_quorum)

    def _build_members(self, shard: int) -> tuple[int, ...]:
        members: list[int] = []
        seen: set[int] = set()
        stride = self.shards
        for j in range(self.n):
            node = (shard + j * stride) % self.n
            if node not in seen:
                seen.add(node)
                members.append(node)
            if len(members) >= self.shard_size:
                break
        offset = 1
        while len(members) < self.shard_size:
            node = (shard + offset) % self.n
            if node not in seen:
                seen.add(node)
                members.append(node)
            offset += 1
        return tuple(sorted(members))

    # -- keying --------------------------------------------------------

    def shard_of_origin(self, origin: int) -> int:
        """Shard that disseminates microblocks cut by ``origin``."""
        return origin % self.shards

    def shard_of_microblock(self, mb_id: MicroBlockId) -> int:
        return self.shard_of_origin(microblock_origin(mb_id))

    # -- membership ----------------------------------------------------

    def members(self, shard: int) -> tuple[int, ...]:
        return self._members[shard]

    def member_set(self, shard: int) -> frozenset[int]:
        return self._member_sets[shard]

    def is_member(self, node: int, shard: int) -> bool:
        return node in self._member_sets[shard]

    def f_of(self, shard: int) -> int:
        """Faults tolerated inside ``shard``'s membership."""
        return (len(self._members[shard]) - 1) // 3

    def quorum(self, shard: int) -> int:
        """Acks needed for a shard certificate (``f_s + 1`` unless set)."""
        return self._quorums[shard]


@lru_cache(maxsize=64)
def _shared_map(n: int, shards: int, quorum: Optional[int]) -> ShardMap:
    """Maps are immutable, so equal layouts share one: at one shard of
    n=128 a map per replica is 128 member tuples and sets of 128."""
    return ShardMap(n, ShardingConfig(shards), quorum)
