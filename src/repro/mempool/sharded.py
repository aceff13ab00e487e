"""The sharded Stratus shared mempool (``sharded-stratus``).

Stratus with the dissemination fan-out cut by sharding: the one PAB
engine runs over a :class:`repro.sharding.ShardScope`, so a replica's
microblocks are pushed only to its shard's members, a per-shard quorum
mints a compact :class:`repro.sharding.ShardCertificate`, and consensus
orders certificates instead of proven bodies. The queueing, proposal,
GC and restart bookkeeping is :class:`StratusMempool`'s, unchanged.

What is genuinely different lives here: replicas vote on certificate
validity alone and resolve bodies lazily — shard members already hold
them, an attached executor fetches the rest from certificate signers,
and everyone else commits on certificates without ever seeing a byte of
foreign-shard payload. Commit metrics (throughput, latency) come from
the certificate's embedded scalars, so accounting stays exact even
where bodies never arrive. There is no load balancer: a shard-aware DLB
does not exist, and ``ProtocolConfig`` rejects the combination.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.config import ProtocolConfig, ShardingConfig
from repro.mempool.stratus.mempool import StratusMempool
from repro.sharding import ShardMap, ShardScope
from repro.types.proposal import PayloadEntry, Proposal

if TYPE_CHECKING:  # pragma: no cover
    from repro.replica.node import Replica


class ShardedStratusMempool(StratusMempool):
    """Per-shard PAB quorums + certificate-only consensus ordering."""

    name = "sharded-stratus"

    def __init__(self, host: "Replica", config: ProtocolConfig) -> None:
        self.shard_map = ShardMap(
            config.n, config.sharding or ShardingConfig()
        )
        super().__init__(host, config)

    def _scope(self) -> ShardScope:
        """The PAB scope: this replica's own shard, ``f_s + 1`` acks."""
        return ShardScope(self.host.node_id, self.shard_map)

    def _resolvable(self, entries) -> list[PayloadEntry]:
        """Entries this replica materializes bodies for.

        An executor needs every body (state must be applied in full);
        otherwise only entries of shards this replica belongs to — plus
        any body that happens to be local already — are resolved. The
        rest commit as certificates, which is the whole bandwidth story.
        """
        if self.host.executor is not None:
            return list(entries)
        node = self.host.node_id
        shard_map = self.shard_map
        picked = []
        for entry in entries:
            shard = shard_map.shard_of_microblock(entry.mb_id)
            if shard_map.is_member(node, shard) or entry.mb_id in self.store:
                picked.append(entry)
        return picked

    def on_commit(self, proposal: Proposal, commit_time: float) -> None:
        """Certificate-level commit: account from certs, resolve lazily.

        Unlike the base hook, metrics are recorded *now* from the
        certificates' embedded tx counts and arrival means — resolution
        may never materialize foreign-shard bodies on this replica, and
        must not gate throughput/latency accounting. The base hook then
        finds the block recorded when it resolves.
        """
        if proposal.block_id not in self.host.metrics.recorded:
            self._report(
                proposal.block_id,
                [entry.cert for entry in proposal.payload.entries],
                commit_time,
            )
        super().on_commit(proposal, commit_time)
