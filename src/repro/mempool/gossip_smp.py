"""Gossip-based shared mempool (SMP-HS-G).

Instead of direct broadcast, a new microblock is pushed to ``fanout``
random peers; each peer forwards it once to ``fanout`` further random
peers on first receipt ("infect and die"). Gossip sheds load from hot
senders but costs roughly ``fanout``-fold redundancy in bytes and leaves
a probabilistic tail of uncovered replicas, who fall back to fetching
from the proposer — the behaviour Fig. 10 measures against Stratus.
"""

from __future__ import annotations

from repro.mempool.base import MessageKinds
from repro.mempool.simple_smp import SimpleSharedMempool
from repro.sim.interfaces import Envelope, Handler
from repro.types.microblock import MicroBlock

#: Peers a microblock is pushed to on creation and on first receipt.
GOSSIP_FANOUT = 3


class GossipSharedMempool(SimpleSharedMempool):
    """SMP variant disseminating microblocks via push gossip."""

    name = "gossip"

    def _on_new_microblock(self, microblock: MicroBlock) -> None:
        self.store.add(microblock)
        self._enqueue(microblock.id)
        self._gossip(microblock, exclude={self.node_id})

    def _gossip(self, microblock: MicroBlock, exclude: set[int]) -> None:
        candidates = [
            node for node in range(self.config.n) if node not in exclude
        ]
        if not candidates:
            return
        fanout = min(GOSSIP_FANOUT, len(candidates))
        targets = self.host.rng.sample(candidates, fanout)
        targets = self.host.behavior.share_targets(self.host, targets)
        for target in targets:
            self.host.network.send(
                self.node_id, target, MessageKinds.MICROBLOCK_GOSSIP,
                microblock.size_bytes, microblock,
            )

    def routes(self) -> dict[str, Handler]:
        return {
            **super().routes(),
            MessageKinds.MICROBLOCK_GOSSIP: self._on_gossip,
        }

    def _on_gossip(self, envelope: Envelope) -> None:
        microblock = envelope.payload
        if self.store.add(microblock):
            self._enqueue(microblock.id)
            self._gossip(
                microblock,
                exclude={self.node_id, envelope.src, microblock.origin},
            )
