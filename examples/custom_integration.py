#!/usr/bin/env python3
"""Integrating Stratus into your own BFT stack via the SMP abstraction.

The paper's pitch is that the shared mempool hides behind four
primitives — ReceiveTx / ShareTx / MakeProposal / FillProposal — so any
leader-based protocol can adopt it without touching its consensus core.
This example demonstrates the extension point from both sides:

1. a *custom mempool* (round-robin direct handoff, no batching smarts)
   plugged under the stock HotStuff engine, and
2. the stock Stratus mempool plugged under a *custom consensus engine*
   (a toy fixed-leader two-phase protocol).

Run:  python examples/custom_integration.py
"""

from repro.config import ProtocolConfig
from repro.consensus.base import ConsensusEngine
from repro.consensus.hotstuff import HotStuff
from repro.crypto import GENESIS_QC
from repro.harness import assemble_replica
from repro.mempool.base import Mempool, MessageKinds
from repro.mempool.batching import MicroBlockBatcher
from repro.mempool.store import MicroBlockStore
from repro.mempool.stratus import StratusMempool
from repro.metrics import MetricsHub
from repro.sim import Network, RngRegistry, Simulator, lan_topology
from repro.types import TxBatch, sizes
from repro.types.proposal import Block, Payload, PayloadEntry, Proposal, make_block_id
from repro.workload import UniformSelector, WorkloadGenerator


class BroadcastEverythingMempool(Mempool):
    """Minimal SMP: broadcast microblocks, propose every id seen.

    Deliberately bare-bones — it exists to show how little is required
    to satisfy the abstraction (compare with SimpleSharedMempool, which
    adds fetching and fork re-queuing).
    """

    name = "broadcast-everything"

    def __init__(self, host, config):
        super().__init__(host, config)
        self.store = MicroBlockStore()
        self._batcher = MicroBlockBatcher(host, config, self._share)
        self._fresh = []

    def on_client_batch(self, batch: TxBatch) -> None:  # ReceiveTx
        self._batcher.add(batch)

    def _share(self, microblock) -> None:               # ShareTx
        self.store.add(microblock)
        self._fresh.append(microblock.id)
        self.host.network.broadcast(self.node_id, MessageKinds.MICROBLOCK,
                                    microblock.size_bytes, microblock)

    def make_payload(self) -> Payload:                  # MakeProposal
        entries = tuple(PayloadEntry(mb_id=i) for i in self._fresh)
        self._fresh = []
        return Payload(entries=entries)

    def prepare(self, proposal, on_ready):
        self.resolve(proposal, lambda _block: on_ready())

    def resolve(self, proposal, on_full):               # FillProposal
        block = Block(proposal=proposal)
        ids = proposal.payload.microblock_ids
        remaining = {"count": len(ids)}
        if not ids:
            on_full(block)
            return

        def collect(mb):
            block.microblocks[mb.id] = mb
            remaining["count"] -= 1
            if remaining["count"] == 0:
                on_full(block)

        for mb_id in ids:
            self.store.on_delivery(mb_id, collect)

    def routes(self):
        return {MessageKinds.MICROBLOCK: self._on_body}

    def _on_body(self, envelope) -> None:
        self.store.add(envelope.payload)


class TwoPhaseToy(ConsensusEngine):
    """Fixed-leader broadcast + vote toy protocol over any mempool."""

    name = "two-phase-toy"

    def __init__(self, host, mempool, config):
        super().__init__(host, mempool, config)
        self._seq = 0
        self._votes = {}
        self._committed = set()

    def start(self):
        if self.node_id == 0:
            self._tick()

    def current_leader(self) -> int:
        return 0

    def _tick(self):
        payload = self.mempool.make_payload()
        if not payload.is_empty:
            self._seq += 1
            proposal = Proposal(
                block_id=make_block_id(0, self._seq), view=self._seq,
                height=self._seq, proposer=0, parent_id=0,
                justify=GENESIS_QC, payload=payload,
                created_at=self.host.sim.now,
            )
            self.broadcast(MessageKinds.PROPOSAL, proposal.size_bytes,
                           proposal)
            self._on_proposal(proposal)
        self.host.sim.schedule(0.01, self._tick)

    def routes(self):
        # Message kind -> the handler the replica hands the envelope to.
        return {
            MessageKinds.PROPOSAL: lambda env: self._on_proposal(env.payload),
            MessageKinds.VOTE: lambda env: self._on_vote(env.payload),
            "ce.commit-notice": self._on_commit_notice,
        }

    def _on_commit_notice(self, envelope):
        proposal = envelope.payload
        if proposal.block_id not in self._committed:
            self._committed.add(proposal.block_id)
            self.mempool.on_commit(proposal, self.host.sim.now)

    def _on_proposal(self, proposal):
        if not self.mempool.verify_payload(proposal.payload):
            return
        self.mempool.on_proposal(proposal)
        self.mempool.prepare(proposal, lambda: self.send(
            0, MessageKinds.VOTE, sizes.VOTE, proposal))

    def _on_vote(self, proposal):
        votes = self._votes.setdefault(proposal.block_id, 0) + 1
        self._votes[proposal.block_id] = votes
        if (votes >= self.config.consensus_quorum
                and proposal.block_id not in self._committed):
            self._committed.add(proposal.block_id)
            self.broadcast("ce.commit-notice", sizes.VOTE, proposal)
            self.mempool.on_commit(proposal, self.host.sim.now)


def build(n, mempool_cls, consensus_cls):
    config = ProtocolConfig(n=n, batch_bytes=4 * 1024,
                            empty_view_delay=0.002)
    sim = Simulator()
    rng = RngRegistry(9)
    network = Network(sim, lan_topology(n), rng)
    metrics = MetricsHub(sim)
    replicas = []
    for node in range(n):
        # The same assembly the simulator harness and a live replica
        # process use; the two class arguments are the extension seam.
        replicas.append(assemble_replica(
            node, config, sim, network, rng.stream(f"replica.{node}"),
            metrics, mempool_cls=mempool_cls, consensus_cls=consensus_cls,
            attach_executor=True,
        ))
    generator = WorkloadGenerator(sim, replicas, rate_tps=2_000,
                                  tx_payload=128,
                                  selector=UniformSelector(n))
    for replica in replicas:
        replica.start()
    generator.start()
    sim.run_until(3.0)
    return metrics, replicas


def main() -> None:
    print("1) custom mempool under stock HotStuff")
    metrics, _ = build(4, BroadcastEverythingMempool, HotStuff)
    print(f"   committed {metrics.committed_tx_total:,} txs, "
          f"mean latency {metrics.latency_stats().mean * 1000:.1f} ms")

    print("2) stock Stratus mempool under a custom consensus engine")
    metrics, replicas = build(4, StratusMempool, TwoPhaseToy)
    digests = {r.executor.state_digest() for r in replicas}
    print(f"   committed {metrics.committed_tx_total:,} txs, "
          f"replica states {'agree' if len(digests) == 1 else 'DIVERGED'}")


if __name__ == "__main__":
    main()
