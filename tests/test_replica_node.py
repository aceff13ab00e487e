"""Unit tests for replica assembly and ordered block execution."""

import pytest

from repro.config import ProtocolConfig
from repro.consensus import CONSENSUS_CLASSES
from repro.crypto import GENESIS_QC
from repro.kvstore import KVStore
from repro.mempool.base import MessageKinds
from repro.metrics import MetricsHub
from repro.replica import Replica
from repro.sim import Network, RngRegistry, Simulator, lan_topology
from repro.sim.interfaces import Channel, Envelope
from repro.types import MicroBlock, TxBatch, make_microblock_id
from repro.types.proposal import Block, Payload, PayloadEntry, Proposal
from repro.verification import Oracle, OracleSuite

from tests.helpers import MEMPOOL_CELLS, inject, make_cluster, mempool_fields


def make_replica(attach_executor=True):
    config = ProtocolConfig(n=4)
    sim = Simulator()
    rng = RngRegistry(1)
    network = Network(sim, lan_topology(4), rng)
    metrics = MetricsHub(sim)
    replica = Replica(0, config, sim, network, rng.stream("r0"), metrics)
    if attach_executor:
        replica.executor = KVStore()
    return replica


def full_block(height):
    mb = MicroBlock(
        id=make_microblock_id(0, height), origin=0, tx_count=4,
        tx_payload=128, created_at=0.0, sum_arrival=0.0,
    )
    proposal = Proposal(
        block_id=height, view=height, height=height, proposer=0,
        parent_id=height - 1, justify=GENESIS_QC,
        payload=Payload(entries=(PayloadEntry(mb_id=mb.id),)),
    )
    return Block(proposal=proposal, microblocks={mb.id: mb})


def test_blocks_execute_in_height_order():
    replica = make_replica()
    replica.on_block_executed(full_block(2))  # filled out of order
    assert replica.executor.blocks_applied == 0
    replica.on_block_executed(full_block(1))
    assert replica.executor.blocks_applied == 2
    assert replica.executor.last_block_id == 2
    replica.on_block_executed(full_block(3))
    assert replica.executor.blocks_applied == 3
    assert replica.executor.last_block_id == 3


def test_execution_skipped_without_executor():
    replica = make_replica(attach_executor=False)
    replica.on_block_executed(full_block(1))  # must not raise


def test_start_requires_attach():
    replica = make_replica()
    with pytest.raises(RuntimeError):
        replica.start()


class LifeTap(Oracle):
    """The observer tap's three events, as they arrive."""

    def on_attach(self):
        self.cut = []  # microblock ids, one per creation report
        self.payloads = {}  # block id -> the microblock ids it carries
        self.commits = {}  # (node, block id) -> local commit time
        self.fills = []  # (node, block id, filled_at), one per report

    def on_microblock_created(self, replica, microblock):
        self.cut.append(microblock.id)

    def on_local_commit(self, replica, proposal):
        self.payloads[proposal.block_id] = proposal.payload.microblock_ids
        self.commits[replica.node_id, proposal.block_id] = self.suite.now

    def on_block_resolved(self, replica, block):
        self.fills.append((replica.node_id, block.block_id, block.filled_at))


def test_observer_tap_follows_each_microblock_to_its_fill():
    exp = make_cluster(n=4, mempool="stratus")
    tap = LifeTap()
    OracleSuite([tap]).attach(exp)
    inject(exp, 0, count=4)
    inject(exp, 1, count=4)
    exp.sim.run_until(2.0)
    assert len(tap.cut) == len(set(tap.cut)) == 2
    nodes = [replica.node_id for replica in exp.replicas]
    for mb_id in tap.cut:
        assert any(
            all((node, block_id) in tap.commits for node in nodes)
            for block_id, ids in tap.payloads.items() if mb_id in ids
        )
    fills = {(node, block_id): at for node, block_id, at in tap.fills}
    assert len(fills) == len(tap.fills)
    assert fills.keys() == tap.commits.keys()
    for key, filled_at in fills.items():
        assert filled_at >= tap.commits[key]


@pytest.mark.parametrize("consensus", sorted(CONSENSUS_CLASSES))
@pytest.mark.parametrize("mempool", sorted(MEMPOOL_CELLS))
def test_every_kind_sent_has_a_route_at_its_receiver(mempool, consensus):
    exp = make_cluster(
        n=4, consensus=consensus, rate_tps=2000.0,
        protocol_overrides=mempool_fields(mempool),
    )
    exp.sim.run_until(1.0)
    sent = set(exp.network.stats.messages_sent)
    assert sent
    for replica in exp.replicas:
        routed = {
            *replica.routes(), *replica.consensus.routes(),
            *replica.mempool.routes(),
        }
        assert sent <= routed, sent - routed


def test_an_unrouted_kind_is_ignored():
    """A live peer may send any registered kind: one no layer of this
    replica routes (a Narwhal echo to a Stratus replica, a snapshot
    request to a replica without a durable executor) is dropped, not
    raised."""
    exp = make_cluster(n=4, consensus="hotstuff")
    for kind, payload in (
        (MessageKinds.RB_ECHO, 1),
        (MessageKinds.STATE_SNAPSHOT_REQ, 0),
    ):
        exp.replicas[0].handle(Envelope(
            src=1, dst=0, kind=kind, size_bytes=48, payload=payload,
            channel=Channel.CONSENSUS,
        ))
    assert not exp.network.stats.messages_sent


def test_a_client_batch_frame_is_routed_like_every_other_kind():
    """A live client's ``client.batch`` goes through the route table to
    ``on_client_batch``; a crashed replica drops it."""
    exp = make_cluster(n=4, consensus="hotstuff")
    replica = exp.replicas[0]
    taken = []
    replica.mempool.on_client_batch = taken.append
    batch = TxBatch(count=3, payload_bytes=128, mean_arrival=0.0)

    def deliver():
        replica.handle(Envelope(
            src=-1, dst=0, kind=MessageKinds.CLIENT_BATCH,
            size_bytes=batch.total_bytes, payload=batch,
            channel=Channel.DATA,
        ))

    deliver()
    assert taken == [batch]
    replica.crash()
    deliver()
    assert taken == [batch]
