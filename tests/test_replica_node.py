"""Unit tests for replica assembly and ordered block execution."""

import pytest

from repro.config import ProtocolConfig
from repro.crypto import GENESIS_QC
from repro.kvstore import KVStore
from repro.metrics import MetricsHub
from repro.replica import Replica
from repro.sim import Network, RngRegistry, Simulator, lan_topology
from repro.types import MicroBlock, make_microblock_id
from repro.types.proposal import Block, Payload, PayloadEntry, Proposal


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
    assert replica.executor.applied_block_ids == []
    replica.on_block_executed(full_block(1))
    assert replica.executor.applied_block_ids == [1, 2]
    replica.on_block_executed(full_block(3))
    assert replica.executor.applied_block_ids == [1, 2, 3]


def test_execution_skipped_without_executor():
    replica = make_replica(attach_executor=False)
    replica.on_block_executed(full_block(1))  # must not raise


def test_start_requires_attach():
    replica = make_replica()
    with pytest.raises(RuntimeError):
        replica.start()


def test_trace_noop_without_tracer():
    replica = make_replica()
    replica.trace("anything", detail=1)  # must not raise
