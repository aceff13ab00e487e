"""Orphan parking and chain sync, once, for every chained engine.

``ChainedEngine`` owns the code; HotStuff, two-chain HotStuff, Streamlet
and PBFT only decide when to call it, so each case runs against all
four. White-box: blocks are handed to ``_handle_proposal`` directly and
sync requests are read off ``engine.send``.
"""

import pytest

from repro.crypto import GENESIS_QC, make_quorum_cert, vote_signature
from repro.mempool.base import MessageKinds
from repro.sim.network import Channel, Envelope
from repro.types.proposal import Payload, Proposal, make_block_id

from tests.helpers import make_cluster

ENGINES = ("hotstuff", "twochain", "streamlet", "pbft")
SYNC_PERIOD = 0.5
pytestmark = pytest.mark.parametrize("consensus", ENGINES)


def frozen_cluster(consensus):
    """Engines that neither propose nor time out on their own."""
    exp = make_cluster(
        n=4, mempool="stratus", consensus=consensus,
        protocol_overrides={
            "view_timeout": SYNC_PERIOD, "streamlet_epoch": SYNC_PERIOD,
        },
    )
    for replica in exp.replicas:
        engine = replica.consensus
        engine.suspend()
        engine._try_propose = engine._schedule_pump = lambda *a, **k: None
    exp.sim.run_until(0.3)  # drain what start() had already sent
    return exp


def chain(exp, length, proposer=0):
    """b1 <- b2 <- ... from genesis, each justified by its parent's QC."""
    protocol = exp.config.protocol
    blocks, parent_id, justify = [], 0, GENESIS_QC
    for height in range(1, length + 1):
        view = 100 + height  # far from anything the cluster produced
        block = Proposal(
            block_id=make_block_id(proposer, 1000 + height), view=view,
            height=height, proposer=proposer, parent_id=parent_id,
            justify=justify, payload=Payload(),
        )
        votes = [
            vote_signature(signer, block.block_id, view)
            for signer in range(protocol.consensus_quorum)
        ]
        parent_id = block.block_id
        justify = make_quorum_cert(
            block.block_id, view, votes, protocol.consensus_quorum,
            protocol.n,
        )
        blocks.append(block)
    return blocks


def sync_requests(engine):
    """Record ``(dst, block_id)`` of every sync request ``engine`` sends
    from now on (nothing reaches the network)."""
    sent = []

    def recording(dst, kind, size_bytes, payload):
        if kind == MessageKinds.SYNC_REQUEST:
            sent.append((dst, payload))

    engine.send = recording
    return sent


def test_orphans_release_in_chain_order(consensus):
    exp = frozen_cluster(consensus)
    engine = exp.replicas[3].consensus
    b1, b2, b3 = chain(exp, 3)
    sent = sync_requests(engine)
    engine._handle_proposal(b3)
    engine._handle_proposal(b2)
    assert b2.block_id not in engine.proposals
    assert b3.block_id not in engine.proposals
    assert engine._orphaned == {b2.block_id, b3.block_id}
    engine._handle_proposal(b1)  # parent lands: the chain unrolls
    ours = [b1.block_id, b2.block_id, b3.block_id]
    assert [b for b in engine.proposals if b in ours] == ours
    assert not engine._orphans and not engine._orphaned
    # b3 asked for b2; b2 then asked for b1, and was itself never asked
    # for again once it was parked.
    assert [block_id for _, block_id in sent] == [b2.block_id, b1.block_id]


def test_parked_block_is_not_requested(consensus):
    exp = frozen_cluster(consensus)
    engine = exp.replicas[3].consensus
    _, b2, b3 = chain(exp, 3)
    sent = sync_requests(engine)
    engine._handle_proposal(b2)  # parked: b1 is missing
    engine._handle_proposal(b3)  # its parent b2 is here, only parked
    assert [block_id for _, block_id in sent] == [b2.parent_id]
    assert b2.block_id not in engine._sync_requested


def test_sync_request_is_served(consensus):
    exp = frozen_cluster(consensus)
    serving = exp.replicas[0].consensus
    receiving = exp.replicas[2].consensus
    (b1,) = chain(exp, 1)
    serving._handle_proposal(b1)
    assert b1.block_id not in receiving.proposals
    exp.replicas[0].handle(Envelope(
        src=2, dst=0, kind=MessageKinds.SYNC_REQUEST, size_bytes=48,
        payload=b1.block_id, channel=Channel.CONSENSUS,
    ))
    exp.sim.run_until(exp.sim.now + 0.2)
    assert receiving.proposals[b1.block_id] is b1


def test_never_asks_itself_for_a_block_it_proposed(consensus):
    """A respawned replica walking back through its lost chain meets
    blocks its previous incarnation proposed."""
    exp = frozen_cluster(consensus)
    engine = exp.replicas[3].consensus
    _, own_child = chain(exp, 2, proposer=3)
    sent = sync_requests(engine)
    engine._handle_proposal(own_child)
    exp.sim.run_until(exp.sim.now + 3 * SYNC_PERIOD + 0.01)
    assert len(sent) == 4  # the first request and three retries
    assert all(block_id == own_child.parent_id for _, block_id in sent)
    holders = [dst for dst, _ in sent]
    assert 3 not in holders
    assert len(set(holders)) == 3  # rotates over everyone else


def test_sync_gives_up_and_forgets_after_the_last_round(consensus):
    exp = frozen_cluster(consensus)
    engine = exp.replicas[3].consensus
    _, b2 = chain(exp, 2)
    sent = sync_requests(engine)
    engine._handle_proposal(b2)
    assert engine._sync_requested == {b2.parent_id}
    exp.sim.run_until(exp.sim.now + 10 * SYNC_PERIOD + 0.01)
    assert len(sent) == 10
    assert engine._sync_requested == set()
    # Forgotten, not blacklisted: the next orphan asks again.
    engine._request_sync(b2.parent_id, b2.proposer)
    assert len(sent) == 11


def test_long_parked_chain_releases_in_one_loop(consensus):
    """Delivered newest first, every block but the oldest parks; the
    oldest then releases the whole chain without nesting one handler
    per block (which overflowed the interpreter's stack)."""
    exp = frozen_cluster(consensus)
    engine = exp.replicas[3].consensus
    blocks = chain(exp, 2000)
    sync_requests(engine)
    for block in reversed(blocks[1:]):
        engine._handle_proposal(block)
    assert len(engine._orphaned) == 1999
    engine._handle_proposal(blocks[0])
    ours = [block.block_id for block in blocks]
    assert [b for b in engine.proposals if b in set(ours)] == ours
    assert not engine._orphans and not engine._orphaned


def test_block_delivered_twice_while_parked_parks_once(consensus):
    exp = frozen_cluster(consensus)
    engine = exp.replicas[3].consensus
    b1, b2 = chain(exp, 2)
    sync_requests(engine)
    engine._handle_proposal(b2)
    engine._handle_proposal(b2)  # a retransmission or a sync answer
    assert engine._orphans == {b1.block_id: [b2]}
    engine._handle_proposal(b1)
    assert b2.block_id in engine.proposals
    assert not engine._orphans and not engine._orphaned
