"""Orphan parking and chain sync, once, for every chained engine.

``ChainedEngine`` owns the code; HotStuff, two-chain HotStuff and
Streamlet only decide when to call it, so each case runs against all
three. White-box: blocks are handed to ``_handle_proposal`` directly and
sync requests are read off ``engine.send``. A request carries
``(block_id, requester's committed height)``; the answer is the block
and its ancestors above that height, oldest first.
"""

import pytest

from repro.consensus.chain import SYNC_SEGMENT_BLOCKS
from repro.crypto import GENESIS_QC, make_quorum_cert, vote_signature
from repro.harness.config import ExperimentConfig
from repro.harness.presets import chaos_schedule, tuned_protocol
from repro.harness.runner import build_experiment
from repro.live.wire import get_codec
from repro.mempool.base import MessageKinds
from repro.sim.network import Channel, Envelope
from repro.types.proposal import Payload, Proposal, make_block_id
from repro.verification import standard_suite

from tests.helpers import make_cluster

ENGINES = ("hotstuff", "twochain", "streamlet")
SYNC_PERIOD = 0.5
every_engine = pytest.mark.parametrize("consensus", ENGINES)
hotstuff_engines = pytest.mark.parametrize(
    "consensus", ("hotstuff", "twochain")
)


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
        engine._try_propose = lambda *a, **k: None
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
    from now on (nothing reaches the network). Each must carry the
    engine's committed height beside the block id."""
    sent = []

    def recording(dst, kind, size_bytes, payload):
        if kind == MessageKinds.SYNC_REQUEST:
            block_id, height = payload
            assert height == engine.committed_height
            sent.append((dst, block_id))

    engine.send = recording
    return sent


@every_engine
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


@every_engine
def test_parked_block_is_not_requested(consensus):
    exp = frozen_cluster(consensus)
    engine = exp.replicas[3].consensus
    _, b2, b3 = chain(exp, 3)
    sent = sync_requests(engine)
    engine._handle_proposal(b2)  # parked: b1 is missing
    engine._handle_proposal(b3)  # its parent b2 is here, only parked
    assert [block_id for _, block_id in sent] == [b2.parent_id]
    assert b2.block_id not in engine._sync_requested


@every_engine
def test_sync_request_is_served(consensus):
    exp = frozen_cluster(consensus)
    serving = exp.replicas[0].consensus
    receiving = exp.replicas[2].consensus
    (b1,) = chain(exp, 1)
    serving._handle_proposal(b1)
    assert b1.block_id not in receiving.proposals
    exp.replicas[0].handle(Envelope(
        src=2, dst=0, kind=MessageKinds.SYNC_REQUEST, size_bytes=48,
        payload=(b1.block_id, receiving.committed_height),
        channel=Channel.CONSENSUS,
    ))
    exp.sim.run_until(exp.sim.now + 0.2)
    assert receiving.proposals[b1.block_id] is b1


@every_engine
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


@every_engine
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


@every_engine
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


@every_engine
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


def served(exp, server, requester, request):
    """Hand ``server`` one sync request from ``requester``; return the
    ``(dst, kind, payload)`` of everything it sends in reply."""
    replies = []
    exp.replicas[server].consensus.send = (
        lambda dst, kind, size_bytes, payload:
        replies.append((dst, kind, payload))
    )
    exp.replicas[server].handle(Envelope(
        src=requester, dst=server, kind=MessageKinds.SYNC_REQUEST,
        size_bytes=48, payload=request, channel=Channel.CONSENSUS,
    ))
    return replies


@every_engine
def test_reply_is_the_segment_above_the_requesters_height(consensus):
    exp = frozen_cluster(consensus)
    serving = exp.replicas[0].consensus
    blocks = chain(exp, 5)
    for block in blocks:
        serving._handle_proposal(block)
    tip = blocks[-1].block_id
    assert served(exp, 0, 2, (tip, 2)) == [
        (2, MessageKinds.PROPOSAL, block) for block in blocks[2:]
    ]
    # A block at or below the requester's height is still the answer,
    # alone (a fork the requester's commits ruled out).
    assert served(exp, 0, 2, (blocks[1].block_id, 4)) == [
        (2, MessageKinds.PROPOSAL, blocks[1]),
    ]
    assert served(exp, 0, 2, (make_block_id(0, 999_999), 0)) == []


@every_engine
def test_a_segment_cut_short_is_asked_for_again(consensus):
    """The answer stops at ``SYNC_SEGMENT_BLOCKS``; its oldest block is
    then an orphan, whose parent the requester asks for at once. (LAN
    jitter lets the answer's blocks overtake each other, and each child
    that lands before its parent asks too: count no other request.)"""
    exp = frozen_cluster(consensus)
    serving, receiving = exp.replicas[0].consensus, exp.replicas[2].consensus
    blocks = chain(exp, SYNC_SEGMENT_BLOCKS + 8)
    for block in blocks:
        serving._handle_proposal(block)
    sent, send = [], receiving.send

    def recording(dst, kind, size_bytes, payload):
        if kind == MessageKinds.SYNC_REQUEST:
            sent.append(payload[0])
        send(dst, kind, size_bytes, payload)

    receiving.send = recording
    receiving._request_sync(blocks[-1].block_id, 0)
    exp.sim.run_until(exp.sim.now + 0.8 * SYNC_PERIOD)  # before any retry
    assert sent[0] == blocks[-1].block_id
    assert blocks[7].block_id in sent
    assert all(block.block_id in receiving.proposals for block in blocks)


@every_engine
def test_malformed_sync_request_is_dropped_and_counted(consensus):
    """A bare block id (a peer on the old format) or a tuple of the wrong
    arity, through either codec, costs the server nothing but a count."""
    exp = frozen_cluster(consensus)
    stats = exp.replicas[0].network.stats
    for codec in ("json", "binary"):
        for bad in (7, (7,), (7, 0, 0), (7, "0")):
            frame = get_codec(codec).encode(
                2, MessageKinds.SYNC_REQUEST, Channel.CONSENSUS, bad
            )
            src, kind, channel, payload = get_codec(codec).decode(frame[4:])
            dropped = stats.messages_dropped
            assert served(exp, 0, src, payload) == []
            assert stats.messages_dropped == dropped + 1


def _led_view(engine, after):
    """The first view above ``after`` that ``engine``'s replica leads."""
    view = after + 1
    while engine.leader_of(view) != engine.node_id:
        view += 1
    return view


@hotstuff_engines
def test_new_view_quorum_on_an_unknown_block_asks_once(consensus):
    """A leader back from a crash completes a new-view quorum whose best
    QC certifies a block it never received: it defers its proposal and
    asks the block's proposer for it, once."""
    exp = frozen_cluster(consensus)
    engine = exp.replicas[3].consensus
    del engine._try_propose  # the real deferral, not the frozen stub
    _, b2, b3 = chain(exp, 3, proposer=1)
    qc = b3.justify  # certifies b2
    view = _led_view(engine, engine.cur_view)
    sent = sync_requests(engine)
    for src in range(exp.config.protocol.consensus_quorum):
        engine._record_new_view(view, src, qc)
    assert engine._deferred_propose[b2.block_id] == (view, qc)
    assert sent == [(1, b2.block_id)]
    engine._record_new_view(view, 3, qc)  # the quorum grows: no new ask
    assert sent == [(1, b2.block_id)]


@hotstuff_engines
def test_votes_that_outran_the_proposal_defer_without_asking(consensus):
    """Votes forming a QC before the proposal they certify lands: the
    block is in flight, and asking for it would duplicate it."""
    exp = frozen_cluster(consensus)
    engine = exp.replicas[3].consensus
    del engine._try_propose
    (b1,) = chain(exp, 1, proposer=1)
    view = _led_view(engine, engine.cur_view)
    sent = sync_requests(engine)
    for signer in range(exp.config.protocol.consensus_quorum):
        engine._handle_vote(
            b1.block_id, view - 1,
            vote_signature(signer, b1.block_id, view - 1),
        )
    assert engine._deferred_propose[b1.block_id][0] == view
    assert sent == []


def test_restarted_leader_catches_up_within_two_view_timeouts():
    """The ledger's crash cell at a light load, run past the view change
    that hands the restarted replica its first view (5.2 s): S-HS, n=16,
    WAN, fair-share links, replica 15 down from 2 s to 4 s. Its
    new-view quorum certifies a block proposed while it was down. When
    it fetched nothing, that view timed out too, and commits stopped
    from about 3 s to past the 7 s end of this run (4.8 s at the
    ledger's load); fetching the segment in one round trip leaves only
    the view lost to votes sent to the crashed next leader."""
    protocol = tuned_protocol(
        "S-HS", 16, "wan", batch_bytes=16_384, batch_timeout=0.1,
    )
    config = ExperimentConfig(
        protocol, topology_kind="wan", link_model="fair-share",
        rate_tps=2000.0, faults=chaos_schedule("crash-restart", 16),
        warmup=1.0, duration=6.0, seed=7,
    )
    experiment = build_experiment(config, standard_suite())
    result = experiment.run()
    assert experiment.sim.now > 6.5
    assert result.violations == []
    (crash,) = experiment.metrics.fault_report()
    assert crash["commit_gap"] < 2 * protocol.view_timeout
