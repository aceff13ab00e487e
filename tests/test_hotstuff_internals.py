"""White-box tests for chained HotStuff's internal rules."""

from repro.crypto import (
    GENESIS_QC,
    QuorumCert,
    make_quorum_cert,
    vote_signature,
)
from repro.mempool.base import MessageKinds
from repro.types.proposal import Payload, Proposal, make_block_id

from tests.helpers import make_cluster


def engine_of(exp, node):
    return exp.replicas[node].consensus


def make_qc(block_id, view, n=4):
    quorum = 2 * ((n - 1) // 3) + 1
    votes = [vote_signature(s, block_id, view) for s in range(quorum)]
    return make_quorum_cert(block_id, view, votes, quorum, n)


def make_proposal(block_id, view, height, parent_id, justify, proposer=0):
    return Proposal(
        block_id=block_id, view=view, height=height, proposer=proposer,
        parent_id=parent_id, justify=justify, payload=Payload(),
    )


def record_votes(engine):
    """Block ids ``engine`` votes for, sent or handed to itself: Stratus
    votes without going through ``prepare``."""
    voted = []
    network = engine.host.network
    send, handle_vote = network.send, engine._handle_vote

    def spy_send(src, dst, kind, size, payload, *rest):
        if kind == MessageKinds.VOTE:
            voted.append(payload[0])
        send(src, dst, kind, size, payload, *rest)

    def own_vote(block_id, view, signature):
        voted.append(block_id)
        handle_vote(block_id, view, signature)

    network.send = spy_send
    engine._handle_vote = own_vote
    return voted


def frozen_cluster():
    exp = make_cluster(n=4, mempool="stratus")
    for replica in exp.replicas:
        replica.consensus._try_propose = lambda *a, **k: None
        # stop timers from firing during white-box manipulation
        replica.consensus.suspend()
    return exp


def test_three_chain_commit_rule():
    exp = frozen_cluster()
    engine = engine_of(exp, 3)
    b1 = make_proposal(make_block_id(0, 1), 1, 1, 0, GENESIS_QC)
    qc1 = make_qc(b1.block_id, 1)
    b2 = make_proposal(make_block_id(1, 1), 2, 2, b1.block_id, qc1)
    qc2 = make_qc(b2.block_id, 2)
    b3 = make_proposal(make_block_id(2, 1), 3, 3, b2.block_id, qc2)
    qc3 = make_qc(b3.block_id, 3)
    b4 = make_proposal(make_block_id(3, 1), 4, 4, b3.block_id, qc3)
    for proposal in (b1, b2, b3):
        engine._handle_proposal(proposal)
    assert b1.block_id not in engine.committed
    engine._handle_proposal(b4)  # carries QC over b3: 3-chain b1-b2-b3
    assert b1.block_id in engine.committed
    assert b2.block_id not in engine.committed


def test_commit_includes_all_ancestors():
    exp = frozen_cluster()
    engine = engine_of(exp, 3)
    # Build a chain with a view gap (b2 at view 3), then three
    # consecutive views; committing the head commits the whole prefix.
    b1 = make_proposal(make_block_id(0, 1), 1, 1, 0, GENESIS_QC)
    qc1 = make_qc(b1.block_id, 1)
    b2 = make_proposal(make_block_id(1, 1), 3, 2, b1.block_id, qc1)
    qc2 = make_qc(b2.block_id, 3)
    b3 = make_proposal(make_block_id(2, 1), 4, 3, b2.block_id, qc2)
    qc3 = make_qc(b3.block_id, 4)
    b4 = make_proposal(make_block_id(3, 1), 5, 4, b3.block_id, qc3)
    qc4 = make_qc(b4.block_id, 5)
    b5 = make_proposal(make_block_id(0, 2), 6, 5, b4.block_id, qc4)
    for proposal in (b1, b2, b3, b4, b5):
        engine._handle_proposal(proposal)
    # b2-b3-b4 are consecutive (3,4,5): b2 commits, and so must b1.
    assert b1.block_id in engine.committed
    assert b2.block_id in engine.committed


def test_lock_blocks_vote_on_stale_justify():
    exp = frozen_cluster()
    engine = engine_of(exp, 3)
    engine.locked_view = 5
    engine.cur_view = 6
    votes = record_votes(engine)
    stale = make_proposal(
        make_block_id(0, 9), 6, 2,
        0, make_qc(0, 0) if False else GENESIS_QC,
    )
    engine._handle_proposal(stale)
    assert votes == []  # justify.view (0) < locked_view (5): no vote
    fresh = make_proposal(make_block_id(0, 10), 6, 1, 0, make_qc(0, 5))
    engine._handle_proposal(fresh)
    assert votes == [fresh.block_id]  # the lock alone held the vote back


def test_votes_only_once_per_view():
    exp = frozen_cluster()
    engine = engine_of(exp, 3)
    engine.cur_view = 1
    voted = record_votes(engine)
    first = make_proposal(make_block_id(1, 5), 1, 1, 0, GENESIS_QC)
    double = make_proposal(make_block_id(2, 5), 1, 1, 0, GENESIS_QC)
    engine._handle_proposal(first)
    engine._handle_proposal(double)  # equivocating leader
    assert voted == [first.block_id]


def test_invalid_justify_rejected():
    exp = frozen_cluster()
    engine = engine_of(exp, 3)
    forged = QuorumCert(block_id=0, view=1, signers=(0,), forged=True)
    bad = make_proposal(make_block_id(0, 7), 2, 1, 0, forged)
    engine._handle_proposal(bad)
    assert bad.block_id not in engine.proposals


def test_new_view_quorum_triggers_proposal():
    exp = make_cluster(n=4, mempool="stratus")
    for replica in exp.replicas:
        replica.consensus.suspend()
    # Replica 2 leads view 2 (leader_set rotation: view % 4).
    leader = engine_of(exp, 2)
    proposed = []
    original = leader._try_propose
    leader._try_propose = lambda v, j: proposed.append((v, j))
    for src in (0, 1, 3):
        leader._record_new_view(2, src, GENESIS_QC)
    assert proposed and proposed[0][0] == 2


def test_high_qc_tracks_best():
    exp = frozen_cluster()
    engine = engine_of(exp, 3)
    b1 = make_proposal(make_block_id(0, 1), 1, 1, 0, GENESIS_QC)
    engine._handle_proposal(b1)
    qc = make_qc(b1.block_id, 1)
    engine._process_qc(qc)
    assert engine.high_qc == qc
    engine._process_qc(GENESIS_QC)  # older QC must not regress
    assert engine.high_qc == qc


def test_delivery_order_does_not_change_commits():
    """Any permutation of the same certified chain commits the same
    prefix (orphan parking + release makes delivery order irrelevant)."""
    import itertools

    def build_chain(length=5):
        proposals = []
        parent_id, parent_view = 0, 0
        justify = GENESIS_QC
        for index in range(length):
            proposal = make_proposal(
                make_block_id(index % 4, index + 1), parent_view + 1,
                index + 1, parent_id, justify,
            )
            proposals.append(proposal)
            justify = make_qc(proposal.block_id, proposal.view)
            parent_id, parent_view = proposal.block_id, proposal.view
        return proposals

    chain = build_chain()
    reference = None
    for order in itertools.islice(itertools.permutations(range(5)), 0, 24):
        exp = frozen_cluster()
        engine = engine_of(exp, 3)
        for index in order:
            engine._handle_proposal(chain[index])
        committed = frozenset(engine.committed)
        if reference is None:
            reference = committed
        assert committed == reference, f"order {order} diverged"
    # Three-chain rule: with QCs through view 5, blocks 1..2 commit
    # (block 3 heads the chain certified by block 4's justify... the
    # deepest 3-chain ends at view 5's justify over block 4).
    assert chain[0].block_id in reference
    assert chain[1].block_id in reference


def test_view_timer_is_one_armed_timer_with_a_movable_deadline():
    exp = make_cluster(
        n=4, mempool="stratus", protocol_overrides={"view_timeout": 1.0},
    )
    sim = exp.sim
    engine = engine_of(exp, 3)
    engine._try_propose = lambda *a, **k: None
    assert engine.cur_view == 1  # start() entered it at t = 0
    armed = engine._timer
    changes = []
    record = exp.metrics.record_view_change
    exp.metrics.record_view_change = lambda node, view: (
        changes.append((sim.now, node, view)), record(node, view),
    )
    # Alone in the world: nobody else keeps time, nothing is delivered.
    for other in (0, 1, 2):
        engine_of(exp, other).suspend()
    exp.network.set_drop_filter(lambda envelope: True)
    cancelled = sim.cancelled_pending
    sim.run_until(0.25)
    engine._enter_view(2)
    sim.run_until(0.75)
    engine._enter_view(3)
    # Entering a view cancels nothing and arms nothing...
    assert engine._timer is armed and armed.active
    assert sim.cancelled_pending == cancelled
    sim.run_until(1.5)
    # ...the timer armed for view 1 fired at 1.0, found the deadline
    # moved and re-armed itself there,
    assert changes == [] and not armed.active
    assert engine._timer.deadline == 0.75 + 1.0
    sim.run_until(2.0)
    # and view 3 times out one view_timeout after it was entered.
    assert changes == [(0.75 + 1.0, 3, 3)]
    assert engine.cur_view == 4


def test_suspended_engine_arms_a_fresh_view_timer_on_resume():
    exp = make_cluster(
        n=4, mempool="stratus", protocol_overrides={"view_timeout": 1.0},
    )
    sim = exp.sim
    for replica in exp.replicas:
        replica.consensus.suspend()
    exp.network.set_drop_filter(lambda envelope: True)
    engine = engine_of(exp, 3)
    engine._try_propose = lambda *a, **k: None
    assert engine._timer is None
    sim.run_until(5.0)
    assert engine.cur_view == 1  # no timeout while suspended
    engine.resume()
    assert engine._timer.deadline == 6.0
    sim.run_until(6.0)
    assert engine.cur_view == 2
