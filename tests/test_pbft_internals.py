"""White-box tests for PBFT's two-round commit logic."""

from repro.crypto import GENESIS_QC
from repro.types.proposal import Payload, Proposal, make_block_id

from tests.helpers import make_cluster


def frozen_pbft(n=4):
    exp = make_cluster(n=n, consensus="pbft", mempool="native")
    for replica in exp.replicas:
        replica.consensus._pump = lambda *a, **k: None
    return exp


def make_pre_prepare(seq):
    """Slot ``seq``: the block at height ``seq + 1`` extending slot
    ``seq - 1`` (genesis for slot 0)."""
    return Proposal(
        block_id=make_block_id(0, seq), view=0, height=seq + 1, proposer=0,
        parent_id=make_block_id(0, seq - 1) if seq else 0,
        justify=GENESIS_QC, payload=Payload(),
    )


def prepare_and_commit(engine, block_id, voters=(1, 2)):
    for voter in voters:
        engine._on_prepare(block_id, voter)
    for voter in voters:
        engine._on_commit_vote(block_id, voter)


def test_prepare_quorum_gates_commit_round():
    exp = frozen_pbft()
    engine = exp.replicas[3].consensus
    proposal = make_pre_prepare(0)
    block_id = proposal.block_id
    engine._handle_proposal(proposal)  # own prepare broadcast
    assert engine._prepares[block_id] == {3}
    engine._on_prepare(block_id, 1)
    assert block_id not in engine._commit_sent
    engine._on_prepare(block_id, 2)
    assert block_id in engine._commit_sent  # 3 = 2f+1 prepares (incl own)
    assert block_id not in engine.committed


def test_commit_quorum_commits_once():
    exp = frozen_pbft()
    engine = exp.replicas[3].consensus
    proposal = make_pre_prepare(0)
    commits = []
    engine.mempool.on_commit = lambda proposal, now: commits.append(proposal)
    engine._handle_proposal(proposal)
    prepare_and_commit(engine, proposal.block_id)
    assert proposal.block_id in engine.committed
    assert engine.committed_height == 1
    # Replaying votes must not double-commit.
    engine._on_commit_vote(proposal.block_id, 1)
    assert commits == [proposal]


def test_commit_requires_pre_prepare():
    exp = frozen_pbft()
    engine = exp.replicas[3].consensus
    block_id = make_pre_prepare(5).block_id
    for voter in (0, 1, 2):
        engine._on_prepare(block_id, voter)
        engine._on_commit_vote(block_id, voter)
    assert block_id not in engine.committed  # no proposal content yet
    assert engine.committed_height == 0


def test_later_commit_quorum_commits_stored_ancestors_in_order():
    """Slot 1's quorum arrives first: it commits slot 0 with it, oldest
    first, and slot 0's own quorum later changes nothing."""
    exp = frozen_pbft()
    engine = exp.replicas[3].consensus
    slots = [make_pre_prepare(seq) for seq in (0, 1)]
    commits = []
    engine.mempool.on_commit = lambda proposal, now: commits.append(proposal)
    for proposal in slots:
        engine._handle_proposal(proposal)
    prepare_and_commit(engine, slots[1].block_id)
    assert commits == slots
    assert engine.committed_height == 2
    prepare_and_commit(engine, slots[0].block_id)
    assert commits == slots


def test_slot_waits_for_its_parent():
    exp = frozen_pbft()
    engine = exp.replicas[3].consensus
    slot0, slot1 = make_pre_prepare(0), make_pre_prepare(1)
    engine._handle_proposal(slot1)
    assert slot1.block_id in engine._orphaned
    assert slot1.block_id not in engine._prepares  # parked, not prepared
    engine._handle_proposal(slot0)
    assert list(engine._unresolved) == [slot0.block_id, slot1.block_id]
    assert engine._prepares[slot1.block_id] == {3}


def test_silent_replica_does_not_vote():
    from repro.replica.behavior import SilentReplica

    exp = frozen_pbft()
    engine = exp.replicas[3].consensus
    exp.replicas[3].behavior = SilentReplica()
    proposal = make_pre_prepare(0)
    engine._handle_proposal(proposal)
    assert proposal.block_id in engine.proposals
    assert 3 not in engine._prepares.get(proposal.block_id, ())
