"""White-box tests for Streamlet's notarization and finalization rules."""

from repro.crypto import GENESIS_QC, vote_signature
from repro.types.proposal import Payload, Proposal, make_block_id

from tests.helpers import make_cluster


def frozen_streamlet(n=4):
    exp = make_cluster(
        n=n, consensus="streamlet",
        protocol_overrides={"streamlet_epoch": 100.0},  # epochs frozen
    )
    return exp


def make_proposal(block_id, epoch, height, parent_id, proposer=0):
    return Proposal(
        block_id=block_id, view=epoch, height=height, proposer=proposer,
        parent_id=parent_id, justify=GENESIS_QC, payload=Payload(),
    )


def notarize(engine, proposal, n=4):
    engine._handle_proposal(proposal)
    for signer in range(n):
        engine._handle_vote(
            proposal.block_id,
            vote_signature(signer, proposal.block_id, proposal.view),
        )


def test_notarization_at_quorum():
    exp = frozen_streamlet()
    engine = exp.replicas[3].consensus
    proposal = make_proposal(make_block_id(0, 1), 1, 1, 0)
    engine._handle_proposal(proposal)
    for signer in range(2):
        engine._handle_vote(
            proposal.block_id,
            vote_signature(signer, proposal.block_id, 1),
        )
    assert proposal.block_id not in engine.notarized  # only 2 of 3 needed
    engine._handle_vote(
        proposal.block_id, vote_signature(2, proposal.block_id, 1),
    )
    assert proposal.block_id in engine.notarized


def test_three_consecutive_epochs_finalize_middle():
    # Start at epoch 2 so genesis (epoch 0) is not epoch-adjacent.
    exp = frozen_streamlet()
    engine = exp.replicas[3].consensus
    b1 = make_proposal(make_block_id(0, 1), 2, 1, 0)
    b2 = make_proposal(make_block_id(1, 1), 3, 2, b1.block_id)
    b3 = make_proposal(make_block_id(2, 1), 4, 3, b2.block_id)
    notarize(engine, b1)
    notarize(engine, b2)
    assert b1.block_id not in engine.committed
    notarize(engine, b3)
    assert b1.block_id in engine.committed
    assert b2.block_id in engine.committed
    assert b3.block_id not in engine.committed  # only the prefix commits


def test_genesis_counts_as_epoch_zero():
    """Blocks at epochs 1 and 2 finalize epoch 1 (0-1-2 is a 3-chain)."""
    exp = frozen_streamlet()
    engine = exp.replicas[3].consensus
    b1 = make_proposal(make_block_id(0, 1), 1, 1, 0)
    b2 = make_proposal(make_block_id(1, 1), 2, 2, b1.block_id)
    notarize(engine, b1)
    notarize(engine, b2)
    assert b1.block_id in engine.committed


def test_epoch_gap_blocks_finalization():
    exp = frozen_streamlet()
    engine = exp.replicas[3].consensus
    b1 = make_proposal(make_block_id(0, 1), 2, 1, 0)
    b2 = make_proposal(make_block_id(1, 1), 3, 2, b1.block_id)
    b4 = make_proposal(make_block_id(2, 1), 5, 3, b2.block_id)  # gap: 4
    notarize(engine, b1)
    notarize(engine, b2)
    notarize(engine, b4)
    assert engine.committed == {0}  # nothing finalizes across the gap


def test_forged_votes_ignored():
    from repro.crypto import Signature

    exp = frozen_streamlet()
    engine = exp.replicas[3].consensus
    proposal = make_proposal(make_block_id(0, 1), 1, 1, 0)
    engine._handle_proposal(proposal)
    for signer in range(3):
        forged = Signature(signer=signer, digest=0, forged=True)
        engine._handle_vote(proposal.block_id, forged)
    assert proposal.block_id not in engine.notarized


def test_longest_notarized_tip_selection():
    exp = frozen_streamlet()
    engine = exp.replicas[3].consensus
    b1 = make_proposal(make_block_id(0, 1), 1, 1, 0)
    b2 = make_proposal(make_block_id(1, 1), 2, 2, b1.block_id)
    short_fork = make_proposal(make_block_id(2, 1), 3, 1, 0)
    notarize(engine, b1)
    notarize(engine, b2)
    notarize(engine, short_fork)
    tip = engine._longest_notarized_tip()
    assert tip.block_id == b2.block_id  # height 2 beats height 1


def test_vote_requires_extending_longest_chain():
    exp = frozen_streamlet()
    engine = exp.replicas[3].consensus
    engine.epoch = 5
    b1 = make_proposal(make_block_id(0, 1), 1, 1, 0)
    b2 = make_proposal(make_block_id(1, 1), 2, 2, b1.block_id)
    notarize(engine, b1)
    notarize(engine, b2)
    prepared = []
    engine.mempool.prepare = lambda p, cb: prepared.append(p)
    # A proposal extending the shorter (genesis) chain must not get a vote.
    leader = engine.leader_of(5)
    stale = make_proposal(make_block_id(3, 9), 5, 1, 0, proposer=leader)
    engine._handle_proposal(stale)
    assert prepared == []
    # One extending the longest notarized chain does.
    good = make_proposal(
        make_block_id(3, 10), 5, 3, b2.block_id, proposer=leader)
    engine._handle_proposal(good)
    assert prepared == [good]
