"""One proposal per microblock across the leader hand-off.

A replica marks a proposal's ids as referenced when its engine *stores*
the proposal (``Mempool.on_proposal``), not when it votes
(``Mempool.prepare``). The case that separates
the two: the next leader collects a vote quorum for view ``v`` and
enters ``v + 1`` before its own copy of proposal ``v`` lands, so it
never votes on ``v`` — and must still not propose ``v``'s ids again.
White-box, in the style of ``tests/test_hotstuff_internals.py``.
"""

import dataclasses

import pytest

from repro.crypto import GENESIS_QC, make_quorum_cert, vote_signature
from repro.types.proposal import Payload, PayloadEntry, Proposal, make_block_id

from tests.helpers import STRATUS_KINDS, inject, make_cluster, mempool_fields

MEMPOOLS = (*STRATUS_KINDS, "simple", "narwhal")


def frozen_cluster(consensus, mempool):
    """A cluster whose engines neither propose nor time out on their own."""
    overrides = {"streamlet_epoch": 100.0, **mempool_fields(mempool)}
    n = 8 if mempool == "sharded-stratus" else 4
    exp = make_cluster(
        n=n, consensus=consensus, protocol_overrides=overrides,
    )
    for replica in exp.replicas:
        engine = replica.consensus
        engine.suspend()
        # HotStuff proposes through _try_propose; Streamlet's epoch
        # clock is what suspend cancelled.
        engine._try_propose = lambda *a, **k: None
    exp.sim.run_until(0.01)  # flush what start() had already scheduled
    return exp


def quorum_of(exp):
    return exp.config.protocol.consensus_quorum


def votes_for(exp, proposal):
    return [
        vote_signature(signer, proposal.block_id, proposal.view)
        for signer in range(quorum_of(exp))
    ]


def qc_for(exp, proposal):
    return make_quorum_cert(
        proposal.block_id, proposal.view, votes_for(exp, proposal),
        quorum_of(exp), exp.config.protocol.n,
    )


def block(proposer, view, height, parent_id, justify, payload=Payload()):
    return Proposal(
        block_id=make_block_id(proposer, 100 + view), view=view,
        height=height, proposer=proposer, parent_id=parent_id,
        justify=justify, payload=payload,
    )


def captured_payloads(mempool):
    """Record every payload ``mempool`` hands to its engine from now on."""
    payloads = []
    make_payload = mempool.make_payload

    def recording():
        payload = make_payload()
        payloads.append(payload)
        return payload

    mempool.make_payload = recording
    return payloads


def captured_abandonments(mempool):
    """Record the block id of every proposal ``mempool`` is told was
    abandoned from now on — the hand-off the engines' sweep exists for."""
    abandoned = []
    on_abandoned = mempool.on_abandoned

    def recording(proposal):
        abandoned.append(proposal.block_id)
        on_abandoned(proposal)

    mempool.on_abandoned = recording
    return abandoned


def commit_fork_past_height_one(exp, engine, payloads=None):
    """Deliver a competing chain a1..a4 (views 2-5) from genesis: a1
    commits, so any other block at height 1 is abandoned. Blocks are
    empty unless ``payloads`` names one for their view."""
    payloads = payloads or {}
    parent_id, justify = 0, GENESIS_QC
    for view in range(2, 6):
        fork = block(
            0, view, view - 1, parent_id, justify,
            payloads.get(view, Payload()),
        )
        engine._handle_proposal(fork)
        parent_id, justify = fork.block_id, qc_for(exp, fork)
    assert engine.committed_height >= 1


# -- the hand-off ----------------------------------------------------------


def hotstuff_handoff(exp, first_payload):
    """Votes for view 1 reach the leader of view 2 before proposal 1."""
    first = block(1, 1, 1, 0, GENESIS_QC, first_payload())
    engine = exp.replicas[2].consensus
    del engine._try_propose  # this replica proposes for real
    payloads = captured_payloads(engine.mempool)
    for vote in votes_for(exp, first):
        engine._handle_vote(first.block_id, first.view, vote)
    # In view 2 already, waiting for the block its QC certifies.
    assert engine.cur_view == 2 and not payloads
    engine._handle_proposal(first)
    return first, payloads


def streamlet_handoff(exp, first_payload):
    """Proposal 2 reaches the leader of epoch 3 after its clock moved on."""
    engine = exp.replicas[3].consensus
    tip = engine._longest_notarized_tip()
    first = block(
        2, 2, tip.height + 1, tip.block_id, engine._certs[tip.block_id],
        first_payload(),
    )
    payloads = captured_payloads(engine.mempool)
    engine.epoch = 3
    for vote in votes_for(exp, first):
        engine._handle_vote(first.block_id, vote)
    engine._handle_proposal(first)  # notarized on arrival, never voted on
    assert first.view not in engine._voted_epochs
    engine._propose(3)
    return first, payloads


HANDOFFS = {
    "hotstuff": (hotstuff_handoff, 1),
    "twochain": (hotstuff_handoff, 1),
    "streamlet": (streamlet_handoff, 2),
}


@pytest.mark.parametrize("mempool", MEMPOOLS)
@pytest.mark.parametrize("consensus", sorted(HANDOFFS))
def test_next_leader_does_not_repropose_what_it_never_voted_on(
    consensus, mempool
):
    handoff, first_leader = HANDOFFS[consensus]
    exp = frozen_cluster(consensus, mempool)
    inject(exp, 0)
    exp.sim.run_until(0.5)

    def first_payload():
        # Cut by the first leader, then a second microblock becomes
        # available everywhere: the one thing left to propose.
        payload = exp.replicas[first_leader].mempool.make_payload()
        inject(exp, 3)
        exp.sim.run_until(1.0)
        return payload

    first, payloads = handoff(exp, first_payload)
    first_ids = set(first.payload.microblock_ids)
    assert len(first_ids) == 1
    assert len(payloads) == 1
    next_ids = list(payloads[0].microblock_ids)
    assert len(next_ids) == 1 and first_ids.isdisjoint(next_ids)


# -- the ways back ----------------------------------------------------------


@pytest.mark.parametrize("mempool", MEMPOOLS)
@pytest.mark.parametrize("consensus", ("hotstuff", "twochain"))
def test_abandoned_ids_come_back_exactly_once(consensus, mempool):
    exp = frozen_cluster(consensus, mempool)
    inject(exp, 0)
    exp.sim.run_until(0.5)
    lost = block(
        1, 1, 1, 0, GENESIS_QC, exp.replicas[1].mempool.make_payload()
    )
    assert lost.payload.entries
    engine = exp.replicas[3].consensus
    engine._handle_proposal(lost)
    assert engine.mempool.make_payload().is_empty  # referenced by `lost`
    abandoned = captured_abandonments(engine.mempool)
    commit_fork_past_height_one(exp, engine)
    assert abandoned == [lost.block_id]
    again = engine.mempool.make_payload()
    assert again.microblock_ids == lost.payload.microblock_ids
    assert engine.mempool.make_payload().is_empty


@pytest.mark.parametrize("mempool", MEMPOOLS)
def test_abandoned_fork_frees_nothing_a_pending_block_carries(mempool):
    """Two stored proposals carry one id: a fork nobody else saw, and a
    block on the chain that wins. Abandoning the fork must leave the id
    referenced, or this replica proposes it a third time on top of the
    block that is about to commit it."""
    exp = frozen_cluster("hotstuff", mempool)
    inject(exp, 0)
    exp.sim.run_until(0.5)
    payload = exp.replicas[1].mempool.make_payload()
    assert payload.entries
    engine = exp.replicas[3].consensus
    lost = block(1, 1, 1, 0, GENESIS_QC, payload)
    engine._handle_proposal(lost)
    # a3 (height 3) carries the id again and is still uncommitted when
    # a4's justify commits a1 and sweeps `lost`.
    abandoned = captured_abandonments(engine.mempool)
    commit_fork_past_height_one(exp, engine, payloads={4: payload})
    assert abandoned == [lost.block_id]
    assert engine.committed_height < 3
    assert engine.mempool.make_payload().is_empty


@pytest.mark.parametrize("mempool", STRATUS_KINDS)
def test_bad_proof_proposal_strands_nothing(mempool):
    """A proposal that fails verification is blamed on its leader and
    never reaches the mempool: its ids stay proposable, once, and the
    block is not swept as an abandoned fork later (which would hand ids
    out a second time while this replica's own proposal is pending)."""
    exp = frozen_cluster("hotstuff", mempool)
    inject(exp, 0)
    exp.sim.run_until(0.5)
    leader_pool = exp.replicas[1].mempool
    entry = leader_pool.make_payload().entries[0]
    forged = dataclasses.replace(entry.cert, forged=True)
    bad = block(1, 1, 1, 0, GENESIS_QC, Payload(entries=(
        PayloadEntry(entry.mb_id, forged),
    )))
    engine = exp.replicas[3].consensus
    engine._handle_proposal(bad)
    assert engine.cur_view == 2  # blamed: view change
    assert bad.block_id in engine.proposals
    assert entry.mb_id not in engine.mempool._referenced
    own = engine.mempool.make_payload()
    assert own.microblock_ids == (entry.mb_id,)
    abandoned = captured_abandonments(engine.mempool)
    commit_fork_past_height_one(exp, engine)
    assert abandoned == []
    assert engine.mempool.make_payload().is_empty


@pytest.mark.parametrize("consensus", ("hotstuff", "twochain", "streamlet"))
def test_marking_does_not_route_through_prepare(consensus):
    """The vote gate can be stubbed out (as the vote-counting tests do)
    without un-marking anything."""
    exp = frozen_cluster(consensus, "stratus")
    inject(exp, 0)
    exp.sim.run_until(0.5)
    payload = exp.replicas[1].mempool.make_payload()
    engine = exp.replicas[3].consensus
    engine.mempool.prepare = lambda proposal, on_ready: None
    engine._handle_proposal(block(1, 1, 1, 0, GENESIS_QC, payload))
    assert set(payload.microblock_ids) <= engine.mempool._referenced.keys()
