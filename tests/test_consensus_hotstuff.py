"""Integration tests for chained HotStuff."""

import pytest

from repro.consensus.chain import GENESIS_ID
from repro.replica.behavior import SilentReplica
from repro.sharding import ShardCertificate
from repro.types.proposal import Payload, PayloadEntry

from tests.helpers import byzantine_nodes, inject, make_cluster


def test_commits_with_native_mempool():
    exp = make_cluster(n=4, mempool="native", rate_tps=500, duration=3.0)
    exp.sim.run_until(3.0)
    assert exp.metrics.committed_tx_total > 0
    assert exp.metrics.view_change_count == 0


def test_all_replicas_agree_on_committed_chain():
    exp = make_cluster(n=4, mempool="stratus", rate_tps=500, duration=3.0)
    exp.sim.run_until(3.0)
    # Height -> block id must be identical wherever committed.
    canonical: dict[int, int] = {}
    for replica in exp.replicas:
        engine = replica.consensus
        for block_id in engine.committed:
            height = engine.proposals[block_id].height
            assert canonical.setdefault(height, block_id) == block_id


def test_commits_with_f_silent_replicas():
    exp = make_cluster(
        n=7, mempool="stratus", rate_tps=500, duration=3.0,
        fault="silent", fault_count=2,
    )
    exp.sim.run_until(3.0)
    assert exp.metrics.committed_tx_total > 0
    assert exp.metrics.view_change_count == 0


def test_silent_leader_triggers_view_change_and_recovery():
    exp = make_cluster(
        n=4, mempool="stratus", rate_tps=500, duration=8.0,
        protocol_overrides={"view_timeout": 0.5},
    )
    # Replica 1 leads view 1; silencing it forces a timeout round.
    exp.replicas[1].behavior = SilentReplica()
    exp.sim.run_until(8.0)
    assert exp.metrics.view_change_count > 0
    assert exp.metrics.committed_tx_total > 0


def test_invalid_availability_proof_triggers_view_change():
    exp = make_cluster(n=4, mempool="stratus")
    exp.sim.run_until(0.1)
    engine = exp.replicas[2].consensus
    mempool = exp.replicas[2].mempool
    forged = ShardCertificate(
        mb_id=42, tx_count=1, mean_arrival=0.0, signers=(0, 1), forged=True,
    )
    payload = Payload(entries=(PayloadEntry(mb_id=42, cert=forged),))
    assert not mempool.verify_payload(payload)
    before = exp.metrics.view_change_count
    from repro.crypto import GENESIS_QC
    from repro.types.proposal import Proposal, make_block_id
    bad = Proposal(
        block_id=make_block_id(9, 999), view=engine.cur_view,
        height=1, proposer=engine.leader_of(engine.cur_view),
        parent_id=0, justify=GENESIS_QC, payload=payload,
    )
    engine._handle_proposal(bad)
    assert exp.metrics.view_change_count > before


def test_executor_states_converge():
    exp = make_cluster(
        n=4, mempool="stratus", rate_tps=500, duration=3.0,
        attach_executor=True,
    )
    exp.sim.run_until(4.0)
    digests = {replica.executor.state_digest() for replica in exp.replicas}
    applied = {replica.executor.tx_applied for replica in exp.replicas}
    assert len(digests) == 1
    assert applied.pop() > 0


def _parked_leader(exp, step=0.01):
    """Run until a replica leads its current view and is parked on a
    mempool with nothing to propose; return that replica."""
    while exp.sim.now < 10.0:
        exp.sim.run_until(exp.sim.now + step)
        for replica in exp.replicas:
            engine = replica.consensus
            view = engine.cur_view
            if (
                engine.leader_of(view) == replica.node_id
                and engine._pacing_view == view
                and view not in engine._proposed_views
                and replica.mempool._wake is not None
            ):
                return replica
    raise AssertionError("no leader parked in 10 s")


def _payload_blocks(replica):
    return [
        proposal for proposal in replica.consensus.proposals.values()
        if not proposal.payload.is_empty
    ]


def test_idle_chain_parks_instead_of_spinning():
    """No load and no faults for twelve view timeouts: no view changes,
    the chain still grows, and no leader proposes sooner than a quarter
    view timeout after the block before."""
    view_timeout = 0.5
    exp = make_cluster(
        n=4, mempool="stratus",
        protocol_overrides={"view_timeout": view_timeout},
    )
    exp.sim.run_until(12 * view_timeout)
    assert exp.metrics.view_change_count == 0
    engine = exp.replicas[0].consensus
    assert engine.committed_height > 3
    created = sorted(
        proposal.created_at for proposal in engine.proposals.values()
        if proposal.block_id != GENESIS_ID
    )
    assert len(created) > 3
    gaps = [later - earlier for earlier, later in zip(created, created[1:])]
    assert min(created[0], *gaps) >= view_timeout / 4


@pytest.mark.parametrize("mempool", ["stratus", "native"])
def test_parked_leader_proposes_once_an_id_is_proposable(mempool):
    """The id's enqueue wakes the parked leader, which proposes it in
    the parked view at that instant (the wake is one event, at delay
    0), not when the park would have run out; the park's fallback is
    cancelled, not left to fire as a no-op."""
    exp = make_cluster(n=4, mempool=mempool)
    leader = _parked_leader(exp)
    view = leader.consensus.cur_view
    fallback = leader.consensus._retry
    mempool_ = leader.mempool
    unpark, woken = mempool_._unpark, []

    def record_unpark():
        woken.append(exp.sim.now)
        unpark()

    mempool_._unpark = record_unpark
    inject(exp, leader.node_id)
    exp.sim.run_until(exp.sim.now + 0.1)
    [block] = _payload_blocks(leader)
    assert (block.view, block.proposer) == (view, leader.node_id)
    assert woken and block.created_at == woken[0]
    assert fallback.cancelled


@pytest.mark.parametrize("mempool", ["stratus", "native"])
def test_a_park_that_runs_out_drops_its_wake(mempool):
    """Nothing turns proposable: the park's fallback proposes the view
    empty, and the wake goes with it instead of firing later as a
    no-op retry of a view already proposed."""
    exp = make_cluster(n=4, mempool=mempool)
    leader = _parked_leader(exp)
    view = leader.consensus.cur_view
    exp.sim.run_until(exp.sim.now + exp.config.protocol.view_timeout / 4)
    assert view in leader.consensus._proposed_views
    assert leader.mempool._wake is None


def test_a_retry_after_the_view_moved_pulls_nothing():
    """A parked view's retry that fires once the replica is in a later
    view returns before it pulls: the proposable ids stay queued."""
    exp = make_cluster(n=4, mempool="simple")
    leader = _parked_leader(exp)
    engine, mempool = leader.consensus, leader.mempool
    view, justify = engine.cur_view, engine.high_qc
    engine._enter_view(view + 1)
    mempool._wake = None  # keep the enqueue below from waking it
    mempool._enqueue(0xFEED)
    engine._try_propose(view, justify)
    assert list(mempool._proposable) == [0xFEED]
    assert view not in engine._proposed_views


@pytest.mark.parametrize("consensus", ["hotstuff", "twochain"])
def test_parking_never_holds_back_a_followers_commit(consensus):
    """Empty views stay paced while their QC still commits payload: the
    last payload block commits at every replica within the
    ``commit_links + 1`` paced views after it, well inside one park."""
    exp = make_cluster(n=4, mempool="stratus", consensus=consensus)
    leader = _parked_leader(exp)
    inject(exp, leader.node_id)
    exp.sim.run_until(exp.sim.now + 0.1)
    [block] = _payload_blocks(leader)
    park = exp.config.protocol.view_timeout / 4
    exp.sim.run_until(block.created_at + park)
    for replica in exp.replicas:
        assert block.block_id in replica.consensus.committed


def test_leader_rotation_round_robin():
    exp = make_cluster(n=4, mempool="stratus")
    engine = exp.replicas[0].consensus
    leaders = [engine.leader_of(view) for view in range(1, 9)]
    assert leaders == [1, 2, 3, 0, 1, 2, 3, 0]


def test_leader_set_excludes_byzantine():
    exp = make_cluster(n=7, mempool="stratus", fault="silent", fault_count=2)
    engine = exp.replicas[0].consensus
    byzantine = byzantine_nodes(exp.config)
    leaders = {engine.leader_of(view) for view in range(100)}
    assert leaders.isdisjoint(byzantine)


def test_locked_view_advances():
    exp = make_cluster(n=4, mempool="stratus", rate_tps=200, duration=2.0)
    exp.sim.run_until(2.0)
    assert exp.replicas[0].consensus.locked_view > 0


def test_native_abandoned_payload_requeued():
    """Transactions in a fork lost to a view-change are re-proposed."""
    exp = make_cluster(
        n=4, mempool="native", rate_tps=0,
        protocol_overrides={"view_timeout": 0.5},
    )
    inject(exp, 0, count=8)
    # Silence the leader of the view that will propose these txs right
    # after it proposes once: simplest is to silence replica 1 for a
    # window, then restore it.
    victim = exp.replicas[1]
    honest = victim.behavior
    victim.behavior = SilentReplica()
    exp.sim.run_until(2.0)
    victim.behavior = honest
    exp.sim.run_until(10.0)
    assert exp.metrics.committed_tx_total == 8
