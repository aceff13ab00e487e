"""Tests for the Narwhal-style reliable-broadcast mempool."""

from repro.mempool.base import MessageKinds

from tests.helpers import byzantine_nodes, inject, make_cluster


def mempool_of(experiment, node):
    return experiment.replicas[node].mempool


def test_certification_requires_ready_quorum():
    exp = make_cluster(n=4, mempool="narwhal")
    inject(exp, 0, count=4)
    exp.sim.run_until(2.0)
    mempool = mempool_of(exp, 0)
    mb_id = mempool.store.ids[0]
    state = mempool._states[mb_id]
    assert state.certified
    # 2f+1 readies with f=1 means at least 3 distinct signers.
    assert len(state.readies) >= 3


def test_leader_only_share_never_certifies():
    """The simple-SMP censoring attack (share with the leader only) is
    harmless under reliable broadcast: two echoes never make a quorum,
    so the id is never certified and never proposed."""
    from repro.replica.behavior import CensoringSender

    exp = make_cluster(n=4, mempool="narwhal")
    exp.replicas[3].behavior = CensoringSender(min_witnesses=0)
    inject(exp, 3, count=4)
    exp.sim.run_until(3.0)
    assert exp.metrics.committed_tx_total == 0
    for node in range(4):
        for state in mempool_of(exp, node)._states.values():
            assert not state.certified


def test_censor_must_reach_witness_quorum_to_commit():
    """Under Narwhal the harness arms the censor with just enough
    witnesses to certify; its content then commits even though the
    origin refuses fetches (witnesses serve them instead)."""
    exp = make_cluster(n=4, mempool="narwhal", fault="censor", fault_count=1)
    byzantine = sorted(byzantine_nodes(exp.config))
    inject(exp, byzantine[0], count=4)
    exp.sim.run_until(3.0)
    assert exp.metrics.committed_tx_total == 4


def test_bracha_amplification_readies_without_echo_quorum():
    """f+1 readies alone trigger a ready (amplification step)."""
    exp = make_cluster(n=4, mempool="narwhal")
    mempool = mempool_of(exp, 3)
    mb_id = (99, 99)
    state = mempool._state(mb_id)
    # Simulate f+1 = 2 remote readies with no echoes at all.
    state.readies.update({0, 1})
    mempool._check_quorums(mb_id)
    assert state.ready_sent
    assert 3 in state.readies


def test_commit_without_body_then_fetch():
    """A replica can vote on certified ids it lacks bodies for, then
    fetches them from ready signers to execute."""
    exp = make_cluster(n=4, mempool="narwhal")
    inject(exp, 0, count=4)
    exp.sim.run_until(3.0)
    assert exp.metrics.committed_tx_total == 4
    mb_id = mempool_of(exp, 0).store.ids[0]
    for node in range(4):
        assert mb_id in mempool_of(exp, node).store


def test_control_channel_carries_rb_votes():
    exp = make_cluster(n=4, mempool="narwhal")
    inject(exp, 0, count=4)
    exp.sim.run_until(2.0)
    stats = exp.network.stats.messages_sent
    assert stats.get(MessageKinds.RB_ECHO, 0) > 0
    assert stats.get(MessageKinds.RB_READY, 0) > 0
    # Bodies travel once per peer; echo/ready volume dominates counts.
    assert stats[MessageKinds.RB_ECHO] > stats.get(
        MessageKinds.MICROBLOCK, 0
    )
