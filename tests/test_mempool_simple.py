"""Integration tests for the simple (best-effort) shared mempool."""

from repro.mempool import id_mempool
from repro.mempool.base import MessageKinds

from tests.helpers import byzantine_nodes, inject, make_cluster


def mempool_of(experiment, node):
    return experiment.replicas[node].mempool


def test_microblock_broadcast_reaches_all():
    exp = make_cluster(n=4, mempool="simple")
    inject(exp, 0, count=4)
    exp.sim.run_until(1.0)
    mb_id = mempool_of(exp, 0).store.ids[0]
    for node in range(4):
        assert mb_id in mempool_of(exp, node).store


def test_end_to_end_commit():
    exp = make_cluster(n=4, mempool="simple")
    for node in range(4):
        inject(exp, node, count=4)
    exp.sim.run_until(3.0)
    assert exp.metrics.committed_tx_total == 16


def test_committed_bodies_are_discarded_after_retention(monkeypatch):
    """The retention window every id-referencing mempool shares: no run
    of CI lasts its 30 s, so it is shortened here."""
    monkeypatch.setattr(id_mempool, "GC_RETENTION", 1.0)
    exp = make_cluster(n=4, mempool="simple")
    inject(exp, 0, count=4)
    exp.sim.run_until(1.0)
    assert exp.metrics.committed_tx_total == 4
    assert all(len(mempool_of(exp, node).store) == 1 for node in range(4))
    exp.sim.run_until(3.0)
    assert all(len(mempool_of(exp, node).store) == 0 for node in range(4))


def test_censoring_sender_forces_fetch_from_leader():
    """A Byzantine sender shares only with the leader; followers must
    fetch the body from the proposer before voting (Problem-I)."""
    exp = make_cluster(n=7, mempool="simple", fault="censor", fault_count=2)
    byzantine = sorted(byzantine_nodes(exp.config))
    inject(exp, byzantine[0], count=4)
    exp.sim.run_until(5.0)
    assert exp.metrics.fetch_count > 0
    assert exp.metrics.committed_tx_total == 4


def test_no_proofs_in_payload():
    exp = make_cluster(n=4, mempool="simple")
    inject(exp, 0, count=4)
    exp.sim.run_until(1.0)
    committed = exp.metrics.commits
    assert committed
    # Check the payload entries carried no proofs (bandwidth accounting):
    # no PROOF traffic at all in this mempool.
    assert MessageKinds.PROOF not in exp.network.stats.messages_sent


def test_ids_not_proposed_twice():
    exp = make_cluster(n=4, mempool="simple")
    for _ in range(3):
        inject(exp, 0, count=4)
    exp.sim.run_until(3.0)
    assert exp.metrics.committed_tx_total == 12


def test_gossip_variant_disseminates_and_commits():
    exp = make_cluster(n=7, mempool="gossip")
    inject(exp, 0, count=4)
    exp.sim.run_until(5.0)
    assert exp.metrics.committed_tx_total == 4


def test_gossip_redundancy_exceeds_direct_broadcast():
    direct = make_cluster(n=7, mempool="simple")
    inject(direct, 0, count=4)
    direct.sim.run_until(2.0)
    gossip = make_cluster(n=7, mempool="gossip")
    inject(gossip, 0, count=4)
    gossip.sim.run_until(2.0)
    direct_bytes = direct.network.stats.kind_bytes(MessageKinds.MICROBLOCK)
    gossip_bytes = gossip.network.stats.kind_bytes(
        MessageKinds.MICROBLOCK_GOSSIP
    )
    assert gossip_bytes > 0
    # Gossip re-forwards on first receipt: more copies than one broadcast.
    assert gossip_bytes >= direct_bytes


def test_narwhal_certifies_before_proposing():
    exp = make_cluster(n=4, mempool="narwhal")
    inject(exp, 0, count=4)
    exp.sim.run_until(3.0)
    mempool = mempool_of(exp, 0)
    mb_id = mempool.store.ids[0]
    state = mempool._states[mb_id]
    assert state.certified
    assert exp.metrics.committed_tx_total == 4


def test_narwhal_quadratic_message_count():
    exp = make_cluster(n=7, mempool="narwhal")
    inject(exp, 0, count=4)
    exp.sim.run_until(2.0)
    stats = exp.network.stats.messages_sent
    echoes = stats.get(MessageKinds.RB_ECHO, 0)
    readies = stats.get(MessageKinds.RB_READY, 0)
    # Every replica echoes and readies to everyone: ~n*(n-1) each.
    assert echoes >= 6 * 6
    assert readies >= 6 * 6
