"""The SMP abstraction's liveness properties (Section III-B), as tests.

* **SMP-Inclusion** — a transaction received by a correct replica is
  eventually included in a (committed) proposal.
* **SMP-Stability** — a transaction included in a proposal by a correct
  leader is eventually available at every correct replica.

Checked end-to-end for every shared-mempool implementation, both in the
honest case and with censoring Byzantine senders for the protocols that
claim robustness (Stratus, Narwhal).
"""

import pytest

from repro.mempool import id_mempool

from tests.helpers import byzantine_nodes, inject, make_cluster

SMP_KINDS = ("simple", "gossip", "narwhal", "stratus")


@pytest.fixture(autouse=True)
def no_garbage_collection(monkeypatch):
    """Stores are inspected after the run: nothing may be discarded."""
    monkeypatch.setattr(id_mempool, "GC_RETENTION", 0.0)


@pytest.mark.parametrize("kind", SMP_KINDS)
def test_smp_inclusion_honest(kind):
    """Every injected transaction commits (no faults)."""
    exp = make_cluster(n=4, mempool=kind)
    for node in range(4):
        inject(exp, node, count=4)
    exp.sim.run_until(6.0)
    assert exp.metrics.committed_tx_total == 16


@pytest.mark.parametrize("kind", SMP_KINDS)
def test_smp_stability_honest(kind):
    """Every microblock referenced by a committed block reaches every
    correct replica's store."""
    exp = make_cluster(n=4, mempool=kind)
    for node in range(4):
        inject(exp, node, count=4)
    exp.sim.run_until(6.0)
    committed_ids = set()
    for replica in exp.replicas:
        committed_ids |= replica.mempool._committed
    assert committed_ids
    for replica in exp.replicas:
        for mb_id in committed_ids:
            assert mb_id in replica.mempool.store, (
                f"replica {replica.node_id} missing microblock {mb_id}"
            )


@pytest.mark.parametrize("kind", ("stratus", "narwhal"))
def test_smp_inclusion_under_censoring(kind):
    """Robust mempools include even a censoring sender's transactions
    (it must reach an availability quorum to be proposed at all)."""
    exp = make_cluster(
        n=7, mempool=kind, fault="censor", fault_count=2,
    )
    byzantine = sorted(byzantine_nodes(exp.config))
    inject(exp, byzantine[0], count=4)
    inject(exp, 0, count=4)
    exp.sim.run_until(8.0)
    assert exp.metrics.committed_tx_total == 8


@pytest.mark.parametrize("kind", ("stratus", "narwhal"))
def test_smp_stability_under_censoring(kind):
    exp = make_cluster(
        n=7, mempool=kind, fault="censor", fault_count=2,
    )
    byzantine = sorted(byzantine_nodes(exp.config))
    inject(exp, byzantine[0], count=4)
    exp.sim.run_until(10.0)
    committed_ids = set()
    for replica in exp.replicas:
        committed_ids |= replica.mempool._committed
    correct = [r for r in exp.replicas
               if r.node_id not in byzantine_nodes(exp.config)]
    assert committed_ids
    for replica in correct:
        for mb_id in committed_ids:
            assert mb_id in replica.mempool.store


def test_safety_no_conflicting_commits_under_view_changes():
    """Consensus safety: replicas never commit different blocks at the
    same height even through a view-change-heavy run."""
    from repro.replica.behavior import SilentReplica

    exp = make_cluster(
        n=4, mempool="stratus", rate_tps=400, duration=8.0,
        protocol_overrides={"view_timeout": 0.3},
    )
    # Rotate a fault through two replicas to force view churn.
    victim = exp.replicas[1]
    honest = victim.behavior
    victim.behavior = SilentReplica()
    exp.sim.run_until(3.0)
    victim.behavior = honest
    second = exp.replicas[2]
    second_honest = second.behavior
    second.behavior = SilentReplica()
    exp.sim.run_until(6.0)
    second.behavior = second_honest
    exp.sim.run_until(10.0)
    assert exp.metrics.view_change_count > 0
    canonical: dict[int, int] = {}
    for replica in exp.replicas:
        engine = replica.consensus
        for block_id in engine.committed:
            height = engine.proposals[block_id].height
            assert canonical.setdefault(height, block_id) == block_id
