"""Integration tests for distributed load balancing (Algorithm 4)."""

from tests.helpers import byzantine_nodes, inject, make_cluster


def stratus_of(experiment, node):
    return experiment.replicas[node].mempool


def force_busy(mempool):
    """Prime the estimator so the replica considers itself overloaded."""
    for _ in range(5):
        mempool.estimator.record(0.01)  # establish a low baseline
    for _ in range(mempool.estimator._window.maxlen):
        mempool.estimator.record(5.0)
    assert mempool.estimator.is_busy()


def test_unbusy_replica_pushes_itself():
    exp = make_cluster(
        n=4, mempool="stratus", protocol_overrides={"load_balancing": True},
    )
    inject(exp, 0, count=4)
    exp.sim.run_until(1.0)
    assert exp.metrics.forwarded_microblocks == 0
    assert exp.metrics.committed_tx_total == 4


def test_busy_replica_forwards_to_proxy():
    exp = make_cluster(
        n=4, mempool="stratus",
        protocol_overrides={"load_balancing": True, "lb_samples": 2,
                            "lb_probe_interval": 100},
    )
    force_busy(stratus_of(exp, 0))
    inject(exp, 0, count=4)
    exp.sim.run_until(2.0)
    assert exp.metrics.forwarded_microblocks >= 1
    # The forwarded microblock is still disseminated and committed.
    assert exp.metrics.committed_tx_total == 4


def test_forwarded_microblock_settles_and_unbans_proxy():
    exp = make_cluster(
        n=4, mempool="stratus",
        protocol_overrides={"load_balancing": True, "lb_samples": 2,
                            "lb_probe_interval": 100},
    )
    mempool = stratus_of(exp, 0)
    force_busy(mempool)
    inject(exp, 0, count=4)
    exp.sim.run_until(2.0)
    assert mempool.balancer.ban_list == set()


def test_lying_proxy_gets_banned_and_microblock_retried():
    exp = make_cluster(
        n=4, mempool="stratus", fault="lying", fault_count=1,
        protocol_overrides={
            "load_balancing": True,
            "lb_samples": 3,  # the lying proxy (status 0) always wins
            "lb_probe_interval": 100,
            "lb_forward_timeout": 0.3,
        },
    )
    byzantine = sorted(byzantine_nodes(exp.config))[0]
    # Give honest candidates a real (non-zero) status so the lying
    # proxy's advertised 0.0 wins the power-of-d choice.
    for node in range(4):
        if node != byzantine and node != 0:
            for _ in range(6):
                stratus_of(exp, node).estimator.record(0.1)
    mempool = stratus_of(exp, 0)
    force_busy(mempool)
    inject(exp, 0, count=4)
    exp.sim.run_until(5.0)
    # The proxy never produced a proof, so it stays banned...
    assert byzantine in mempool.balancer.ban_list
    # ...and the microblock was retried elsewhere and still committed.
    assert exp.metrics.committed_tx_total == 4


def test_probe_interval_keeps_estimator_alive():
    exp = make_cluster(
        n=4, mempool="stratus",
        protocol_overrides={"load_balancing": True, "lb_samples": 2,
                            "lb_probe_interval": 2},
    )
    mempool = stratus_of(exp, 0)
    force_busy(mempool)
    before = mempool.estimator.sample_count
    for _ in range(4):
        inject(exp, 0, count=4)
    exp.sim.run_until(2.0)
    # Every second microblock is self-pushed, refreshing the ST window.
    assert mempool.estimator.sample_count > before
    assert exp.metrics.forwarded_microblocks >= 1


def test_query_timeout_falls_back_to_self_push():
    # All other replicas are lying proxies is impossible (f bound), so
    # instead make the query timeout so small that replies cannot arrive.
    exp = make_cluster(
        n=4, mempool="stratus",
        protocol_overrides={"load_balancing": True,
                            "lb_probe_interval": 100,
                            "lb_query_timeout": 1e-6},
    )
    mempool = stratus_of(exp, 0)
    force_busy(mempool)
    inject(exp, 0, count=4)
    exp.sim.run_until(2.0)
    # No replies in time -> pushed itself; still committed.
    assert exp.metrics.committed_tx_total == 4


def test_busy_replicas_do_not_answer_queries():
    exp = make_cluster(
        n=4, mempool="stratus",
        protocol_overrides={"load_balancing": True, "lb_samples": 3,
                            "lb_probe_interval": 100},
    )
    # Make replicas 1..3 all busy; replica 0 forwards, gets no replies,
    # falls back to pushing itself.
    for node in (1, 2, 3):
        force_busy(stratus_of(exp, node))
    mempool = stratus_of(exp, 0)
    force_busy(mempool)
    inject(exp, 0, count=4)
    exp.sim.run_until(3.0)
    assert exp.metrics.committed_tx_total == 4
    assert exp.metrics.forwarded_microblocks == 0
