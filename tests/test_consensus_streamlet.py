"""Integration tests for Streamlet."""

from repro.replica.behavior import SilentReplica

from tests.helpers import inject, make_cluster


def make_streamlet(n=4, **kwargs):
    overrides = kwargs.pop("protocol_overrides", {})
    overrides.setdefault("streamlet_epoch", 0.1)
    return make_cluster(
        n=n, consensus="streamlet", protocol_overrides=overrides, **kwargs
    )


def test_commits_with_stratus_mempool():
    exp = make_streamlet(mempool="stratus", rate_tps=500, duration=4.0)
    exp.sim.run_until(4.0)
    assert exp.metrics.committed_tx_total > 0


def test_commits_with_native_mempool():
    exp = make_streamlet(mempool="native", rate_tps=500, duration=4.0)
    exp.sim.run_until(4.0)
    assert exp.metrics.committed_tx_total > 0


def test_epochs_advance_on_the_clock():
    exp = make_streamlet(mempool="stratus")
    exp.sim.run_until(1.05)
    for replica in exp.replicas:
        assert replica.consensus.epoch == 11  # 1 start + 10 ticks of 0.1s
        assert replica.consensus.current_leader() == 11 % 4


def test_finalized_chains_agree():
    exp = make_streamlet(mempool="stratus", rate_tps=500, duration=4.0)
    exp.sim.run_until(4.0)
    canonical: dict[int, int] = {}
    for replica in exp.replicas:
        engine = replica.consensus
        for block_id in engine.committed:
            height = engine.proposals[block_id].height
            assert canonical.setdefault(height, block_id) == block_id


def test_notarization_requires_quorum():
    exp = make_streamlet(n=7, mempool="stratus", rate_tps=200, duration=3.0)
    exp.sim.run_until(3.0)
    engine = exp.replicas[0].consensus
    assert len(engine.notarized) > 1  # beyond genesis


def test_silent_epoch_leader_skips_but_chain_recovers():
    exp = make_streamlet(mempool="stratus", rate_tps=500, duration=6.0)
    exp.replicas[1].behavior = SilentReplica()  # leads some epochs
    exp.sim.run_until(6.0)
    assert exp.metrics.committed_tx_total > 0


def test_latency_reflects_multi_epoch_finalization():
    exp = make_streamlet(mempool="stratus", rate_tps=0)
    inject(exp, 0, count=4)
    exp.sim.run_until(3.0)
    assert exp.metrics.committed_tx_total == 4
    # Finalization needs >= 3 epochs of 0.1 s.
    assert exp.metrics.latency_stats().mean > 0.2


def test_executor_states_converge():
    exp = make_streamlet(
        mempool="stratus", rate_tps=500, duration=3.0, attach_executor=True,
    )
    exp.sim.run_until(4.0)
    digests = {replica.executor.state_digest() for replica in exp.replicas}
    assert len(digests) == 1
