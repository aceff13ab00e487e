"""Integration tests for normal-case PBFT."""

from repro.consensus import pbft
from repro.mempool.base import MessageKinds
from repro.types.proposal import make_block_id

from tests.helpers import inject, make_cluster


def make_pbft(n=4, **kwargs):
    return make_cluster(n=n, consensus="pbft", mempool="native", **kwargs)


def test_commits_injected_transactions():
    exp = make_pbft(rate_tps=0)
    inject(exp, 0, count=8)
    exp.sim.run_until(2.0)
    assert exp.metrics.committed_tx_total == 8


def test_fixed_leader():
    exp = make_pbft()
    for replica in exp.replicas:
        assert replica.consensus.current_leader() == 0


def test_sustained_load():
    exp = make_pbft(rate_tps=1000, duration=3.0)
    exp.sim.run_until(3.0)
    assert exp.metrics.committed_tx_total > 1000


def test_commits_with_f_silent():
    exp = make_pbft(n=4, rate_tps=500, duration=3.0,
                    fault="silent", fault_count=1)
    exp.sim.run_until(3.0)
    assert exp.metrics.committed_tx_total > 0


def test_pipeline_window_bounds_in_flight(monkeypatch):
    monkeypatch.setattr(pbft, "PBFT_WINDOW", 2)
    exp = make_pbft(rate_tps=0)
    for _ in range(10):
        inject(exp, 0, count=4)
    leader = exp.replicas[0].consensus
    exp.sim.run_until(0.001)
    in_flight = leader._tip.height - leader.committed_height
    assert in_flight <= 2
    exp.sim.run_until(5.0)
    assert exp.metrics.committed_tx_total == 40


def test_executor_states_converge():
    exp = make_pbft(rate_tps=500, duration=3.0, attach_executor=True)
    exp.sim.run_until(4.0)
    digests = {replica.executor.state_digest() for replica in exp.replicas}
    assert len(digests) == 1


def loaded_pbft():
    """Load stops at 4 s and the run goes on to 6 s, so every replica
    has caught up by the end."""
    return make_pbft(
        rate_tps=2000, duration=4.0, attach_executor=True,
        protocol_overrides={"view_timeout": 0.5},
    )


def assert_executed_alike(exp):
    heights = {replica._exec_height for replica in exp.replicas}
    assert len(heights) == 1 and heights.pop() > 0
    assert all(not replica._exec_buffer for replica in exp.replicas)


def test_leader_commits_a_slot_whose_own_quorum_it_missed():
    """The COMMIT votes for slot 0 never reach the leader; a later
    slot's quorum commits slot 0 with it, so execution is not stuck
    behind height 1."""
    exp = loaded_pbft()
    leader = exp.replicas[0].consensus
    routes = leader.routes()
    slot0 = make_block_id(0, 0)

    def lossy(envelope):
        if not (
            envelope.kind == MessageKinds.PBFT_COMMIT
            and envelope.payload[0] == slot0
            and exp.sim.now < 0.3
        ):
            routes[envelope.kind](envelope)

    leader.on_message = lossy
    exp.sim.run_until(6.0)
    assert slot0 in leader.committed
    assert_executed_alike(exp)


def test_follower_back_from_a_crash_commits_what_it_missed():
    """Slots the leader committed while follower 3 was down are never
    retransmitted; the follower fetches them by chain sync."""
    exp = loaded_pbft()
    follower = exp.replicas[3]
    exp.sim.schedule_at(1.0, follower.crash)
    exp.sim.schedule_at(2.0, follower.restart)
    exp.sim.run_until(6.0)
    assert_executed_alike(exp)
