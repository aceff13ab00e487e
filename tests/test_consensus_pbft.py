"""Integration tests for normal-case PBFT."""

from repro.consensus import pbft

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
    in_flight = leader._next_seq - leader._last_committed - 1
    assert in_flight <= 2
    exp.sim.run_until(5.0)
    assert exp.metrics.committed_tx_total == 40


def test_executor_states_converge():
    exp = make_pbft(rate_tps=500, duration=3.0, attach_executor=True)
    exp.sim.run_until(4.0)
    digests = {replica.executor.state_digest() for replica in exp.replicas}
    assert len(digests) == 1
