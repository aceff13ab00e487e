"""Tests for two-chain HotStuff (Bamboo's second chained variant)."""

from repro.crypto import GENESIS_QC, make_quorum_cert, vote_signature
from repro.types.proposal import Payload, Proposal, make_block_id

from tests.helpers import inject, make_cluster


def make_twochain(n=4, **kwargs):
    return make_cluster(n=n, consensus="twochain", **kwargs)


def test_commits_end_to_end():
    exp = make_twochain(mempool="stratus")
    for node in range(4):
        inject(exp, node, count=4)
    exp.sim.run_until(3.0)
    assert exp.metrics.committed_tx_total == 16
    assert exp.metrics.view_change_count == 0


def test_two_chain_commits_one_round_earlier_than_three_chain():
    def commit_latency(consensus):
        exp = make_cluster(n=4, mempool="stratus", consensus=consensus)
        inject(exp, 0, count=4)
        exp.sim.run_until(2.0)
        assert exp.metrics.committed_tx_total == 4
        return exp.metrics.latency_stats().mean

    assert commit_latency("twochain") < commit_latency("hotstuff")


def test_replicas_agree_on_committed_chain():
    exp = make_twochain(mempool="stratus", rate_tps=500, duration=3.0)
    exp.sim.run_until(3.0)
    canonical = {}
    for replica in exp.replicas:
        engine = replica.consensus
        for block_id in engine.committed:
            height = engine.proposals[block_id].height
            assert canonical.setdefault(height, block_id) == block_id


def test_two_chain_commit_rule_whitebox():
    exp = make_twochain(mempool="stratus")
    for replica in exp.replicas:
        replica.consensus._try_propose = lambda *a, **k: None
        replica.consensus.suspend()
    engine = exp.replicas[3].consensus

    def qc(block_id, view, n=4):
        quorum = 2 * ((n - 1) // 3) + 1
        votes = [vote_signature(s, block_id, view) for s in range(quorum)]
        return make_quorum_cert(block_id, view, votes, quorum, n)

    b1 = Proposal(block_id=make_block_id(0, 1), view=1, height=1,
                  proposer=0, parent_id=0, justify=GENESIS_QC,
                  payload=Payload())
    b2 = Proposal(block_id=make_block_id(1, 1), view=2, height=2,
                  proposer=1, parent_id=b1.block_id, justify=qc(b1.block_id, 1),
                  payload=Payload())
    b3 = Proposal(block_id=make_block_id(2, 1), view=3, height=3,
                  proposer=2, parent_id=b2.block_id, justify=qc(b2.block_id, 2),
                  payload=Payload())
    engine._handle_proposal(b1)
    engine._handle_proposal(b2)
    assert b1.block_id not in engine.committed  # QC over b1: one-chain only
    engine._handle_proposal(b3)  # QC over b2 completes the two-chain
    assert b1.block_id in engine.committed
    assert b2.block_id not in engine.committed


def test_survives_silent_replicas():
    exp = make_twochain(n=7, mempool="stratus", rate_tps=300, duration=3.0,
                        fault="silent", fault_count=2)
    exp.sim.run_until(3.0)
    assert exp.metrics.committed_tx_total > 0
