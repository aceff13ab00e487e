"""Unit tests for Byzantine behaviour strategies."""

from repro.replica.behavior import (
    CensoringSender,
    HonestBehavior,
    LyingProxy,
    SilentReplica,
)
from repro.sharding import ShardMap

from tests.helpers import make_cluster


def test_honest_defaults():
    behavior = HonestBehavior()
    assert not behavior.silent
    assert behavior.acks_microblocks
    assert behavior.serves_fetches
    assert behavior.handles_forwards
    assert behavior.share_targets(None, [1, 2, 3]) == [1, 2, 3]
    assert behavior.load_status(0.5) == 0.5


def test_silent_contributes_nothing():
    behavior = SilentReplica()
    assert behavior.silent
    assert not behavior.acks_microblocks
    assert behavior.share_targets(None, [1, 2]) == []
    assert behavior.load_status(0.5) is None


def test_censoring_sender_without_proof_targets_leader_only():
    exp = make_cluster(n=7, mempool="simple", fault="censor", fault_count=2)
    host = exp.replicas[6]
    behavior = host.behavior
    assert isinstance(behavior, CensoringSender)
    targets = behavior.share_targets(
        host, [node for node in range(7) if node != 6])
    leader = host.consensus.current_leader()
    assert targets == [leader]


def test_censoring_sender_with_proof_reaches_quorum():
    exp = make_cluster(n=7, mempool="stratus", fault="censor", fault_count=2)
    host = exp.replicas[6]
    targets = host.behavior.share_targets(
        host, [node for node in range(7) if node != 6])
    leader = host.consensus.current_leader()
    assert leader in targets
    # Leader plus at least quorum-1 witnesses (its own ack completes q).
    quorum = ShardMap.of(exp.config.protocol).quorum(0)
    assert len(targets) >= quorum - 1
    assert 6 not in targets


def test_lying_proxy_advertises_zero():
    behavior = LyingProxy()
    assert behavior.load_status(5.0) == 0.0
    assert behavior.load_status(None) == 0.0
    assert not behavior.handles_forwards
    assert not behavior.serves_fetches


def test_proof_withholder_wastes_bandwidth_but_cannot_block_others():
    """Section VIII: withheld proofs keep the attacker's own microblocks
    out of proposals while honest traffic is unaffected."""
    from repro.mempool.base import MessageKinds
    from repro.replica.behavior import ProofWithholder

    exp = make_cluster(n=4, mempool="stratus")
    exp.replicas[3].behavior = ProofWithholder()
    exp.replicas[3].leader_set = (0, 1, 2)
    for replica in exp.replicas:
        replica.leader_set = (0, 1, 2)  # keep the attacker out of leadership
    from tests.helpers import inject
    inject(exp, 3, count=4)   # attacker's clients
    inject(exp, 0, count=4)   # honest clients
    exp.sim.run_until(5.0)
    # The attacker's body was broadcast (bandwidth burned)...
    mb_bytes = exp.network.stats.node_bytes(3, MessageKinds.MICROBLOCK)
    assert mb_bytes > 0
    # ...but only the honest microblock committed.
    assert exp.metrics.committed_tx_total == 4
    # Honest replicas hold the attacker's body yet never saw a proof.
    attacker_mb = exp.replicas[3].mempool.store.ids[0]
    assert attacker_mb in exp.replicas[0].mempool.store
    assert exp.replicas[0].mempool.pab.proof_for(attacker_mb) is None
