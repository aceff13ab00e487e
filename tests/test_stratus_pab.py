"""Integration tests for provably available broadcast inside Stratus.

One engine serves every shard count, so the shared contract is checked
unsharded and at two shards (``tests.helpers.stratus_cluster`` has the
two cluster shapes).
"""

import dataclasses

import pytest

from repro.config import ShardingConfig
from repro.crypto import sign
from repro.mempool.base import MessageKinds
from repro.replica.behavior import Behavior, ProofWithholder, behavior_for
from repro.sim.network import Channel, Envelope
from repro.types import sizes

from tests.helpers import (
    STRATUS_KINDS as KINDS,
    byzantine_nodes,
    byzantine_schedule,
    inject,
    make_cluster,
    stratus_cluster as cluster,
)


def stratus_of(experiment, node):
    return experiment.replicas[node].mempool


def quorum_of(experiment, node=0):
    """The ack quorum of the scope ``node`` pushes under."""
    return stratus_of(experiment, node).pab._quorum


@pytest.mark.parametrize("kind", KINDS)
def test_push_delivers_body_to_every_push_peer(kind):
    exp = cluster(kind)
    inject(exp, 0, count=4)
    exp.sim.run_until(1.0)
    mempool = stratus_of(exp, 0)
    assert len(mempool.store) >= 1
    mb_id = mempool.store.ids[0]
    holders = {
        node for node in range(exp.config.protocol.n)
        if mb_id in stratus_of(exp, node).store
    }
    # The pusher and its peers hold the body — and nobody else: under
    # sharding, replicas outside the shard never see a byte of it.
    assert holders == {0, *mempool.pab.peers}
    if kind == "sharded-stratus":
        assert holders == {0, 2, 4, 6}


@pytest.mark.parametrize("kind", KINDS)
def test_proof_reaches_every_replica(kind):
    exp = cluster(kind)
    inject(exp, 1, count=4)
    exp.sim.run_until(1.0)
    mb_id = stratus_of(exp, 1).store.ids[0]
    for node in range(exp.config.protocol.n):
        proof = stratus_of(exp, node).pab.proof_for(mb_id)
        assert proof is not None
        assert len(proof.signers) >= quorum_of(exp, 1)


@pytest.mark.parametrize("kind", KINDS)
def test_sender_records_stable_time(kind):
    exp = cluster(kind)
    inject(exp, 2, count=4)
    exp.sim.run_until(1.0)
    assert stratus_of(exp, 2).estimator.sample_count >= 1
    assert exp.metrics.stable_times.mean > 0


def test_quorum_parameter_respected():
    exp = make_cluster(
        n=7, mempool="stratus", protocol_overrides={"pab_quorum": 5},
    )
    inject(exp, 0, count=4)
    exp.sim.run_until(1.0)
    mb_id = stratus_of(exp, 0).store.ids[0]
    proof = stratus_of(exp, 0).pab.proof_for(mb_id)
    assert proof is not None
    assert len(proof.signers) >= 5


def test_shard_quorum_is_members_f_plus_one():
    exp = cluster("sharded-stratus")
    for node in range(8):
        assert quorum_of(exp, node) == 2  # 4 members: f_s = 1
        assert len(stratus_of(exp, node).pab.peers) == 3


@pytest.mark.parametrize("kind", KINDS)
def test_restart_repushes_pending_microblocks(kind):
    """Acks that reach a crashed pusher die with its ingress queue; the
    restart hook retransmits so the proof still forms."""
    exp = cluster(kind)
    inject(exp, 0, count=4)  # a full batch: cut and pushed at once
    pusher = exp.replicas[0]
    pusher.crash()
    exp.sim.run_until(0.2)
    mb_id = pusher.mempool.store.ids[0]
    assert stratus_of(exp, 1).pab.proof_for(mb_id) is None
    pusher.restart()
    exp.sim.run_until(1.0)
    for node in range(exp.config.protocol.n):
        assert stratus_of(exp, node).pab.proof_for(mb_id) is not None


def test_censoring_sender_body_recovered_via_fetch():
    """PAB-Provable Availability: even when a Byzantine sender shares the
    body with only a quorum's worth of replicas, every correct replica
    eventually fetches and delivers it."""
    exp = make_cluster(n=7, mempool="stratus", fault="censor", fault_count=2)
    byzantine = sorted(byzantine_nodes(exp.config))
    inject(exp, byzantine[0], count=4)
    exp.sim.run_until(0.2)
    sender_store = stratus_of(exp, byzantine[0]).store
    assert len(sender_store) == 1
    mb_id = sender_store.ids[0]
    exp.sim.run_until(5.0)
    correct = [n for n in range(7) if n not in byzantine_nodes(exp.config)]
    for node in correct:
        assert mb_id in stratus_of(exp, node).store, f"replica {node} missing"
    assert exp.metrics.fetch_count > 0


def test_censored_microblock_still_commits():
    exp = make_cluster(n=7, mempool="stratus", fault="censor", fault_count=2)
    byzantine = sorted(byzantine_nodes(exp.config))
    inject(exp, byzantine[0], count=4)
    exp.sim.run_until(5.0)
    assert exp.metrics.committed_tx_total >= 4


def _sharded_with_oracles(**experiment):
    """n=8 / 2 shards, an executor on every replica (so every body is
    wanted everywhere) and the invariant oracles armed. Traffic is
    injected by hand, so only the oracles' commit-time checks apply
    (``finalize`` would compare against a generator that emitted 0)."""
    from repro.config import ProtocolConfig
    from repro.harness import ExperimentConfig, build_experiment
    from repro.verification import standard_suite

    protocol = ProtocolConfig(
        n=8, mempool="stratus", sharding=ShardingConfig(shards=2),
        batch_bytes=4 * 128, batch_timeout=0.05, empty_view_delay=0.002,
    )
    config = ExperimentConfig(
        protocol=protocol, rate_tps=0.0, duration=5.0, warmup=0.0, seed=1,
        attach_executor=True, **experiment,
    )
    suite = standard_suite()
    return build_experiment(config, suite), suite


def test_sharded_censor_reaches_a_bare_shard_quorum_and_commits():
    """A censoring origin shows its body to one member besides itself
    (the shard quorum is 2); the certificate still forms, the microblock
    commits, and the members it skipped — the censor serves no fetches —
    recover the body from the certificate's other signer."""
    exp, suite = _sharded_with_oracles(
        faults=byzantine_schedule(8, 1, "censor"),
    )
    censor = exp.replicas[7]
    assert byzantine_nodes(exp.config) == {7}
    inject(exp, 7, count=4)
    exp.sim.run_until(0.05)
    mb_id = censor.mempool.store.ids[0]
    early_holders = {
        node for node in range(8) if mb_id in stratus_of(exp, node).store
    }
    assert 7 in early_holders and early_holders < {1, 3, 5, 7}
    assert len(early_holders) == 2
    exp.sim.run_until(5.0)
    assert exp.metrics.committed_tx_total == 4
    assert exp.metrics.fetch_count > 0
    for node in range(7):  # every honest replica executes: all fetched
        assert mb_id in stratus_of(exp, node).store, f"replica {node}"
    assert suite.violations == []


def test_sharded_silent_origin_never_certifies():
    exp, suite = _sharded_with_oracles(
        faults=byzantine_schedule(8, 1, "silent"),
    )
    inject(exp, 7, count=4)   # the silent replica's clients
    inject(exp, 0, count=4)   # honest clients
    exp.sim.run_until(5.0)
    silent_mb = exp.replicas[7].mempool.store.ids[0]
    for node in range(7):
        assert silent_mb not in stratus_of(exp, node).store
        assert stratus_of(exp, node).pab.proof_for(silent_mb) is None
    assert exp.metrics.committed_tx_total == 4  # only the honest batch
    assert suite.violations == []


@pytest.mark.parametrize("kind", KINDS)
def test_microblocks_propose_and_commit_end_to_end(kind):
    exp = cluster(kind)
    n = exp.config.protocol.n
    for node in range(n):
        inject(exp, node, count=4)
    exp.sim.run_until(3.0)
    assert exp.metrics.committed_tx_total == 4 * n
    assert exp.metrics.view_change_count == 0


@pytest.mark.parametrize("kind", KINDS)
def test_no_duplicate_commits_across_views(kind):
    exp = cluster(kind)
    for _ in range(3):
        inject(exp, 0, count=4)
    exp.sim.run_until(3.0)
    # Each injected batch fills exactly one microblock; commits must not
    # double-count any of them.
    assert exp.metrics.committed_tx_total == 12


# -- a proof ends the push phase ---------------------------------------------


def pab_of(experiment, node):
    return stratus_of(experiment, node).pab


def acks_sent(experiment, node):
    """Ack messages ``node`` has sent so far (they are fixed-size)."""
    kind = MessageKinds.ACK
    return experiment.network.stats.node_bytes(node, kind) / sizes.ACK


def body_bytes_sent(experiment, node):
    kind = MessageKinds.MICROBLOCK
    return experiment.network.stats.node_bytes(node, kind)


def deliver(experiment, src, dst, kind, payload):
    """Hand one PAB message to ``dst``, as if ``src`` sent it."""
    experiment.replicas[dst].handle(Envelope(
        src=src, dst=dst, kind=kind, size_bytes=0.0, payload=payload,
        channel=Channel.DATA,
    ))


class StoresOnly(Behavior):
    """A witness that stores bodies but never acks."""

    acks_microblocks = False


def mute_acks(experiment, nodes):
    """Keep every push to ``nodes`` pending: nobody there acks."""
    for node in nodes:
        experiment.replicas[node].behavior = StoresOnly()


def proof_from(experiment, pusher, microblock):
    """A valid proof of the pusher's scope, minted from a bare quorum."""
    pab = pab_of(experiment, pusher)
    signers = (pusher, *pab.peers)[:pab._quorum]
    return pab._make(microblock, [sign(s, microblock.id) for s in signers])


@pytest.mark.parametrize("kind", KINDS)
def test_witness_holding_the_proof_stores_a_late_body_without_acking(kind):
    exp = cluster(kind)
    inject(exp, 0, count=4)
    exp.sim.run_until(1.0)
    pusher = stratus_of(exp, 0)
    mb_id = pusher.store.ids[0]
    microblock = pusher.store.get(mb_id)
    witness, other = pusher.pab.peers[:2]
    assert pab_of(exp, witness).proof_for(mb_id) is not None
    # The proof overtook the body: the witness has one and not the other.
    stratus_of(exp, witness).store.discard(mb_id)
    before = acks_sent(exp, witness)
    deliver(exp, other, witness, MessageKinds.MICROBLOCK, microblock)
    assert mb_id in stratus_of(exp, witness).store
    assert acks_sent(exp, witness) == before


@pytest.mark.parametrize("kind", KINDS)
def test_duplicate_body_without_a_known_proof_is_still_acked(kind):
    """A proxy re-pushing a body the witness already stored needs its
    own quorum — as long as nobody has shown that one exists."""
    exp = cluster(kind)
    exp.replicas[0].behavior = ProofWithholder()
    inject(exp, 0, count=4)
    exp.sim.run_until(1.0)
    pusher = stratus_of(exp, 0)
    mb_id = pusher.store.ids[0]
    witness, other = pusher.pab.peers[:2]
    assert mb_id in stratus_of(exp, witness).store
    assert pab_of(exp, witness).proof_for(mb_id) is None
    before = acks_sent(exp, witness)
    deliver(
        exp, other, witness, MessageKinds.MICROBLOCK, pusher.store.get(mb_id)
    )
    assert acks_sent(exp, witness) == before + 1


@pytest.mark.parametrize("kind", KINDS)
def test_verified_foreign_proof_retires_a_pending_push(kind):
    """Witnesses that hold the proof stop acking, so a push still below
    quorum when the proof arrives would retransmit forever: it ends, and
    the proof in hand is what it reports."""
    exp = cluster(kind)
    pab = pab_of(exp, 0)
    mute_acks(exp, pab.peers)
    inject(exp, 0, count=4)
    exp.sim.run_until(0.2)
    mempool = stratus_of(exp, 0)
    mb_id = mempool.store.ids[0]
    state = pab._pushes[mb_id]
    assert not state.done and state.timer is not None
    proof = proof_from(exp, 0, mempool.store.get(mb_id))
    deliver(exp, pab.peers[0], 0, MessageKinds.PROOF, (mb_id, proof))
    assert mb_id not in pab._pushes
    assert state.done and state.timer is None
    # Reported as available: proof broadcast, id proposable.
    assert mb_id in mempool._queued or mb_id in mempool._referenced
    sent = body_bytes_sent(exp, 0)
    exp.sim.run_until(5.0)
    assert body_bytes_sent(exp, 0) == sent
    for node in range(exp.config.protocol.n):
        assert pab_of(exp, node).proof_for(mb_id) is not None


@pytest.mark.parametrize("kind", KINDS)
def test_forged_proof_retires_nothing(kind):
    exp = cluster(kind)
    pab = pab_of(exp, 0)
    mute_acks(exp, pab.peers)
    inject(exp, 0, count=4)
    exp.sim.run_until(0.2)
    mempool = stratus_of(exp, 0)
    mb_id = mempool.store.ids[0]
    forged = dataclasses.replace(
        proof_from(exp, 0, mempool.store.get(mb_id)), forged=True
    )
    deliver(exp, pab.peers[0], 0, MessageKinds.PROOF, (mb_id, forged))
    assert mb_id in pab._pushes and not pab._pushes[mb_id].done


@pytest.mark.parametrize("kind", KINDS)
def test_already_proven_body_is_not_pushed(kind):
    """A DLB forward that lost the race with an earlier proxy's proof:
    the late proxy reports the proof it holds instead of pushing a body
    no witness would ack."""
    exp = cluster(kind)
    inject(exp, 0, count=4)
    exp.sim.run_until(1.0)
    pusher = stratus_of(exp, 0)
    mb_id = pusher.store.ids[0]
    late = pab_of(exp, pusher.pab.peers[0])
    sent = body_bytes_sent(exp, pusher.pab.peers[0])
    reported = []
    late.push(pusher.store.get(mb_id), lambda *args: reported.append(args))
    assert reported == [(mb_id, late.proof_for(mb_id))]
    assert mb_id not in late._pushes
    assert body_bytes_sent(exp, pusher.pab.peers[0]) == sent


def test_origin_that_took_its_push_back_settles_on_the_proxys_proof():
    """DLB: the forward timed out, the origin (no longer busy) pushed the
    microblock itself, and then the proxy's proof arrives after all. The
    origin's push ends there, the proof is broadcast as if the forward
    had settled in time, and nothing is left to retransmit."""
    exp = make_cluster(
        n=4, mempool="stratus",
        protocol_overrides={"load_balancing": True, "lb_samples": 2},
    )
    mempool = stratus_of(exp, 0)
    pab = mempool.pab
    mute_acks(exp, pab.peers)
    inject(exp, 0, count=4)  # not busy: pushed by the origin itself
    exp.sim.run_until(0.2)
    mb_id = mempool.store.ids[0]
    assert mb_id in pab._pushes and not mempool.balancer.forwards
    proof = proof_from(exp, 1, mempool.store.get(mb_id))
    deliver(exp, 1, 0, MessageKinds.PROOF, (mb_id, proof))
    assert mb_id not in pab._pushes
    sent = body_bytes_sent(exp, 0)
    exp.sim.run_until(3.0)
    assert body_bytes_sent(exp, 0) == sent
    for node in range(4):
        assert pab_of(exp, node).proof_for(mb_id) is not None
    assert exp.metrics.committed_tx_total == 4


# -- an early proof's fetch grace --------------------------------------------


def fetch_requests(experiment, node, mb_id):
    """Targets of every fetch request ``node`` sends for ``mb_id`` from
    now on (a list the spy keeps appending to)."""
    asked = []
    send = experiment.network.send

    def spy(src, dst, kind, size_bytes, payload, *rest):
        if src == node and kind == MessageKinds.FETCH_REQUEST \
                and payload == mb_id:
            asked.append(dst)
        send(src, dst, kind, size_bytes, payload, *rest)

    experiment.network.send = spy
    return asked


@pytest.mark.parametrize("kind", KINDS)
def test_a_body_discarded_inside_the_grace_is_not_fetched(kind):
    exp = cluster(kind)
    inject(exp, 0, count=4)
    exp.sim.run_until(1.0)
    pusher = stratus_of(exp, 0)
    mb_id = pusher.store.ids[0]
    witness = pusher.pab.peers[0]
    mempool = stratus_of(exp, witness)
    microblock, proof = pusher.store.get(mb_id), mempool.pab.proof_for(mb_id)
    mempool._discard([mb_id])  # the witness starts over, holding nothing
    asked = fetch_requests(exp, witness, mb_id)
    deliver(exp, 0, witness, MessageKinds.PROOF, (mb_id, proof))
    fetcher = mempool.pab._fetcher
    assert mb_id in fetcher._pending  # the proof overtook the body
    deliver(exp, 0, witness, MessageKinds.MICROBLOCK, microblock)
    mempool._discard([mb_id])  # retired before the grace runs out
    assert mb_id not in fetcher._pending
    exp.sim.run_until(exp.sim.now + exp.config.protocol.fetch_timeout)
    assert asked == []


@pytest.mark.parametrize("discard", ("pab", "gc"))
@pytest.mark.parametrize("kind", KINDS)
def test_an_id_discarded_inside_the_grace_is_never_fetched(kind, discard):
    """The body never lands: a discard inside the grace (the engine's own,
    or the GC that calls it) leaves the grace entry dead, so its deadline
    sends nothing and mints nothing."""
    exp = cluster(kind)
    inject(exp, 0, count=4)
    exp.sim.run_until(1.0)
    pusher = stratus_of(exp, 0)
    mb_id = pusher.store.ids[0]
    witness = pusher.pab.peers[0]
    mempool = stratus_of(exp, witness)
    proof = mempool.pab.proof_for(mb_id)
    mempool._discard([mb_id])  # the witness starts over, holding nothing
    asked = fetch_requests(exp, witness, mb_id)
    deliver(exp, 0, witness, MessageKinds.PROOF, (mb_id, proof))
    assert mb_id in mempool.fetcher._pending
    if discard == "pab":
        mempool.pab.discard(mb_id)
    else:
        mempool._discard([mb_id])
    exp.sim.run_until(exp.sim.now + 2 * exp.config.protocol.fetch_timeout)
    assert asked == []
    assert mempool.fetcher._pending == {}
    assert mb_id not in mempool.store


def test_a_foreign_shards_certificate_is_not_fetched_eagerly():
    """Only members of a certificate's shard recover its body unasked; a
    non-member votes on the certificate alone and fetches nothing."""
    exp = cluster("sharded-stratus")
    inject(exp, 0, count=4)
    exp.sim.run_until(1.0)
    pusher = stratus_of(exp, 0)
    mb_id = pusher.store.ids[0]
    outsider = next(
        node for node in range(exp.config.protocol.n)
        if node != 0 and node not in pusher.pab.peers
    )
    mempool = stratus_of(exp, outsider)
    cert = mempool.pab.proof_for(mb_id)
    assert cert is not None and mb_id not in mempool.store
    asked = fetch_requests(exp, outsider, mb_id)
    deliver(exp, 0, outsider, MessageKinds.PROOF, (mb_id, cert))
    assert mb_id not in mempool.fetcher._pending
    exp.sim.run_until(exp.sim.now + 2 * exp.config.protocol.fetch_timeout)
    assert asked == [] and mb_id not in mempool.store
    # A member in the same position does fetch.
    member = pusher.pab.peers[0]
    stratus_of(exp, member)._discard([mb_id])
    deliver(exp, 0, member, MessageKinds.PROOF, (mb_id, cert))
    assert mb_id in stratus_of(exp, member).fetcher._pending


@pytest.mark.parametrize("kind", KINDS)
def test_a_proof_for_a_held_body_registers_nothing(kind):
    exp = cluster(kind)
    inject(exp, 0, count=4)
    exp.sim.run_until(1.0)
    pusher = stratus_of(exp, 0)
    mb_id = pusher.store.ids[0]
    witness = pusher.pab.peers[0]
    pab = pab_of(exp, witness)
    assert mb_id in stratus_of(exp, witness).store
    deadlines = len(pab._fetcher._rounds._heap)
    deliver(exp, 0, witness, MessageKinds.PROOF, (mb_id, pab.proof_for(mb_id)))
    assert mb_id not in pab._fetcher._pending
    assert len(pab._fetcher._rounds._heap) == deadlines


@pytest.mark.parametrize("fault", ("withhold", "censor"))
def test_without_a_proof_in_circulation_every_body_is_acked(fault):
    """The two Byzantine senders whose proofs do not circulate while
    their bodies travel (withheld; or minted from a bare quorum, once
    every recipient has acked) get exactly the acks they always got."""
    exp = make_cluster(n=7, mempool="stratus")
    exp.replicas[6].behavior = behavior_for(fault, exp.config.protocol)
    inject(exp, 6, count=4)
    exp.sim.run_until(0.3)
    pab = pab_of(exp, 6)
    sent = exp.network.stats.messages_sent
    assert sent[MessageKinds.MICROBLOCK] >= pab._quorum - 1
    assert sent[MessageKinds.ACK] == sent[MessageKinds.MICROBLOCK]
