"""Unit tests for the invariant oracles.

The oracles are exercised two ways: synthetically, by feeding
hand-crafted commit observations through a suite bound to a stub
experiment (no simulator needed), and end-to-end, by arming the standard
suite on a healthy cluster and asserting silence.
"""

from types import SimpleNamespace

from repro.config import ProtocolConfig
from repro.crypto.certificates import GENESIS_QC
from repro.harness.config import ExperimentConfig
from repro.types.microblock import microblock_origin
from repro.types.proposal import Payload, PayloadEntry, Proposal
from repro.verification.oracles import (
    ConservationOracle,
    LedgerOracle,
    OracleSuite,
    SafetyOracle,
    honest_ids,
    standard_suite,
)

import pytest

from tests.helpers import (
    STRATUS_KINDS,
    byzantine_nodes,
    make_cluster,
    stratus_cluster,
)


def stub_suite(oracle, honest=(0, 1, 2, 3), emitted_tx=10_000):
    """Bind ``oracle`` to a suite over a stub experiment."""
    suite = OracleSuite([oracle])
    suite.experiment = SimpleNamespace(
        sim=SimpleNamespace(now=1.0),
        generator=SimpleNamespace(emitted_tx_count=emitted_tx),
        config=ExperimentConfig(
            protocol=ProtocolConfig(n=4, mempool="simple"),
        ),
    )
    suite._honest = frozenset(honest)
    oracle.bind(suite)
    oracle.on_attach()
    return suite


def replica(node_id):
    return SimpleNamespace(node_id=node_id)


def proposal(block_id, height, parent_id=0, proposer=0, mb_ids=(),
             created_at=0.0):
    return Proposal(
        block_id=block_id, view=height, height=height, proposer=proposer,
        parent_id=parent_id, justify=GENESIS_QC,
        payload=Payload(
            entries=tuple(PayloadEntry(mb_id=m) for m in mb_ids)
        ),
        created_at=created_at,
    )


def kinds(suite):
    return [violation.kind for violation in suite.violations]


# -- safety ----------------------------------------------------------------


def test_safety_silent_on_consistent_chain():
    suite = stub_suite(SafetyOracle())
    for node in range(2):
        suite.on_local_commit(replica(node), proposal(10, 1))
        suite.on_local_commit(replica(node), proposal(11, 2, parent_id=10))
    assert suite.violations == []


def test_safety_flags_global_fork():
    suite = stub_suite(SafetyOracle())
    suite.on_local_commit(replica(0), proposal(10, 1))
    suite.on_local_commit(replica(1), proposal(20, 1))
    assert "fork" in kinds(suite)


def test_safety_flags_local_fork_once():
    suite = stub_suite(SafetyOracle())
    suite.on_local_commit(replica(0), proposal(10, 1))
    suite.on_local_commit(replica(0), proposal(20, 1))
    suite.on_local_commit(replica(0), proposal(10, 1))
    assert kinds(suite).count("local-fork") == 1


def test_safety_flags_broken_prefix():
    suite = stub_suite(SafetyOracle())
    suite.on_local_commit(replica(0), proposal(10, 1))
    suite.on_local_commit(replica(0), proposal(11, 2, parent_id=99))
    assert "broken-prefix" in kinds(suite)


def test_safety_flags_a_gap_in_the_committed_heights():
    oracle = SafetyOracle()
    suite = stub_suite(oracle)
    suite.on_local_commit(replica(0), proposal(10, 1))
    suite.on_local_commit(replica(0), proposal(12, 3, parent_id=11))
    suite.on_local_commit(replica(1), proposal(10, 1))
    assert suite.violations == []
    oracle.finalize()
    assert kinds(suite) == ["gap"]
    assert suite.violations[0].node == 0


def test_safety_ignores_byzantine_observations():
    suite = stub_suite(SafetyOracle(), honest=(0, 1, 2))
    suite.on_local_commit(replica(0), proposal(10, 1))
    suite.on_local_commit(replica(3), proposal(20, 1))  # byzantine: ignored
    assert suite.violations == []


# -- ledger ----------------------------------------------------------------


def microblock(mb_id, tx_count=4, origin=0):
    return SimpleNamespace(id=mb_id, tx_count=tx_count, origin=origin)


def test_ledger_flags_fabricated_id():
    suite = stub_suite(LedgerOracle())
    suite.on_local_commit(replica(0), proposal(10, 1, mb_ids=(777,)))
    assert kinds(suite) == ["fabricated"]


def test_ledger_sees_what_a_byzantine_sender_batched():
    """A censoring or lying sender's own microblock is client content
    like any other: committing it is not fabrication, and it counts
    towards conservation."""
    oracle = LedgerOracle()
    suite = stub_suite(oracle, honest=(0, 1, 2), emitted_tx=4)
    suite.on_microblock_created(replica(3), microblock(5, origin=3))
    suite.on_local_commit(replica(0), proposal(10, 1, mb_ids=(5,)))
    oracle.finalize()
    assert suite.violations == []
    assert oracle._committed_tx == 4


def test_ledger_accepts_honest_replay_after_partition():
    """A re-proposal by a leader that never saw the first commit is NOT
    a duplicate (partition races are legitimate)."""
    suite = stub_suite(LedgerOracle())
    suite.on_microblock_created(replica(0), microblock(5))
    suite.on_local_commit(replica(1), proposal(10, 1, mb_ids=(5,)))
    # Proposer 2 never committed mb 5 locally; re-commit is tolerated.
    suite.on_local_commit(
        replica(1),
        proposal(20, 2, proposer=2, mb_ids=(5,), created_at=0.5),
    )
    assert suite.violations == []


def test_ledger_flags_knowing_replay():
    suite = stub_suite(LedgerOracle())
    suite.on_microblock_created(replica(0), microblock(5))
    # Proposer 2 itself commits mb 5 at t=1.0 ...
    suite.on_local_commit(replica(2), proposal(10, 1, mb_ids=(5,)))
    # ... then builds a later proposal (created_at=2.0) repeating it.
    suite.on_local_commit(
        replica(0),
        proposal(20, 2, proposer=2, mb_ids=(5,), created_at=2.0),
    )
    assert "duplicate" in kinds(suite)


def test_ledger_flags_replay_on_top_of_the_first_occurrence():
    """Proposer 2 never committed mb 5 locally (the old rule's only
    evidence), but its block descends from the one that carries it —
    and an engine proposes only on ancestry it holds."""
    suite = stub_suite(LedgerOracle())
    suite.on_microblock_created(replica(0), microblock(5))
    suite.on_local_commit(replica(1), proposal(10, 1, mb_ids=(5,)))
    suite.on_local_commit(replica(1), proposal(11, 2, parent_id=10))
    suite.on_local_commit(
        replica(1),
        proposal(20, 3, parent_id=11, proposer=2, mb_ids=(5,),
                 created_at=0.5),
    )
    assert kinds(suite) == ["duplicate"]
    assert suite.violations[0].details["blocks"] == [10, 20]


def test_ledger_conservation_counts_unique_microblocks():
    """A fork-race double commit counts tx once; only fabrication-style
    over-commit trips conservation."""
    oracle = LedgerOracle()
    suite = stub_suite(oracle, emitted_tx=4)
    suite.on_microblock_created(replica(0), microblock(5, tx_count=4))
    suite.on_local_commit(replica(0), proposal(10, 1, mb_ids=(5,)))
    suite.on_local_commit(
        replica(1), proposal(20, 1, proposer=3, mb_ids=(5,), created_at=0.5)
    )
    oracle.finalize()
    assert suite.violations == []
    assert oracle._committed_tx == 4


# -- conservation ----------------------------------------------------------


def _run_until_pullable(exp, mempool):
    """Step until ``mempool`` queues an id no proposal carries yet. A
    woken leader proposes an id the instant it is proposable, so a
    queued id is often already carried by the time a step ends."""
    while not any(
        mb_id not in mempool._referenced and mb_id not in mempool._committed
        for mb_id in mempool._proposable
    ):
        exp.sim.run_until(exp.sim.now + 0.001)


@pytest.mark.parametrize("kind", STRATUS_KINDS)
def test_conservation_flags_an_id_pulled_for_no_proposal(kind):
    exp = stratus_cluster(kind, rate_tps=400.0)
    suite = OracleSuite([ConservationOracle()]).attach(exp)
    exp.sim.run_until(1.5)
    assert suite.finalize() == []
    mempool = exp.replicas[1].mempool
    # Ids keep arriving, so there is something to pull at some instant.
    _run_until_pullable(exp, mempool)
    dropped = mempool.make_payload().microblock_ids
    assert dropped
    violations = suite.finalize()
    assert {v.kind for v in violations} == {"stranded"}
    assert {v.node for v in violations} == {1}
    assert {v.details["microblock"] for v in violations} == set(dropped)


def test_conservation_is_silent_once_somebody_proposes_the_id():
    exp = stratus_cluster("stratus", rate_tps=400.0)
    suite = OracleSuite([ConservationOracle()]).attach(exp)
    exp.sim.run_until(1.5)
    mempool = exp.replicas[1].mempool
    _run_until_pullable(exp, mempool)
    assert mempool.make_payload().microblock_ids
    # The other replicas still queue those ids: the next leaders propose
    # and commit them, which releases them at replica 1 too.
    exp.sim.run_until(exp.sim.now + 0.5)
    assert suite.finalize() == []


@pytest.mark.parametrize("kind", STRATUS_KINDS)
def test_conservation_flags_a_microblock_pushed_to_nobody(kind):
    """ROADMAP d0-i: cut while its replica is crashed, a microblock's
    push has no targets, and the restart re-push has none either."""
    exp = stratus_cluster(kind, rate_tps=400.0)
    suite = OracleSuite([ConservationOracle()]).attach(exp)
    exp.sim.run_until(1.0)
    victim = exp.replicas[1]
    batcher = victim.mempool.batcher
    while not batcher.pending_tx_count:
        exp.sim.run_until(exp.sim.now + 0.001)
    victim.crash()
    batcher.flush()  # what the flush deadline did before it knew of crashes
    exp.sim.run_until(1.5)
    victim.restart()
    exp.sim.run_until(2.5)
    violations = suite.finalize()
    assert [(v.kind, v.node) for v in violations] == [("unshared", 1)]


def test_conservation_lets_a_crash_hold_the_pending_batch():
    exp = stratus_cluster("stratus", rate_tps=400.0)
    suite = OracleSuite([ConservationOracle()]).attach(exp)
    exp.sim.run_until(1.0)
    victim = exp.replicas[1]
    while not victim.mempool.batcher.pending_tx_count:
        exp.sim.run_until(exp.sim.now + 0.001)
    held = victim.mempool.batcher.pending_tx_count
    victim.crash()
    exp.sim.run_until(1.5)
    assert victim.mempool.batcher.pending_tx_count == held
    victim.restart()
    exp.sim.run_until(2.5)
    assert suite.finalize() == []


def test_conservation_has_nothing_to_say_about_other_mempools():
    exp = make_cluster(n=4, mempool="simple", rate_tps=400.0)
    suite = OracleSuite([ConservationOracle()]).attach(exp)
    exp.sim.run_until(1.0)
    exp.replicas[1].mempool.make_payload()
    assert suite.finalize() == []


def test_honest_ids_excludes_configured_byzantine():
    exp = make_cluster(n=4, mempool="simple", fault="silent", fault_count=1)
    honest = honest_ids(exp.config)
    assert len(honest) == 3
    assert honest == frozenset(range(4)) - byzantine_nodes(exp.config)


# -- end to end ------------------------------------------------------------


@pytest.mark.parametrize("kind", STRATUS_KINDS)
@pytest.mark.parametrize("fault", ("censor", "lying"))
def test_standard_suite_silent_under_byzantine_senders(fault, kind):
    """The senders' own microblocks are batched, proven and committed
    for real; none of them may read as ``fabricated``."""
    exp = stratus_cluster(
        kind, n=8, rate_tps=800.0, fault=fault, fault_count=2,
    )
    suite = standard_suite().attach(exp)
    exp.sim.run_until(3.0)
    byzantine = byzantine_nodes(exp.config)
    committed_from_byzantine = [
        mb_id
        for mb_id in exp.replicas[0].mempool._committed
        if microblock_origin(mb_id) in byzantine
    ]
    assert committed_from_byzantine
    assert suite.finalize() == []


def test_standard_suite_silent_on_healthy_cluster():
    # Generator-driven load: the conservation check compares committed
    # tx against the generator's emitted count, so `inject` won't do.
    exp = make_cluster(n=4, mempool="stratus", rate_tps=400.0)
    suite = standard_suite().attach(exp)
    for replica_obj in exp.replicas:
        assert replica_obj.observer is suite
    exp.sim.run_until(3.0)
    violations = suite.finalize()
    assert violations == []
    assert exp.metrics.committed_tx_total > 0
