"""Tests for the scenario fuzzer: derivation, determinism, validity."""

import json
import random

from repro.config import CONSENSUS_KINDS, MEMPOOL_KINDS, ProtocolConfig
from repro.faults import FaultSchedule, Window
from repro.harness.config import ExperimentConfig
from repro.sim.rng import RngRegistry
from repro.verification.fuzzer import (
    FUZZ_CONSENSUS_KINDS,
    FUZZ_MEMPOOL_KINDS,
    LIVENESS_MARGIN,
    QUICK_PROTOCOL,
    ScenarioFuzzer,
    default_liveness_bound,
    random_fault_schedule,
    run_scenario,
)


def test_scenario_derivation_is_pure():
    """The same root seed derives byte-identical scenarios, even from
    two independent fuzzer instances and out-of-order queries."""
    a = ScenarioFuzzer(1234)
    b = ScenarioFuzzer(1234)
    for index in (3, 0, 7):
        assert a.scenario(index).to_dict() == b.scenario(index).to_dict()
    # ...and asking one fuzzer twice for a case gives the same case.
    assert a.scenario(3) == b.scenario(3)


def test_different_roots_diverge():
    a = ScenarioFuzzer(1).scenario(0)
    b = ScenarioFuzzer(2).scenario(0)
    assert a.to_dict() != b.to_dict()


def test_derive_seed_stability():
    """The run seed is a documented pure function of (root, name); a
    change here invalidates every recorded artifact."""
    registry = RngRegistry(42)
    assert registry.derive_seed("scenario.0.run") == (
        RngRegistry(42).derive_seed("scenario.0.run")
    )
    assert ScenarioFuzzer(42).scenario(0).seed == (
        RngRegistry(42).derive_seed("scenario.0.run")
    )


def test_one_root_seed_feeds_all_streams():
    """Satellite check: topology, workload, and fault randomness all
    trace back to the single root seed (config fields + run seed)."""
    fuzzer = ScenarioFuzzer(99)
    scenario = fuzzer.scenario(5)
    assert scenario.seed == RngRegistry(99).derive_seed("scenario.5.run")
    assert scenario.label.startswith("fuzz[5]-")
    # Replaying the derivation stream reproduces the composition.
    assert ScenarioFuzzer(99).scenario(5) == scenario


def test_same_scenario_same_commit_hash():
    """FoundationDB property: re-running a scenario is bit-for-bit
    identical, fingerprinted by the commit-sequence hash."""
    scenario = ExperimentConfig(
        protocol=ProtocolConfig(n=4, **QUICK_PROTOCOL),
        duration=2.0, warmup=0.5, rate_tps=300.0, seed=7,
        faults=FaultSchedule([Window("loss", 0.8, 1.3, rate=0.2)]),
    )
    first = run_scenario(scenario)
    second = run_scenario(scenario)
    assert first.commit_hash == second.commit_hash
    assert first.committed_tx == second.committed_tx
    assert first.events_processed == second.events_processed


def test_fault_schedules_are_self_healing():
    for seed in range(30):
        rng = random.Random(seed)
        spec = random_fault_schedule(rng, n=7, deadline=3.0)
        crashes = [e["nodes"] for e in spec if e["kind"] == "crash"]
        assert len(crashes) <= 2  # at most f of n=7
        for entry in spec:
            assert entry["end"] <= 3.2  # every fault heals


def test_scenarios_cover_protocol_grid():
    """A modest sweep draws from the full consensus x mempool space.

    The pools are the fuzzer's *pinned* defaults
    (``FUZZ_CONSENSUS_KINDS``, ``FUZZ_MEMPOOL_KINDS``), not the global
    registries: recorded corpus cells must not shift when an engine or
    a mempool kind is registered or removed.
    """
    fuzzer = ScenarioFuzzer(3)
    seen_consensus = set()
    seen_mempool = set()
    for index in range(60):
        scenario = fuzzer.scenario(index)
        seen_consensus.add(scenario.protocol.consensus)
        seen_mempool.add(scenario.protocol.mempool)
        assert scenario.protocol.consensus in CONSENSUS_KINDS
        assert scenario.protocol.mempool in MEMPOOL_KINDS
    assert seen_consensus == set(FUZZ_CONSENSUS_KINDS)
    assert seen_mempool == set(FUZZ_MEMPOOL_KINDS)
    assert set(FUZZ_CONSENSUS_KINDS) <= set(CONSENSUS_KINDS)
    assert set(FUZZ_MEMPOOL_KINDS) <= set(MEMPOOL_KINDS)


def test_faults_heal_before_liveness_judgement():
    """Every derived fault window leaves room for the liveness bound."""
    fuzzer = ScenarioFuzzer(11)
    for index in range(20):
        scenario = fuzzer.scenario(index)
        bound = default_liveness_bound(scenario.protocol)
        windows = scenario.faults.windows if scenario.faults else ()
        for window in windows:
            assert window.end + bound + LIVENESS_MARGIN <= (
                scenario.warmup + scenario.duration + 0.3
            )


def test_scenario_round_trips_through_dict():
    scenario = ScenarioFuzzer(5).scenario(2)
    data = json.loads(json.dumps(scenario.to_dict()))
    assert ExperimentConfig.from_dict(data) == scenario


def test_quick_protocol_keeps_fetch_view_ratio():
    """The fetch grace period must stay well under the view timeout or
    every fetch-gated vote spans a full view (two-chain livelock)."""
    assert QUICK_PROTOCOL["fetch_timeout"] * 2 <= (
        QUICK_PROTOCOL["view_timeout"]
    )
