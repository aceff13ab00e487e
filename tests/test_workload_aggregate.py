"""Aggregate workload mode must be indistinguishable from tick mode.

The aggregate mode replays the tick carry recurrence lazily (waking only
at batcher-relevant ticks), so for any experiment it must emit identical
transaction counts and drive the protocol to an identical commit
sequence — the commit-sequence hash is the strongest available
fingerprint of "the schedules matched".
"""

import dataclasses

import pytest

from repro.faults import FaultSchedule
from repro.harness.config import ExperimentConfig
from repro.harness.presets import tuned_protocol
from repro.harness.runner import run_experiment
from repro.workload import UniformSelector, WorkloadGenerator


def both_modes(base: ExperimentConfig):
    tick = run_experiment(dataclasses.replace(base, workload_mode="ticks"))
    agg = run_experiment(dataclasses.replace(base, workload_mode="aggregate"))
    return tick, agg


@pytest.mark.parametrize("preset", ["S-HS", "SMP-HS", "Narwhal"])
def test_aggregate_matches_ticks_exactly(preset):
    base = ExperimentConfig(
        protocol=tuned_protocol(preset, n=4),
        rate_tps=5_000, duration=3.0, warmup=0.5, seed=3,
    )
    tick, agg = both_modes(base)
    assert agg.emitted_tx == tick.emitted_tx
    assert agg.committed_tx == tick.committed_tx
    assert agg.commit_hash == tick.commit_hash


def test_aggregate_matches_ticks_with_zipf_skew():
    base = ExperimentConfig(
        protocol=tuned_protocol("S-HS", n=4),
        rate_tps=4_000, duration=3.0, warmup=0.5, seed=9, selector="zipf1",
    )
    tick, agg = both_modes(base)
    assert agg.emitted_tx == tick.emitted_tx
    assert agg.commit_hash == tick.commit_hash


def test_aggregate_matches_ticks_across_crash_restart():
    # Crash/restart boundaries are the delicate part: ticks that arrive
    # while a replica is down are lost in both modes, and the tick at
    # exactly the crash instant is dropped (the injector's event fires
    # first). Two overlapping crash windows exercise both hooks.
    faults = FaultSchedule.from_spec([
        {"kind": "crash", "start": 1.3, "end": 3.0, "nodes": [2]},
        {"kind": "crash", "start": 2.05, "end": 2.85, "nodes": [1]},
    ])
    base = ExperimentConfig(
        protocol=tuned_protocol("S-HS", n=4),
        rate_tps=5_000, duration=4.0, warmup=0.5, seed=5, faults=faults,
    )
    tick, agg = both_modes(base)
    assert agg.emitted_tx == tick.emitted_tx
    assert agg.committed_tx == tick.committed_tx
    assert agg.commit_hash == tick.commit_hash


def test_aggregate_emitted_count_mid_run_matches_ticks():
    # The running emitted counter replays undigested ticks analytically;
    # it must agree with tick mode at an arbitrary mid-run instant.
    from repro.harness.runner import build_experiment

    base = ExperimentConfig(
        protocol=tuned_protocol("S-HS", n=4),
        rate_tps=3_000, duration=3.0, warmup=0.5, seed=7,
    )
    exp_tick = build_experiment(dataclasses.replace(base, workload_mode="ticks"))
    exp_agg = build_experiment(
        dataclasses.replace(base, workload_mode="aggregate")
    )
    exp_tick.sim.run_until(1.77)
    exp_agg.sim.run_until(1.77)
    assert (
        exp_agg.generator.emitted_tx_count
        == exp_tick.generator.emitted_tx_count
    )


def test_aggregate_mode_rejects_batcherless_mempools():
    # The native mempool has no microblock batcher to pull from.
    base = ExperimentConfig(
        protocol=tuned_protocol("N-HS", n=4),
        rate_tps=1_000, duration=1.0, warmup=0.0, seed=1,
        workload_mode="aggregate",
    )
    with pytest.raises(ValueError, match="batcher"):
        run_experiment(base)


def test_generator_rejects_unknown_mode_and_bad_population():
    selector = UniformSelector(1)
    with pytest.raises(ValueError, match="mode"):
        WorkloadGenerator(
            sim=None, replicas=[object()], rate_tps=10.0, tx_payload=128,
            selector=selector, mode="per-client",
        )
    with pytest.raises(ValueError, match="offered_clients"):
        WorkloadGenerator(
            sim=None, replicas=[object()], rate_tps=10.0, tx_payload=128,
            selector=selector, offered_clients=0,
        )
