"""Tests for the scenario shrinker and replayable repro artifacts."""

import dataclasses
import json
from types import SimpleNamespace

import pytest

from repro.cli import run_cli
from repro.faults import FaultSchedule
from repro.harness.config import ExperimentConfig
from repro.verification import (
    MUTANTS,
    Violation,
    load_artifact,
    replay_artifact,
    run_mutant,
    run_scenario,
    shrink_scenario,
    write_artifact,
)
from repro.verification.mutations import SilentPrepareMempool
from repro.verification.shrink import (
    _cluster_candidates,
    _window_candidates,
)


def mute_runner(config):
    """Runner injecting the mute-votes bug (reliably fails liveness)."""
    return run_scenario(config, mempool_cls=SilentPrepareMempool)


def with_faults(config, spec):
    return dataclasses.replace(config, faults=FaultSchedule.from_spec(spec))


def padded_failing_scenario():
    """The mute-votes case buried under irrelevant fault windows."""
    return with_faults(MUTANTS["mute-votes"].config, [
        {"kind": "delay", "start": 0.6, "end": 1.0,
         "base": 0.03, "jitter": 0.01},
        {"kind": "bandwidth", "start": 0.6, "end": 1.0, "factor": 0.9},
        {"kind": "bandwidth", "start": 1.2, "end": 1.6,
         "factor": 0.5, "nodes": [0, 1]},
    ])


def test_shrinker_drops_irrelevant_fault_events():
    scenario = padded_failing_scenario()
    result = shrink_scenario(scenario, runner=mute_runner)
    # The serial greedy walk: three drops, then the rate chain (400 -> 200
    # -> 100 tps) fails at every link; the duration stays at 2.5 s.
    assert result.minimized == dataclasses.replace(
        MUTANTS["mute-votes"].config, rate_tps=100.0,
    )
    assert result.minimized.faults is None
    assert result.removed_faults == 3
    assert any(
        v.oracle == "liveness" for v in result.outcome.violations
    )
    assert result.runs == 7


def test_shrinker_refuses_passing_scenario():
    healthy = dataclasses.replace(
        MUTANTS["mute-votes"].config, duration=2.0, rate_tps=300.0,
    )
    with pytest.raises(ValueError):
        shrink_scenario(healthy)


def test_crash_restart_move_as_one_unit():
    """A crash carries its restart as its end: dropping the entry drops
    both, and narrowing it moves the restart towards the crash."""
    spec = [
        {"kind": "crash", "start": 1.0, "end": 2.0, "nodes": [2]},
        {"kind": "loss", "start": 1.2, "end": 1.3, "rate": 0.3},
        {"kind": "partition", "start": 1.5, "groups": [[0, 5], [1]]},
    ]
    base = MUTANTS["skip-proof-gate"].config  # n=7
    scenario = with_faults(base, spec)
    # Only the crash is wider than 0.2 s and has an end to narrow.
    (narrowed,) = _window_candidates(scenario)
    assert narrowed.faults.to_spec() == [
        {"kind": "crash", "start": 1.0, "end": 1.5, "nodes": [2]},
        *spec[1:],
    ]
    # The cluster only shrinks below the highest replica a fault names:
    # the partition names replica 5, so n stays 7; without it n=4 and
    # n=5 are both candidates, and the crash names replica 2.
    assert _cluster_candidates(scenario) == []
    assert [c.protocol.n for c in _cluster_candidates(
        with_faults(base, spec[:2])
    )] == [4, 5]
    assert [c.protocol.n for c in _cluster_candidates(
        with_faults(base, [{"kind": "bandwidth", "start": 1.0, "end": 2.0,
                            "factor": 0.5, "nodes": [0, 4]}])
    )] == [5]
    # ...nor below what the config needs: two replicas Byzantine from
    # the start need f >= 2, which neither n=4 nor n=5 has.
    byzantine = with_faults(base, [
        {"kind": "swap", "start": 0.0, "nodes": [0], "behavior": "silent"},
        {"kind": "swap", "start": 0.0, "nodes": [1], "behavior": "silent"},
    ])
    assert _cluster_candidates(byzantine) == []


def test_shrinker_drops_a_byzantine_replica_the_failure_does_not_need():
    """A Byzantine replica is a swap window at t=0, so pass 1 drops it
    like any other fault when the violation survives without it."""
    base = MUTANTS["mute-votes"].config
    needed = {"kind": "crash", "start": 1.0, "end": 2.0, "nodes": [1]}
    scenario = with_faults(base, [
        {"kind": "swap", "start": 0.0, "nodes": [3], "behavior": "censor"},
        needed,
    ])
    violation = Violation("liveness", "stall", 0.0, "no commit")

    def runner(config):
        """Fails while the crash is scheduled as is, whatever else is."""
        fails = (
            config.faults is not None and needed in config.faults.to_spec()
        )
        return SimpleNamespace(violations=[violation] if fails else [])

    result = shrink_scenario(scenario, runner=runner)
    assert result.minimized.faults.to_spec() == [needed]
    assert result.removed_faults == 1


def test_artifact_round_trip(tmp_path):
    """A failing run written to disk replays bit-for-bit, with every
    field its config sets: the eager-commit case needs its seed, size
    and partition to fail at all."""
    for name in ("mute-votes", "eager-commit"):
        config = MUTANTS[name].config
        result = run_mutant(name)
        assert result.violations
        path = tmp_path / f"{name}.json"
        write_artifact(str(path), config, result, mutant=name)

        artifact = load_artifact(str(path))
        assert artifact["mutant"] == name
        assert artifact["commit_hash"] == result.commit_hash
        assert ExperimentConfig.from_dict(artifact["config"]) == config

        replayed = replay_artifact(str(path))
        assert replayed.commit_hash == result.commit_hash
        assert [(v.oracle, v.kind) for v in replayed.violations] == [
            (v.oracle, v.kind) for v in result.violations
        ]
        # ...and from the command line, which exits 1 while it reproduces.
        assert run_cli(["replay", str(path)]) == 1


def test_artifact_rejects_foreign_format(tmp_path):
    path = tmp_path / "not-an-artifact.json"
    path.write_text('{"format": "something-else"}')
    with pytest.raises(ValueError):
        load_artifact(str(path))
    # A v1 artifact holds fault specs in the retired event grammar, a
    # v2 one a scenario record that dropped every field it did not draw,
    # a v3 one the deleted ``fault`` / ``fault_count`` fields.
    for old in (
        "repro-fuzz-artifact-v1", "repro-fuzz-artifact-v2",
        "repro-fuzz-artifact-v3",
    ):
        path.write_text(json.dumps({"format": old}))
        with pytest.raises(ValueError, match=old):
            load_artifact(str(path))
