"""Tests for the scenario shrinker and replayable repro artifacts."""

import pytest

from repro.cli import run_cli
from repro.verification import (
    MUTANTS,
    Scenario,
    load_artifact,
    replay_artifact,
    run_scenario,
    shrink_scenario,
    write_artifact,
)
from repro.verification.mutations import SilentPrepareMempool
from repro.verification.shrink import _max_node, _window_candidates


def mute_runner(scenario):
    """Runner injecting the mute-votes bug (reliably fails liveness)."""
    return run_scenario(scenario, mempool_cls=SilentPrepareMempool)


def padded_failing_scenario():
    """The mute-votes scenario buried under irrelevant fault events."""
    base = MUTANTS["mute-votes"].scenario
    padding = [
        {"kind": "delay", "start": 0.6, "end": 1.0,
         "base": 0.03, "jitter": 0.01, "bandwidth_factor": 0.9},
        {"kind": "bandwidth", "start": 1.2, "end": 1.6,
         "factor": 0.5, "nodes": [0, 1]},
    ]
    return base.replaced(fault_spec=padding)


def test_shrinker_drops_irrelevant_fault_events():
    scenario = padded_failing_scenario()
    result = shrink_scenario(scenario, runner=mute_runner)
    assert result.minimized.fault_spec == []
    assert result.removed_faults == 2
    assert any(
        v.oracle == "liveness" for v in result.outcome.violations
    )
    assert result.runs <= 60


def test_shrinker_refuses_passing_scenario():
    healthy = Scenario(
        seed=1, consensus="hotstuff", mempool="simple", n=4,
        duration=2.0, rate_tps=300.0,
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
    scenario = Scenario(
        seed=1, consensus="hotstuff", mempool="simple", n=7,
        duration=2.0, fault_spec=spec,
    )
    # Only the crash is wider than 0.2 s and has an end to narrow.
    (narrowed,) = _window_candidates(scenario)
    assert narrowed.fault_spec == [
        {"kind": "crash", "start": 1.0, "end": 1.5, "nodes": [2]},
        *spec[1:],
    ]
    # The cluster only shrinks below the highest replica a fault names.
    assert [_max_node(entry) for entry in spec] == [2, -1, 5]
    assert _max_node({"kind": "bandwidth", "nodes": [0, 3]}) == 3


def test_artifact_round_trip(tmp_path):
    """A failing outcome written to disk replays bit-for-bit."""
    outcome = mute_runner(MUTANTS["mute-votes"].scenario)
    assert not outcome.ok
    path = tmp_path / "repro.json"
    write_artifact(str(path), outcome, mutant="mute-votes")

    artifact = load_artifact(str(path))
    assert artifact["mutant"] == "mute-votes"
    assert Scenario.from_dict(artifact["scenario"]) == outcome.scenario

    replayed = replay_artifact(str(path))
    assert replayed.commit_hash == outcome.commit_hash
    assert [v.kind for v in replayed.violations] == [
        v.kind for v in outcome.violations
    ]
    # ...and from the command line, which exits 1 while it reproduces.
    assert run_cli(["replay", str(path)]) == 1


def test_artifact_rejects_foreign_format(tmp_path):
    path = tmp_path / "not-an-artifact.json"
    path.write_text('{"format": "something-else"}')
    with pytest.raises(ValueError):
        load_artifact(str(path))
    # A v1 artifact holds fault specs in the retired event grammar.
    path.write_text('{"format": "repro-fuzz-artifact-v1"}')
    with pytest.raises(ValueError, match="repro-fuzz-artifact-v1"):
        load_artifact(str(path))
