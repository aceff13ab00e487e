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
from repro.verification.shrink import _event_units, _max_node


def mute_runner(scenario):
    """Runner injecting the mute-votes bug (reliably fails liveness)."""
    return run_scenario(scenario, mempool_cls=SilentPrepareMempool)


def padded_failing_scenario():
    """The mute-votes scenario buried under irrelevant fault events."""
    base = MUTANTS["mute-votes"].scenario
    padding = [
        {"event": "delay", "at": 0.6, "duration": 0.4,
         "base": 0.03, "jitter": 0.01, "bandwidth_factor": 0.9},
        {"event": "bandwidth", "at": 1.2, "duration": 0.4,
         "factor": 0.5, "nodes": [0, 1]},
    ]
    return base.replaced(fault_spec=padding)


def test_shrinker_drops_irrelevant_fault_events():
    scenario = padded_failing_scenario()
    result = shrink_scenario(scenario, runner=mute_runner)
    assert result.minimized.fault_spec == []
    assert result.removed_events == 2
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
    spec = [
        {"event": "crash", "at": 1.0, "node": 2},
        {"event": "loss", "at": 1.2, "duration": 0.5, "rate": 0.3},
        {"event": "restart", "at": 2.0, "node": 2},
    ]
    units = _event_units(spec)
    assert [0, 2] in units  # crash at index 0 owns restart at index 2
    assert [1] in units
    # The cluster only shrinks below the highest replica an event names.
    assert [_max_node(entry) for entry in spec] == [2, -1, 2]
    assert _max_node({"event": "partition", "groups": [[0, 5], [1]]}) == 5
    assert _max_node({"event": "bandwidth", "nodes": [0, 3]}) == 3


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
