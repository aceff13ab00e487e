"""Mutation self-test: every seeded bug must trip its target oracle.

This is the verification layer's own verification. Each mutant plants a
classic BFT/SMP bug (1-chain commits, skipped availability gates, a PAB
quorum one ack short and a proposal hook that marks nothing, each
unsharded and at two shards of n=7, payload replay/fabrication, muted
votes, a restarted leader that never syncs); if a refactor blinds an
oracle, the corresponding case here fails. The reverse direction —
oracles stay silent on correct stacks — is covered by
``tests/test_fuzz_corpus.py``.
"""

import dataclasses

import pytest

from repro.faults import FaultSchedule, Window
from repro.harness.config import ExperimentConfig
from repro.sharding import ShardMap
from repro.verification import (
    MUTANTS,
    mutant_caught,
    run_mutant,
    shrink_scenario,
)
from repro.verification.fuzzer import run_scenario

from tests.helpers import STRATUS_KINDS

#: The Stratus mutants' name suffix per Stratus test cell.
MUTANT_CELL = {"stratus": "stratus", "sharded-stratus": "shards2"}


@pytest.mark.parametrize("name", sorted(MUTANTS), ids=sorted(MUTANTS))
def test_mutant_is_caught(name):
    mutant = MUTANTS[name]
    outcome = run_mutant(name)
    assert mutant_caught(mutant, outcome), (
        f"{name} produced no {mutant.expected_oracle} violation "
        f"(got {[v.kind for v in outcome.violations]})"
    )


def test_eager_commit_caught_by_safety_only():
    """The 1-chain fork is a pure safety bug: no collateral noise from
    the other oracles on this scenario."""
    outcome = run_mutant("eager-commit")
    oracles = {v.oracle for v in outcome.violations}
    assert oracles == {"safety"}


@pytest.mark.parametrize("kind", STRATUS_KINDS)
def test_forget_referenced_needs_the_ancestor_rule(kind):
    """The re-proposal lands one view after the first occurrence, before
    its proposer has committed anything: only the ancestor rule of the
    ledger oracle's ``duplicate`` check can see it."""
    outcome = run_mutant(f"forget-referenced-{MUTANT_CELL[kind]}")
    duplicates = [v for v in outcome.violations if v.kind == "duplicate"]
    assert duplicates
    assert all("built on" in v.message for v in duplicates)


def test_mutant_scenarios_pass_without_the_bug():
    """Each mutant's scenario is clean on the unmutated stack — the
    violation comes from the seeded bug, not the schedule."""
    # Runs without strict_availability even where the mutant sets it:
    # the strict PAB bar is intentionally unfair to best-effort mempools.
    for name, mutant in sorted(MUTANTS.items()):
        outcome = run_scenario(mutant.config)
        assert not outcome.violations, (
            f"{name}'s scenario fails even without the mutation: "
            + "; ".join(str(v) for v in outcome.violations)
        )


def test_shrinker_reduces_seeded_failure():
    """End-to-end tentpole check: pad the mute-votes scenario with a
    noise fault window, shrink it, and get the bare scenario back."""
    mutant = MUTANTS["mute-votes"]
    padded = dataclasses.replace(mutant.config, faults=FaultSchedule([
        Window("loss", 0.7, 1.0, rate=0.1),
    ]))

    def runner(config):
        return run_scenario(config, mempool_cls=mutant.mempool_cls)

    result = shrink_scenario(padded, runner=runner)
    assert result.minimized.faults is None
    assert result.minimized.rate_tps == 100.0
    assert result.runs == 5
    assert mutant_caught(mutant, result.outcome)


@pytest.mark.parametrize("name", sorted(MUTANTS), ids=sorted(MUTANTS))
def test_mutant_config_round_trips(name):
    """Every field a mutant sets — a shard layout, a fault schedule —
    survives the dict form an artifact and a worker process carry."""
    config = MUTANTS[name].config
    assert ExperimentConfig.from_dict(config.to_dict()) == config


@pytest.mark.parametrize("stem", ["short-quorum", "forget-referenced"])
def test_sharded_cells_are_sharded(stem):
    """A ``*-shards2`` cell's two shards have different members, so it
    runs something its unsharded twin does not."""
    sharded = MUTANTS[f"{stem}-shards2"]
    twin = MUTANTS[f"{stem}-stratus"]
    shard_map = ShardMap.of(sharded.config.protocol)
    members = {shard_map.member_set(s) for s in range(shard_map.shards)}
    assert len(members) == shard_map.shards == 2
    assert run_mutant(sharded.name).commit_hash != (
        run_mutant(twin.name).commit_hash
    )
