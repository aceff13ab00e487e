"""Mutation self-test: every seeded bug must trip its target oracle.

This is the verification layer's own verification. Each mutant plants a
classic BFT/SMP bug (1-chain commits, skipped availability gates, a PAB
quorum one ack short and a proposal hook that marks nothing, each
unsharded and at two shards, payload replay/fabrication, muted votes, a
payload pulled before the view is checked); if a refactor blinds an
oracle, the corresponding case here fails. The reverse direction —
oracles stay silent on correct stacks — is covered by
``tests/test_fuzz_corpus.py``.
"""

import pytest

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


@pytest.mark.parametrize("kind", STRATUS_KINDS)
def test_pull_before_view_check_caught_by_conservation_only(kind):
    """The dropped ids are still in the other replicas' queues and commit
    later, so safety, availability, integrity and liveness see a healthy
    run; only the per-replica id lifecycle is broken."""
    outcome = run_mutant(f"pull-before-view-check-{MUTANT_CELL[kind]}")
    assert outcome.committed_tx > 0
    assert {v.oracle for v in outcome.violations} == {"conservation"}
    assert {v.kind for v in outcome.violations} == {"stranded"}


def test_mutant_scenarios_pass_without_the_bug():
    """Each mutant's scenario is clean on the unmutated stack — the
    violation comes from the seeded bug, not the schedule."""
    # Runs without strict_availability even where the mutant sets it:
    # the strict PAB bar is intentionally unfair to best-effort mempools.
    for name, mutant in sorted(MUTANTS.items()):
        outcome = run_scenario(mutant.scenario)
        assert outcome.ok, (
            f"{name}'s scenario fails even without the mutation: "
            + "; ".join(str(v) for v in outcome.violations)
        )


def test_shrinker_reduces_seeded_failure():
    """End-to-end tentpole check: pad the mute-votes scenario with a
    noise fault window, shrink it, and get the bare scenario back."""
    mutant = MUTANTS["mute-votes"]
    padded = mutant.scenario.replaced(fault_spec=[
        {"kind": "loss", "start": 0.7, "end": 1.0, "rate": 0.1},
    ])

    def runner(scenario):
        return run_scenario(scenario, mempool_cls=mutant.mempool_cls)

    result = shrink_scenario(padded, runner=runner)
    assert result.minimized.fault_spec == []
    assert mutant_caught(mutant, result.outcome)
