"""Deterministic-simulation verification layer.

Invariant oracles observe a running experiment through the replica
observer tap (``Replica.observer``: consensus commits, microblock
creations, resolved blocks) and record :class:`Violation` objects
instead of raising, so a single run can surface every broken invariant
at once. The scenario
fuzzer composes randomized experiment configs from one root seed, and
the shrinker minimizes a failing one into a replayable artifact.
"""

from repro.verification.fuzzer import (
    ScenarioFuzzer,
    default_liveness_bound,
    random_fault_schedule,
    run_scenario,
)
from repro.verification.mutations import (
    MUTANTS,
    Mutant,
    mutant_caught,
    run_mutant,
)
from repro.verification.oracles import (
    AvailabilityOracle,
    ConservationOracle,
    LedgerOracle,
    LivenessOracle,
    Oracle,
    OracleSuite,
    SafetyOracle,
    Violation,
    standard_suite,
)
from repro.verification.shrink import (
    ShrinkResult,
    load_artifact,
    replay_artifact,
    shrink_scenario,
    write_artifact,
)

__all__ = [
    "AvailabilityOracle", "ConservationOracle", "LedgerOracle",
    "LivenessOracle", "MUTANTS", "Mutant", "Oracle", "OracleSuite",
    "SafetyOracle", "ScenarioFuzzer", "ShrinkResult", "Violation",
    "default_liveness_bound", "load_artifact", "mutant_caught",
    "random_fault_schedule", "replay_artifact", "run_mutant",
    "run_scenario", "shrink_scenario", "standard_suite", "write_artifact",
]
