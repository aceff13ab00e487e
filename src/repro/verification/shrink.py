"""Automatic shrinking of failing fuzz cases.

Greedy delta-debugging over a case's degrees of freedom: drop whole
fault windows (a crash carries its restart as its ``end``, a Byzantine
replica is its swap at t=0), narrow the surviving ones, halve the run
duration, reduce the cluster size, and thin the workload — accepting
each step only while the original oracle still fires. Every candidate
is a ``dataclasses.replace`` of the :class:`ExperimentConfig`, of one of
its windows or of its :class:`ProtocolConfig`, so whatever the case sets
(a shard layout, a mutant's timer) survives the walk. The minimized
config round-trips through a JSON artifact (:func:`write_artifact` /
:func:`replay_artifact`) so a failure found by a nightly fuzz run can be
reproduced from the file alone.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from typing import Callable, List, Optional, Tuple

from repro.faults.schedule import FaultSchedule
from repro.harness.config import ExperimentConfig
from repro.harness.result import RunResult
from repro.verification.fuzzer import run_scenario

ARTIFACT_FORMAT = "repro-fuzz-artifact-v5"

Runner = Callable[[ExperimentConfig], RunResult]
Accepted = Optional[Tuple[ExperimentConfig, RunResult]]


@dataclass
class ShrinkResult:
    """A minimized failing case plus the search's bookkeeping."""

    original: ExperimentConfig
    minimized: ExperimentConfig
    outcome: RunResult  # the minimized case's failing run
    runs: int  # total experiment executions spent shrinking

    @property
    def removed_faults(self) -> int:
        return len(_windows(self.original)) - len(_windows(self.minimized))


def _windows(config: ExperimentConfig) -> tuple:
    return config.faults.windows if config.faults is not None else ()


def _with_windows(config: ExperimentConfig, windows) -> ExperimentConfig:
    return replace(config, faults=FaultSchedule(windows) if windows else None)


class _Walk:
    """One serial greedy walk: runs candidates in order against a budget.

    The walk only ever asks two questions — "which is the first
    candidate (in order) that still fails?" and "how deep into this
    chain of candidates does the failure survive?". Every run is
    charged; once ``max_runs`` is spent no candidate fails.
    """

    def __init__(self, runner: Runner, targets: set, max_runs: int) -> None:
        self.runner = runner
        self.targets = targets
        self.max_runs = max_runs
        self.runs = 1  # the baseline reproduction is charged up front

    @property
    def exhausted(self) -> bool:
        return self.runs >= self.max_runs

    def _attempt(self, candidate: ExperimentConfig) -> Optional[RunResult]:
        """The candidate's run if a target oracle fires again, else None."""
        if self.exhausted:
            return None
        self.runs += 1
        result = self.runner(candidate)
        if any(v.oracle in self.targets for v in result.violations):
            return result
        return None

    def first_failing(self, candidates: List[ExperimentConfig]) -> Accepted:
        """First candidate, in order, that reproduces the violation."""
        for candidate in candidates:
            result = self._attempt(candidate)
            if result is not None:
                return candidate, result
        return None

    def longest_failing_prefix(
        self, chain: List[ExperimentConfig]
    ) -> Accepted:
        """Deepest entry of a monotone chain that still fails: the walk
        stops at the first link that does not."""
        accepted = None
        for candidate in chain:
            result = self._attempt(candidate)
            if result is None:
                break
            accepted = (candidate, result)
        return accepted


def _window_candidates(current: ExperimentConfig) -> List[ExperimentConfig]:
    """Pass-2 candidates: each surviving bounded window, narrowed once."""
    windows = _windows(current)
    candidates: List[ExperimentConfig] = []
    for i, window in enumerate(windows):
        width = window.end - window.start
        if 0.2 < width < math.inf:
            shorter = replace(window, end=round(window.start + width / 2, 3))
            candidates.append(_with_windows(
                current, windows[:i] + (shorter,) + windows[i + 1:]
            ))
    return candidates


def _duration_chain(current: ExperimentConfig) -> List[ExperimentConfig]:
    """Pass-3 chain: successive halvings that still cover the faults."""
    chain: List[ExperimentConfig] = []
    duration = current.duration
    last_fault = max(
        (w.start if w.end == math.inf else w.end for w in _windows(current)),
        default=0.0,
    )
    while duration > 1.0:
        shorter = round(duration / 2, 3)
        if current.warmup + shorter <= last_fault + 0.2:
            break
        chain.append(replace(current, duration=shorter))
        duration = shorter
    return chain


def _cluster_candidates(current: ExperimentConfig) -> List[ExperimentConfig]:
    """Pass-4 candidates: n = 4 or 5, below the highest replica any
    fault names (a Byzantine replica is its t=0 swap); a config the
    smaller n cannot hold (more shards than replicas, more swaps at t=0
    than f) is no candidate."""
    highest = max(
        (node for window in _windows(current) for node in window.nodes),
        default=-1,
    )
    candidates: List[ExperimentConfig] = []
    for smaller in (4, 5):
        if highest < smaller < current.protocol.n:
            try:
                candidates.append(replace(
                    current, protocol=replace(current.protocol, n=smaller),
                ))
            except ValueError:
                continue
    return candidates


def _rate_chain(current: ExperimentConfig) -> List[ExperimentConfig]:
    """Pass-5 chain: successive workload halvings down to 100 tps."""
    chain: List[ExperimentConfig] = []
    rate = current.rate_tps
    while rate > 100.0:
        rate = round(rate / 2, 1)
        chain.append(replace(current, rate_tps=rate))
    return chain


def shrink_scenario(
    config: ExperimentConfig,
    runner: Runner = run_scenario,
    max_runs: int = 60,
) -> ShrinkResult:
    """Minimize a failing case while the violation reproduces.

    ``runner`` exists so callers (the mutation self-test, the CLI) can
    inject class overrides or oracle settings; it must be deterministic
    for the greedy walk to make sense.
    """
    baseline = runner(config)
    if not baseline.violations:
        raise ValueError(
            f"case {config.label} does not fail; nothing to shrink"
        )
    walk = _Walk(runner, {v.oracle for v in baseline.violations}, max_runs)
    current, current_outcome = config, baseline

    # Pass 1: drop whole faults, greedily, to a fixpoint.
    changed = True
    while changed and not walk.exhausted:
        changed = False
        windows = _windows(current)
        accepted = walk.first_failing([
            _with_windows(current, windows[:i] + windows[i + 1:])
            for i in range(len(windows))
        ])
        if accepted is not None:
            current, current_outcome = accepted
            changed = True  # indices shifted; regroup and go again

    # Pass 2: narrow the surviving windows.
    changed = True
    while changed and not walk.exhausted:
        changed = False
        accepted = walk.first_failing(_window_candidates(current))
        if accepted is not None:
            current, current_outcome = accepted
            changed = True

    # Pass 3: halve the run duration while the failure still fits.
    accepted = walk.longest_failing_prefix(_duration_chain(current))
    if accepted is not None:
        current, current_outcome = accepted

    # Pass 4: shrink the cluster.
    accepted = walk.first_failing(_cluster_candidates(current))
    if accepted is not None:
        current, current_outcome = accepted

    # Pass 5: thin the workload.
    accepted = walk.longest_failing_prefix(_rate_chain(current))
    if accepted is not None:
        current, current_outcome = accepted

    return ShrinkResult(
        original=config,
        minimized=current,
        outcome=current_outcome,
        runs=walk.runs,
    )


# -- repro artifacts -------------------------------------------------------


def write_artifact(
    path: str,
    config: ExperimentConfig,
    result: RunResult,
    *,
    root_seed: Optional[int] = None,
    index: Optional[int] = None,
    shrink_runs: Optional[int] = None,
    mutant: Optional[str] = None,
) -> dict:
    """Serialize a failing case and its run to a JSON file.

    ``root_seed``/``index`` name the fuzz case the config came from
    (``ScenarioFuzzer(root_seed).scenario(index)`` is the unshrunk
    original); ``mutant`` names the broken classes a replay re-applies.
    """
    artifact = {
        "format": ARTIFACT_FORMAT,
        "config": config.to_dict(),
        "violations": [v.to_dict() for v in result.violations],
        "commit_hash": result.commit_hash,
    }
    for key, value in (
        ("root_seed", root_seed), ("index", index),
        ("shrink_runs", shrink_runs), ("mutant", mutant),
    ):
        if value is not None:
            artifact[key] = value
    with open(path, "w") as handle:
        json.dump(artifact, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return artifact


def load_artifact(path: str) -> dict:
    with open(path) as handle:
        artifact = json.load(handle)
    if artifact.get("format") != ARTIFACT_FORMAT:
        raise ValueError(
            f"{path} is not a {ARTIFACT_FORMAT} file "
            f"(format={artifact.get('format')!r})"
        )
    return artifact


def replay_artifact(path: str) -> RunResult:
    """Re-run the config stored in an artifact, oracles armed.

    Artifacts recorded from a mutation self-test name their mutant; the
    replay re-applies the same broken classes so the violation is
    reproducible from the file alone.
    """
    artifact = load_artifact(path)
    config = ExperimentConfig.from_dict(artifact["config"])
    mutant = artifact.get("mutant")
    if mutant is not None:
        from repro.verification.mutations import run_mutant

        return run_mutant(mutant, config)
    return run_scenario(config)
