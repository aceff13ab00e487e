"""Automatic shrinking of failing fuzz scenarios.

Greedy delta-debugging over a scenario's degrees of freedom: drop whole
faults (a crash carries its restart as its ``end``), narrow the
surviving ones, halve the run duration, reduce the cluster size, and
thin the workload — accepting each step only while the original oracle
still fires. The minimized scenario round-trips through a JSON artifact
(:func:`write_artifact` / :func:`replay_artifact`) so a failure found by
a nightly fuzz run can be reproduced from the file alone.

With an :class:`~repro.parallel.executor.ParallelExecutor`, the walk
**speculates**: each pass launches its next batch of delta-debugging
candidates concurrently and accepts the first failing candidate in
deterministic candidate order, so the minimized scenario is identical to
the serial walk's. Every launched candidate is charged against
``max_runs`` (speculation spends budget for wall-clock), so the ``runs``
bookkeeping may differ from a serial shrink even though the result does
not.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from repro.verification.fuzzer import FuzzOutcome, Scenario, run_scenario

ARTIFACT_FORMAT = "repro-fuzz-artifact-v2"

Runner = Callable[[Scenario], FuzzOutcome]


@dataclass
class ShrinkResult:
    """A minimized failing scenario plus the search's bookkeeping."""

    original: Scenario
    minimized: Scenario
    outcome: FuzzOutcome  # the minimized scenario's failing outcome
    runs: int  # total experiment executions spent shrinking

    @property
    def removed_faults(self) -> int:
        return len(self.original.fault_spec) - len(self.minimized.fault_spec)


def _fails(outcome: FuzzOutcome, targets: set) -> bool:
    """Does the outcome reproduce a violation from the target oracles?"""
    return any(v.oracle in targets for v in outcome.violations)


def _max_node(entry: dict) -> int:
    nodes = list(entry.get("nodes", ()))
    for group in entry.get("groups", ()):
        nodes.extend(group)
    return max(nodes) if nodes else -1


class _CandidateEvaluator:
    """Runs shrink candidates one by one or speculatively in worker processes.

    The greedy walk only ever asks two questions — "which is the first
    candidate (in order) that still fails?" and "how deep into this
    chain of candidates does the failure survive?" — so those are the
    two primitives here. The speculative answers are computed by
    launching a batch of up to ``executor.jobs`` candidates at once and
    scanning the results in candidate order, which makes them equal to
    the serial answers; only the ``runs`` accounting differs (every
    launched candidate is charged).
    """

    def __init__(
        self,
        runner: Runner,
        targets: set,
        max_runs: int,
        executor=None,
        job_options: Optional[dict] = None,
    ) -> None:
        self.runner = runner
        self.targets = targets
        self.max_runs = max_runs
        self.runs = 1  # the baseline reproduction is charged up front
        # A job spec can only name the stock run_scenario (plus the knobs
        # scenario_job carries): that case runs through an executor at
        # every width, in-process at jobs=1; a closure walks serially.
        if runner is not run_scenario and job_options is None:
            executor = None
        elif executor is None:
            from repro.parallel import ParallelExecutor

            executor = ParallelExecutor(jobs=1)
        self.executor = executor
        self.job_options = job_options or {}

    @property
    def exhausted(self) -> bool:
        return self.runs >= self.max_runs

    def _check(self, outcome: FuzzOutcome) -> Optional[FuzzOutcome]:
        return outcome if _fails(outcome, self.targets) else None

    def _attempt(self, candidate: Scenario) -> Optional[FuzzOutcome]:
        if self.exhausted:
            return None
        self.runs += 1
        try:
            outcome = self.runner(candidate)
        except ValueError:
            return None  # candidate assembled an invalid experiment
        return self._check(outcome)

    def _evaluate_batch(
        self, batch: List[Scenario]
    ) -> List[Optional[FuzzOutcome]]:
        """Run a batch concurrently; outcome-or-None per candidate."""
        from repro.parallel.jobs import scenario_job

        self.runs += len(batch)
        specs = [
            scenario_job(candidate, **self.job_options)
            for candidate in batch
        ]
        results: List[Optional[FuzzOutcome]] = []
        for job in self.executor.map(specs):
            if job.error is not None:
                if "ValueError" in job.error:
                    results.append(None)  # invalid candidate, as serial
                    continue
                raise RuntimeError(
                    f"shrink candidate {job.spec.label} failed: {job.error}"
                )
            outcome = FuzzOutcome.from_dict(job.value["outcome"])
            results.append(self._check(outcome))
        return results

    def _batched(self, candidates: List[Scenario]):
        """Yield (candidate, outcome-or-None) pairs, in candidate order."""
        if self.executor is None:
            for candidate in candidates:
                if self.exhausted:
                    return
                yield candidate, self._attempt(candidate)
            return
        cursor = 0
        while cursor < len(candidates) and not self.exhausted:
            width = min(
                self.executor.jobs,
                self.max_runs - self.runs,
                len(candidates) - cursor,
            )
            batch = candidates[cursor:cursor + width]
            for candidate, outcome in zip(batch, self._evaluate_batch(batch)):
                yield candidate, outcome
            cursor += width

    def first_failing(
        self, candidates: List[Scenario]
    ) -> Optional[Tuple[Scenario, FuzzOutcome]]:
        """First candidate, in order, that reproduces the violation."""
        for candidate, outcome in self._batched(candidates):
            if outcome is not None:
                return candidate, outcome
        return None

    def longest_failing_prefix(
        self, chain: List[Scenario]
    ) -> Optional[Tuple[Scenario, FuzzOutcome]]:
        """Deepest entry of a monotone chain that still fails.

        Mirrors the serial "keep halving until it stops failing" loop:
        the walk stops at the first non-failing link, and whatever
        speculative links were already launched past it are discarded
        (but still charged).
        """
        accepted: Optional[Tuple[Scenario, FuzzOutcome]] = None
        for candidate, outcome in self._batched(chain):
            if outcome is None:
                break
            accepted = (candidate, outcome)
        return accepted


def _window_candidates(current: Scenario) -> List[Scenario]:
    """Pass-2 candidates: each surviving bounded window, narrowed once."""
    spec = current.fault_spec
    candidates: List[Scenario] = []
    for i, entry in enumerate(spec):
        width = entry.get("end", entry["start"]) - entry["start"]
        if width > 0.2:
            shorter = dict(entry, end=round(entry["start"] + width / 2, 3))
            candidates.append(current.replaced(
                fault_spec=spec[:i] + [shorter] + spec[i + 1:]
            ))
    return candidates


def _duration_chain(current: Scenario) -> List[Scenario]:
    """Pass-3 chain: successive halvings that still cover the faults."""
    chain: List[Scenario] = []
    duration = current.duration
    last_fault = max(
        (e.get("end", e["start"]) for e in current.fault_spec), default=0.0,
    )
    while duration > 1.0:
        shorter = round(duration / 2, 3)
        if current.warmup + shorter <= last_fault + 0.2:
            break
        chain.append(current.replaced(duration=shorter))
        duration = shorter
    return chain


def _rate_chain(current: Scenario) -> List[Scenario]:
    """Pass-5 chain: successive workload halvings down to 100 tps."""
    chain: List[Scenario] = []
    rate = current.rate_tps
    while rate > 100.0:
        rate = round(rate / 2, 1)
        chain.append(current.replaced(rate_tps=rate))
    return chain


def shrink_scenario(
    scenario: Scenario,
    runner: Runner = run_scenario,
    max_runs: int = 60,
    executor=None,
    job_options: Optional[dict] = None,
) -> ShrinkResult:
    """Minimize a failing scenario while the violation reproduces.

    ``runner`` exists so callers (the mutation self-test, the CLI) can
    inject class overrides or oracle settings; it must be deterministic
    for the greedy walk to make sense.

    ``executor`` (a :class:`~repro.parallel.executor.ParallelExecutor`)
    turns the walk speculative: batches of candidates run concurrently
    and the first failing candidate in candidate order wins, so the
    minimized scenario equals the serial one. Speculation only engages
    for the stock ``run_scenario`` runner — or when ``job_options``
    (:func:`~repro.parallel.jobs.scenario_job` keywords such as
    ``mutant`` or ``strict_availability``) spells out how a worker can
    rebuild the runner; any other custom runner shrinks serially. The
    baseline reproduction always runs in-process through ``runner``.
    """
    baseline = runner(scenario)
    if baseline.ok:
        raise ValueError(
            f"scenario {scenario.label} does not fail; nothing to shrink"
        )
    targets = {violation.oracle for violation in baseline.violations}
    evaluator = _CandidateEvaluator(
        runner, targets, max_runs, executor=executor, job_options=job_options,
    )
    current, current_outcome = scenario, baseline

    # Pass 1: drop whole faults, greedily, to a fixpoint.
    changed = True
    while changed and not evaluator.exhausted:
        changed = False
        spec = current.fault_spec
        candidates = [
            current.replaced(fault_spec=spec[:i] + spec[i + 1:])
            for i in range(len(spec))
        ]
        accepted = evaluator.first_failing(candidates)
        if accepted is not None:
            current, current_outcome = accepted
            changed = True  # indices shifted; regroup and go again

    # Pass 2: narrow the surviving windows.
    changed = True
    while changed and not evaluator.exhausted:
        changed = False
        accepted = evaluator.first_failing(_window_candidates(current))
        if accepted is not None:
            current, current_outcome = accepted
            changed = True

    # Pass 3: halve the run duration while the failure still fits.
    accepted = evaluator.longest_failing_prefix(_duration_chain(current))
    if accepted is not None:
        current, current_outcome = accepted

    # Pass 4: shrink the cluster when no fault names a high replica.
    candidates = [
        current.replaced(n=smaller)
        for smaller in (4, 5)
        if smaller < current.n
        and not any(_max_node(e) >= smaller for e in current.fault_spec)
    ]
    accepted = evaluator.first_failing(candidates)
    if accepted is not None:
        current, current_outcome = accepted

    # Pass 5: thin the workload.
    accepted = evaluator.longest_failing_prefix(_rate_chain(current))
    if accepted is not None:
        current, current_outcome = accepted

    return ShrinkResult(
        original=scenario,
        minimized=current,
        outcome=current_outcome,
        runs=evaluator.runs,
    )


# -- repro artifacts -------------------------------------------------------


def write_artifact(
    path: str,
    outcome: FuzzOutcome,
    original: Optional[Scenario] = None,
    shrink_runs: Optional[int] = None,
    mutant: Optional[str] = None,
) -> dict:
    """Serialize a failing outcome (optionally shrunk) to a JSON file."""
    artifact = {
        "format": ARTIFACT_FORMAT,
        "scenario": outcome.scenario.to_dict(),
        "violations": [v.to_dict() for v in outcome.violations],
        "commit_hash": outcome.commit_hash,
        "committed_tx": outcome.committed_tx,
    }
    if original is not None:
        artifact["original_scenario"] = original.to_dict()
    if shrink_runs is not None:
        artifact["shrink_runs"] = shrink_runs
    if mutant is not None:
        artifact["mutant"] = mutant
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


def replay_artifact(path: str) -> FuzzOutcome:
    """Re-run the scenario stored in an artifact, oracles armed.

    Artifacts recorded from a mutation self-test name their mutant; the
    replay re-applies the same broken classes so the violation is
    reproducible from the file alone.
    """
    artifact = load_artifact(path)
    scenario = Scenario.from_dict(artifact["scenario"])
    mutant_name = artifact.get("mutant")
    if mutant_name is not None:
        from repro.verification.mutations import MUTANTS

        mutant = MUTANTS[mutant_name]
        return run_scenario(
            scenario,
            strict_availability=mutant.strict_availability,
            mempool_cls=mutant.mempool_cls,
            consensus_cls=mutant.consensus_cls,
        )
    return run_scenario(scenario)
