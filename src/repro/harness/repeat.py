"""Replicated runs: average an experiment over several seeds.

The paper reports each data point "as an average over 3 runs" (Fig. 7
uses 10). ``run_replicated`` re-runs an :class:`ExperimentConfig` with a
sequence of seeds and aggregates throughput/latency statistics. The
seed replicas run through :func:`repro.parallel.sweep` — in this
process at ``jobs=1``, across worker processes above that; the
aggregate is bit-for-bit the same either way because each replica is a
deterministic function of its config and the results are collected in
seed order.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.harness.config import ExperimentConfig
from repro.harness.result import RunResult


@dataclass
class ReplicatedResult:
    """Mean and spread over seed-replicated runs."""

    runs: list[RunResult]

    @property
    def throughput_mean(self) -> float:
        return _mean([run.throughput_tps for run in self.runs])

    @property
    def throughput_std(self) -> float:
        return _std([run.throughput_tps for run in self.runs])

    @property
    def latency_mean(self) -> float:
        return _mean([run.latency_mean for run in self.runs])

    @property
    def latency_std(self) -> float:
        return _std([run.latency_mean for run in self.runs])

    @property
    def view_changes_mean(self) -> float:
        return _mean([float(run.view_changes) for run in self.runs])

    @property
    def events_per_sec_mean(self) -> float:
        """Simulator event-loop rate averaged over the replicas."""
        return _mean([run.events_per_sec for run in self.runs])

    @property
    def commit_hashes(self) -> list[str]:
        """Per-run commit-sequence hashes, in seed order.

        The determinism fingerprint of the whole replicated point: two
        runs of the same config+seeds — serial or parallel — must agree
        on every entry.
        """
        return [run.commit_hash for run in self.runs]

    def __len__(self) -> int:
        return len(self.runs)


def run_replicated(
    config: ExperimentConfig,
    seeds: Sequence[int],
    jobs: int = 1,
    executor: Optional[object] = None,
) -> ReplicatedResult:
    """Run ``config`` once per seed and aggregate.

    ``jobs > 1`` (or an explicit ``executor``) runs the replicas in
    worker processes; results are still aggregated in seed order.
    """
    if not seeds:
        raise ValueError("need at least one seed")
    from repro.parallel import sweep

    configs = [dataclasses.replace(config, seed=seed) for seed in seeds]
    return ReplicatedResult(runs=sweep(configs, jobs=jobs, executor=executor))


def _mean(values: list[float]) -> float:
    return sum(values) / len(values)


def _std(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    mean = _mean(values)
    return math.sqrt(
        sum((value - mean) ** 2 for value in values) / (len(values) - 1)
    )
