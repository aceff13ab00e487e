"""Tests for the process-pool executor and its integrations.

The determinism tests are the hash gate the whole package hangs on: a
parallel run must be bit-for-bit the serial run, for fuzz sweeps,
seed-replicated points, and benchmark grid cells alike. The unit tests
exercise the executor's failure plumbing (crash isolation, early
close) through ``tests.helpers.probe``, which needs no simulator.
"""

import dataclasses
import json
import math
import os

import pytest

from repro.config import ProtocolConfig
from repro.faults import FaultSchedule, Window
from repro.harness import (
    ExperimentConfig,
    RunResult,
    run_experiment,
)
from repro.parallel import ParallelExecutor, run_config, sweep
from repro.verification import ScenarioFuzzer, Violation
from tests.helpers import probe


def small_config(**kwargs):
    kwargs.setdefault("label", "par-test")
    protocol = ProtocolConfig(n=4, batch_bytes=512)
    return ExperimentConfig(
        protocol=protocol, rate_tps=500, duration=1.0, warmup=0.5, **kwargs
    )


def seed_replicas(seeds):
    """One data point replicated over seeds (the paper averages 3 runs)."""
    return [dataclasses.replace(small_config(), seed=seed) for seed in seeds]


def run_probes(jobs, *commands):
    return list(ParallelExecutor(jobs=jobs).imap(probe, commands))


def deterministic_dict(result: RunResult) -> dict:
    """Everything but host-side timing, which differs run to run."""
    data = result.to_dict()
    data.pop("wall_clock_s")
    return data


class TestExecutorUnit:
    def test_results_in_submission_order(self):
        # The first job sleeps past the second's finish; order must hold.
        results = run_probes(
            2, ("sleep", 0.5), ("echo", "fast"), ("echo", "also-fast"),
        )
        assert [job.index for job in results] == [0, 1, 2]
        assert all(job.ok for job in results)
        assert results[1].value[:2] == ("echo", "fast")

    def test_clean_exception_not_retried(self):
        [job] = run_probes(2, ("raise", "boom"))
        assert not job.ok
        assert "boom" in job.error
        assert not job.crashed

    def test_crash_is_isolated(self):
        results = run_probes(
            2, ("echo", "before"), ("exit", 3), ("echo", "after"),
        )
        assert results[0].ok and results[2].ok  # neighbors unaffected
        dead = results[1]
        assert not dead.ok
        assert dead.crashed
        assert "exited with code 3" in dead.error

    def test_serial_path_runs_in_process(self):
        ok, bad = run_probes(1, ("echo", "hi"), ("raise", "boom"))
        assert ok.value[2] == os.getpid()  # no subprocess at jobs=1
        assert not bad.ok and "RuntimeError" in bad.error

    def test_early_close_cancels_stragglers(self):
        executor = ParallelExecutor(jobs=2)
        iterator = executor.imap(probe, [("echo", "first"), ("sleep", 60)])
        assert next(iterator).ok
        iterator.close()  # must terminate the sleeper, not hang

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            ParallelExecutor(jobs=0)


class TestJobSpecs:
    """What crosses the process boundary: a config dict in, a result
    dict out."""

    def test_summary_round_trips_with_int_percentiles(self):
        result = run_experiment(small_config())
        clone = RunResult.from_dict(json.loads(json.dumps(result.to_dict())))
        assert clone == result
        assert all(isinstance(p, int) for p in clone.latency_percentiles)
        assert clone.latency_percentile(99) >= clone.latency_percentile(50)
        # The digest stayed behind: only p50/p95/p99 are carried, while
        # the in-process result still answers any percentile.
        assert (clone.metrics, clone.network, clone.latency) == (None,) * 3
        with pytest.raises(ValueError):
            clone.latency_percentile(75)
        assert result.latency_percentile(75) >= result.latency_percentile(50)

    def test_summary_answers_only_the_carried_percentiles(self):
        """A fractional percentile is not rounded down to a carried one."""
        clone = RunResult.from_dict(run_experiment(small_config()).to_dict())
        assert clone.latency_percentile(99.0) == clone.latency_percentiles[99]
        for p in (99.9, 50.5, 90):
            with pytest.raises(ValueError, match="only carries"):
                clone.latency_percentile(p)

    def test_summary_matches_result(self):
        """What a worker ships is what the run measured in-process."""
        result = run_experiment(small_config())
        shipped = run_config((small_config().to_dict(), False, None))
        clone = RunResult.from_dict(json.loads(json.dumps(shipped)))
        assert deterministic_dict(clone) == deterministic_dict(result)
        assert clone.commit_hash == result.commit_hash
        assert clone.latency_percentile(99) == result.latency.percentile(99)

    def test_violations_round_trip(self):
        """A failing fuzz case's verdict crosses the worker boundary as
        ``RunResult.violations``."""
        result = run_experiment(small_config())
        result.violations = [Violation(
            "liveness", "stalled", 4.1, "next commit took 2.04s", node=None,
            details={"window": "loss", "bound": 2.0},
        )]
        clone = RunResult.from_dict(json.loads(json.dumps(result.to_dict())))
        assert clone.violations == result.violations

    def test_never_healed_crash_round_trips_without_infinity(self):
        """``inf`` ("never") is ``None`` in JSON and ``inf`` again after."""
        schedule = FaultSchedule([Window("crash", 0.8, nodes=(3,))])
        result = run_experiment(small_config(faults=schedule))
        (window,) = result.fault_report
        assert window["commit_gap"] == math.inf
        text = json.dumps(result.to_dict())
        assert "Infinity" not in text
        clone = RunResult.from_dict(json.loads(text))
        assert clone == result
        assert clone.fault_report[0]["time_to_recover"] == math.inf
        assert clone.fault_report[0]["nodes"] == (3,)


class TestDeterminism:
    """jobs=1 and jobs=4 must be bit-for-bit equal, per integration."""

    def test_fuzz_sweep_hashes(self):
        serial = ScenarioFuzzer(7).run(4)
        parallel = ScenarioFuzzer(7).run(4, jobs=4)
        assert [o.commit_hash for o in serial] == [
            o.commit_hash for o in parallel
        ]
        assert [deterministic_dict(o) for o in serial] == [
            deterministic_dict(o) for o in parallel
        ]

    def test_replicated_run_hashes(self):
        replicas = seed_replicas([1, 2, 3])
        serial = sweep(replicas, jobs=1)
        parallel = sweep(replicas, jobs=4)
        for attribute in (
            "commit_hash", "throughput_tps", "latency_mean", "view_changes",
        ):
            assert [getattr(run, attribute) for run in serial] == [
                getattr(run, attribute) for run in parallel
            ]

    def test_grid_cell_summaries(self):
        configs = [
            small_config(),
            dataclasses.replace(small_config(), seed=9, label="cell-2"),
        ]
        serial = sweep(configs, jobs=1)
        parallel = sweep(configs, jobs=4)
        assert [deterministic_dict(s) for s in serial] == [
            deterministic_dict(p) for p in parallel
        ]

    def test_fuzz_stop_on_failure_prefix(self):
        """Parallel stop-on-failure returns the same contiguous prefix."""
        fuzzer = ScenarioFuzzer(7)
        serial = fuzzer.run(4, stop_on_failure=True)
        parallel = ScenarioFuzzer(7).run(4, stop_on_failure=True, jobs=4)
        assert [o.label for o in serial] == [o.label for o in parallel]


class TestReplicatedAggregates:
    def test_events_per_sec_and_hashes_aggregated(self):
        runs = sweep(seed_replicas([1, 2]), jobs=1)
        assert all(run.events_per_sec > 0 for run in runs)
        hashes = [run.commit_hash for run in runs]
        assert all(len(h) == 64 for h in hashes)
        # Different seeds diverge; same seed agrees.
        assert hashes[0] != hashes[1]
        again = sweep(seed_replicas([1, 2]), jobs=1)
        assert [run.commit_hash for run in again] == hashes
