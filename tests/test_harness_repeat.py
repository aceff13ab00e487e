"""Tests for seed-replicated points, slow replicas and topology choice
in the harness."""

import dataclasses
import statistics

import pytest

from repro.config import ProtocolConfig
from repro.faults import FaultSchedule, Window
from repro.harness import ExperimentConfig, build_experiment
from repro.parallel import sweep


def small_config(**kwargs):
    protocol = ProtocolConfig(n=4, batch_bytes=512)
    return ExperimentConfig(
        protocol=protocol, rate_tps=500, duration=1.0, warmup=0.5, **kwargs
    )


class TestRunReplicated:
    """A data point replicated over seeds is a sweep over seed-replaced
    configs (the paper averages 3 runs per point)."""

    def replicated(self, seeds):
        return sweep(
            [dataclasses.replace(small_config(), seed=seed) for seed in seeds],
            jobs=1,
        )

    def test_aggregates_over_seeds(self):
        runs = self.replicated([1, 2, 3])
        assert [run.seed for run in runs] == [1, 2, 3]
        assert statistics.mean(run.throughput_tps for run in runs) > 0
        assert statistics.mean(run.latency_mean for run in runs) > 0
        assert statistics.stdev(run.throughput_tps for run in runs) >= 0

    def test_same_seed_identical(self):
        first, second = self.replicated([5, 5])
        assert first.throughput_tps == second.throughput_tps
        assert first.latency_mean == second.latency_mean


def slow(node, factor):
    """Replica ``node`` at ``factor`` of the LAN uplink for the whole run."""
    return FaultSchedule([
        Window("bandwidth", 0.0, factor=factor, nodes=(node,)),
    ])


class TestSlowReplica:
    def test_overrides_apply(self):
        config = small_config(faults=slow(1, 0.005))
        exp = build_experiment(config)
        assert exp.topology.bandwidth(1, now=0.0) == pytest.approx(5e6)
        assert exp.topology.bandwidth(0, now=0.0) == 1e9

    def test_slow_replica_still_commits(self):
        config = small_config(faults=slow(3, 0.002))
        exp = build_experiment(config)
        exp.sim.run_until(2.0)
        assert exp.metrics.committed_tx_total > 0


class TestGeoTopologyHarness:
    def test_invalid_topology_rejected(self):
        import pytest
        with pytest.raises(ValueError):
            small_config(topology_kind="moon")
