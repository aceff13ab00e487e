"""Unit tests for the metrics hub and weighted digest."""

import pytest

from repro.harness import (
    ExperimentConfig,
    build_experiment,
    chaos_schedule,
    tuned_protocol,
)
from repro.live.orchestrator import _Incarnation, _read_events
from repro.live.replica_proc import LiveRecorder
from repro.live.verify import replay_events
from repro.metrics import MetricsHub, WeightedDigest
from repro.sim.engine import Simulator

from tests.helpers import STRATUS_KINDS, stratus_cluster


class TestWeightedDigest:
    def test_empty(self):
        digest = WeightedDigest()
        assert digest.mean == 0.0
        assert digest.percentile(50) == 0.0
        assert len(digest) == 0

    def test_mean_weighted(self):
        digest = WeightedDigest()
        digest.add(1.0, weight=1.0)
        digest.add(2.0, weight=3.0)
        assert digest.mean == pytest.approx(1.75)

    def test_percentiles(self):
        digest = WeightedDigest()
        for value in range(1, 101):
            digest.add(float(value))
        assert digest.percentile(50) == pytest.approx(50.0)
        assert digest.percentile(95) == pytest.approx(95.0)
        assert digest.percentile(100) == pytest.approx(100.0)

    def test_weight_shifts_percentile(self):
        digest = WeightedDigest()
        digest.add(1.0, weight=99.0)
        digest.add(100.0, weight=1.0)
        assert digest.percentile(50) == pytest.approx(1.0)
        assert digest.percentile(100) == pytest.approx(100.0)

    def test_invalid_weight(self):
        with pytest.raises(ValueError):
            WeightedDigest().add(1.0, weight=0.0)

    def test_invalid_percentile(self):
        with pytest.raises(ValueError):
            WeightedDigest().percentile(101)


class TestMetricsHub:
    def make_hub(self):
        sim = Simulator()
        return sim, MetricsHub(sim)

    def test_commit_recorded(self):
        sim, hub = self.make_hub()
        ok = hub.record_commit(
            block_id=1, tx_count=100, microblock_count=2,
            latencies=[(0.5, 50.0), (0.7, 50.0)], commit_time=1.0,
        )
        assert ok
        assert hub.committed_tx_total == 100
        assert hub.latency_stats().mean == pytest.approx(0.6)

    def test_duplicate_commit_ignored(self):
        sim, hub = self.make_hub()
        hub.record_commit(1, 100, 1, [(0.5, 100.0)], commit_time=1.0)
        ok = hub.record_commit(1, 999, 9, [(9.9, 999.0)], commit_time=2.0)
        assert not ok
        assert hub.committed_tx_total == 100

    def test_throughput_windowed(self):
        sim, hub = self.make_hub()
        hub.record_commit(1, 100, 1, [], commit_time=0.5)
        hub.record_commit(2, 200, 1, [], commit_time=1.5)
        hub.record_commit(3, 400, 1, [], commit_time=2.5)
        assert hub.throughput_tps(1.0, 3.0) == pytest.approx(300.0)
        assert hub.throughput_tps(0.0, 1.0) == pytest.approx(100.0)

    def test_throughput_series_buckets(self):
        sim, hub = self.make_hub()
        hub.record_commit(1, 100, 1, [], commit_time=0.2)
        hub.record_commit(2, 300, 1, [], commit_time=1.7)
        series = hub.throughput_series(0.0, 2.0, bucket=1.0)
        assert series == [(0.0, 100.0), (1.0, 300.0)]

    def test_latency_stats_windowed(self):
        sim, hub = self.make_hub()
        hub.record_commit(1, 10, 1, [(0.1, 10.0)], commit_time=0.5)
        hub.record_commit(2, 10, 1, [(0.9, 10.0)], commit_time=5.0)
        early = hub.latency_stats(0.0, 1.0)
        assert early.mean == pytest.approx(0.1)

    def test_view_changes_windowed(self):
        sim, hub = self.make_hub()
        sim.schedule(1.0, lambda: hub.record_view_change(0, 3))
        sim.schedule(4.0, lambda: hub.record_view_change(1, 4))
        sim.run()
        assert hub.view_change_count == 2
        assert hub.view_changes_in(0.0, 2.0) == 1

    def test_negative_latency_clamped(self):
        sim, hub = self.make_hub()
        hub.record_commit(1, 10, 1, [(-0.5, 10.0)], commit_time=0.0)
        assert hub.latency_stats().mean == 0.0

    def test_commits_sorted_by_time(self):
        sim, hub = self.make_hub()
        hub.record_commit(2, 1, 1, [], commit_time=2.0)
        hub.record_commit(1, 1, 1, [], commit_time=1.0)
        assert [rec.block_id for rec in hub.commits] == [1, 2]

    def test_counters(self):
        sim, hub = self.make_hub()
        hub.record_forward()
        hub.record_fetch()
        hub.record_fetch()
        hub.record_fetch_abandoned()
        hub.record_stable_time(0.25)
        assert hub.forwarded_microblocks == 1
        assert hub.fetch_count == 2
        assert hub.fetch_abandoned_count == 1
        assert hub.stable_times.mean == pytest.approx(0.25)

    def test_bad_window_rejected(self):
        sim, hub = self.make_hub()
        with pytest.raises(ValueError):
            hub.throughput_tps(2.0, 1.0)


class TestDigestEdgeCases:
    def test_p0_is_minimum_and_p100_is_maximum(self):
        digest = WeightedDigest()
        for value in (5.0, 1.0, 3.0):
            digest.add(value, 2.0)
        assert digest.percentile(0) == pytest.approx(1.0)
        assert digest.percentile(100) == pytest.approx(5.0)

    def test_single_sample_every_percentile(self):
        digest = WeightedDigest()
        digest.add(0.42, 7.0)
        for p in (0, 1, 50, 99, 100):
            assert digest.percentile(p) == pytest.approx(0.42)

    def test_zero_total_weight_reports_zero(self):
        digest = WeightedDigest()
        assert digest.percentile(50) == 0.0
        assert digest.mean == 0.0
        assert digest.percentile(0) == digest.percentile(100) == 0.0

    def test_cache_refreshes_after_interleaved_adds(self):
        """Queries between adds must see every sample (dirty-flag path)."""
        digest = WeightedDigest()
        digest.add(1.0, 1.0)
        assert digest.percentile(100) == pytest.approx(1.0)
        digest.add(9.0, 1.0)
        assert digest.percentile(100) == pytest.approx(9.0)
        assert digest.percentile(0) == pytest.approx(1.0)

    def test_matches_linear_scan_reference(self):
        import random

        rng = random.Random(3)
        digest = WeightedDigest()
        samples = []
        for _ in range(100):
            value = rng.uniform(0, 10)
            weight = rng.uniform(0.1, 5.0)
            digest.add(value, weight)
            samples.append((value, weight))
        total = sum(weight for _, weight in samples)
        for p in (0, 10, 25, 50, 75, 90, 99, 100):
            ordered = sorted(samples)
            target = total * (p / 100.0)
            cumulative = 0.0
            expected = ordered[-1][0]
            for value, weight in ordered:
                cumulative += weight
                if cumulative >= target:
                    expected = value
                    break
            assert digest.percentile(p) == pytest.approx(expected)


class TestIncrementalCommitOrder:
    def make_hub(self):
        sim = Simulator()
        return sim, MetricsHub(sim)

    def test_order_maintained_across_interleaved_queries(self):
        sim, hub = self.make_hub()
        hub.record_commit(1, 10, 1, [], commit_time=1.0)
        assert [rec.block_id for rec in hub.commits] == [1]
        hub.record_commit(3, 10, 1, [], commit_time=3.0)
        hub.record_commit(2, 10, 1, [], commit_time=2.0)
        assert [rec.block_id for rec in hub.commits] == [1, 2, 3]
        assert hub.committed_tx_total == 30

    def test_ties_keep_arrival_order(self):
        sim, hub = self.make_hub()
        hub.record_commit(7, 1, 1, [], commit_time=5.0)
        hub.record_commit(8, 1, 1, [], commit_time=1.0)
        hub.record_commit(9, 1, 1, [], commit_time=1.0)
        assert [rec.block_id for rec in hub.commits] == [8, 9, 7]

    def test_windowed_queries_after_out_of_order_insert(self):
        sim, hub = self.make_hub()
        hub.record_commit(1, 100, 1, [], commit_time=2.5)
        hub.record_commit(2, 200, 1, [], commit_time=0.5)
        assert hub.throughput_tps(0.0, 1.0) == pytest.approx(200.0)
        assert hub.throughput_tps(2.0, 3.0) == pytest.approx(100.0)


class EveryReport:
    """Observer feeding a reference hub every replica's report of every
    block, at the moment that replica's mempool reports: from the
    resolved bodies, or from the certificates at the commit (sharded).
    The hub keeps the first, as it did when every replica reported."""

    def __init__(self, hub, from_certificates):
        self.hub = hub
        self.from_certificates = from_certificates

    def on_microblock_created(self, replica, microblock):
        pass

    def on_local_commit(self, replica, proposal):
        if self.from_certificates:
            certs = [entry.cert for entry in proposal.payload.entries]
            self.report(proposal.block_id, replica.sim.now, certs)

    def on_block_resolved(self, replica, block):
        if not self.from_certificates:
            microblocks = list(block.microblocks.values())
            self.report(block.block_id, block.committed_at, microblocks)

    def report(self, block_id, commit_time, parts):
        self.hub.record_commit(
            block_id=block_id,
            tx_count=sum(part.tx_count for part in parts),
            microblock_count=len(parts),
            latencies=[
                (commit_time - part.mean_arrival, float(part.tx_count))
                for part in parts
            ],
            commit_time=commit_time,
        )


@pytest.mark.parametrize("kind", STRATUS_KINDS)
def test_the_hub_hears_each_committed_block_once(kind):
    exp = stratus_cluster(kind, rate_tps=2000.0, duration=2.0)
    hub = MetricsHub(exp.sim)
    reference = MetricsHub(exp.sim)
    reported = []
    record = hub.record_commit

    def spy(**report):
        reported.append(report["block_id"])
        return record(**report)

    hub.record_commit = spy
    for replica in exp.replicas:
        replica.metrics = hub
        replica.observer = EveryReport(reference, kind == "sharded-stratus")
    exp.sim.run_until(2.0)
    assert sorted(reported) == sorted(rec.block_id for rec in hub.commits)
    assert len(reported) > 10
    assert hub.commits == reference.commits
    assert hub.committed_tx_total == reference.committed_tx_total > 0
    for p in (0, 50, 99, 100):
        assert (hub.latency_stats().percentile(p)
                == reference.latency_stats().percentile(p))


def _skewed_crash_cell():
    """n=8 over WAN links with Zipf clients and a crash-restart: view
    changes, fetches and DLB forwards all happen."""
    return ExperimentConfig(
        tuned_protocol(
            "S-HS", 8, "wan", batch_bytes=16_384, batch_timeout=0.1,
            lb_samples=3,
        ),
        topology_kind="wan", link_model="fair-share", selector="zipf1",
        rate_tps=40_000, faults=chaos_schedule("crash-restart", 8),
        warmup=1.0, duration=4.0, seed=7,
    )


def test_replayed_event_logs_rebuild_the_simulators_hub(tmp_path):
    """A simulated run wired as live replicas are, each replica its own
    ``LiveRecorder`` hub and observer, replays into the hub the
    simulator itself keeps for the same run."""
    reference = build_experiment(_skewed_crash_cell())
    reference.sim.run_until(reference.config.end_time)
    expected = reference.metrics

    exp = build_experiment(_skewed_crash_cell())
    logs = [tmp_path / f"{replica.node_id}.jsonl" for replica in exp.replicas]
    for replica, log in zip(exp.replicas, logs):
        recorder = LiveRecorder(exp.sim, replica.node_id, str(log))
        replica.metrics = replica.observer = recorder
    exp.sim.run_until(exp.config.end_time)
    for replica in exp.replicas:
        replica.metrics.close({"node_id": replica.node_id, "generation": 0})
    failures = []
    events, rows = _read_events([
        _Incarnation(replica.node_id, 0, None, str(log))
        for replica, log in zip(exp.replicas, logs)
    ], failures)
    assert failures == [] and len(rows) == len(exp.replicas)
    hub, violations = replay_events(
        events, exp.config, exp.generator.emitted_tx_count
    )

    assert violations == []
    assert hub.commits == expected.commits
    assert hub.committed_tx_total == expected.committed_tx_total > 0
    for p in (0, 50, 99, 100):
        assert (hub.latency_stats().percentile(p)
                == expected.latency_stats().percentile(p))
    assert hub.view_change_count == expected.view_change_count > 0
    assert hub.fetch_count == expected.fetch_count > 0
    assert hub.forwarded_microblocks == expected.forwarded_microblocks > 0
    assert hub.fault_report() == expected.fault_report()
