"""Unit tests for the experiment harness."""

import json
from pathlib import Path

import pytest

from repro.config import ProtocolConfig, ShardingConfig
from repro.durability import DurabilityConfig
from repro.faults import FaultSchedule, Window
from repro.harness import (
    ExperimentConfig,
    NetBenchConfig,
    PROTOCOL_PRESETS,
    build_experiment,
    chaos_schedule,
    run_experiment,
    run_netbench,
    tuned_protocol,
)
from repro.harness.report import format_series, format_table, mbps
from repro.replica.behavior import (
    CensoringSender,
    HonestBehavior,
    LyingProxy,
    SilentReplica,
)


class TestPresets:
    def test_all_acronyms_resolve(self):
        for preset in PROTOCOL_PRESETS:
            config = tuned_protocol(preset, n=16)
            assert config.n == 16

    def test_unknown_preset_rejected(self):
        with pytest.raises(ValueError):
            tuned_protocol("X-HS", n=16)

    def test_batch_size_rule(self):
        assert tuned_protocol("S-HS", 64).batch_bytes == 128 * 1024
        assert tuned_protocol("S-HS", 128).batch_bytes == 128 * 1024
        assert tuned_protocol("S-HS", 256).batch_bytes == 256 * 1024

    def test_overrides_win(self):
        config = tuned_protocol("S-HS", 64, batch_bytes=32 * 1024)
        assert config.batch_bytes == 32 * 1024

    def test_stratus_enables_load_balancing(self):
        assert tuned_protocol("S-HS", 16).load_balancing
        assert not tuned_protocol("SMP-HS", 16).load_balancing

    def test_tuning_follows_an_overridden_mempool_or_consensus(self):
        """``repro run --protocol S-HS --shards 4`` overrides the layout:
        what is derived from it must follow, or the preset's DLB default
        would reach a sharded run, which rejects it."""
        sharded = tuned_protocol("S-HS", 16, sharding=ShardingConfig())
        assert sharded == tuned_protocol("SS-HS", 16)
        assert not sharded.load_balancing
        one = tuned_protocol("SS-HS", 16, sharding=ShardingConfig(shards=1))
        assert one.load_balancing
        assert tuned_protocol("N-HS", 16, mempool="stratus").load_balancing
        assert (
            tuned_protocol("S-HS", 16, consensus="streamlet")
            == tuned_protocol("S-SL", 16)
        )
        assert (
            tuned_protocol("S-SL", 16, mempool="native").view_timeout
            == tuned_protocol("N-SL", 16).view_timeout
        )

    def test_native_wan_view_timeout_covers_proposal(self):
        config = tuned_protocol("N-HS", 64, topology_kind="wan")
        transmit = 63 * config.native_block_bytes * 8 / 100e6
        assert config.view_timeout >= transmit

    def test_mapping_matches_table_ii(self):
        assert PROTOCOL_PRESETS["N-HS"] == ("native", "hotstuff")
        assert PROTOCOL_PRESETS["SMP-HS-G"] == ("gossip", "hotstuff")
        assert PROTOCOL_PRESETS["S-SL"] == ("stratus", "streamlet")
        assert PROTOCOL_PRESETS["Narwhal"] == ("narwhal", "hotstuff")


class TestExperimentConfig:
    def make(self, **kwargs):
        protocol = kwargs.pop("protocol", ProtocolConfig(n=7))
        return ExperimentConfig(protocol=protocol, **kwargs)

    def test_byzantine_ids_are_highest(self):
        config = self.make(fault="silent", fault_count=2)
        assert config.byzantine_ids == frozenset({5, 6})

    def test_fault_count_bounded_by_f(self):
        with pytest.raises(ValueError):
            self.make(fault="silent", fault_count=3)  # f=2 for n=7

    def test_fault_requires_count(self):
        with pytest.raises(ValueError):
            self.make(fault="silent")
        with pytest.raises(ValueError):
            self.make(fault_count=1)

    def test_invalid_selector(self):
        with pytest.raises(ValueError):
            self.make(selector="pareto")

    def test_invalid_topology(self):
        with pytest.raises(ValueError):
            self.make(topology_kind="mars")

    def test_end_time(self):
        config = self.make(duration=5.0, warmup=2.0)
        assert config.end_time == 7.0

    @pytest.mark.parametrize("bandwidth", [0, 0.0, -1e6])
    def test_bandwidth_must_be_positive(self, bandwidth):
        """A zero override used to be read as "no override" and run at
        the topology default instead of failing."""
        with pytest.raises(ValueError, match="bandwidth_bps"):
            self.make(bandwidth_bps=bandwidth)
        with pytest.raises(ValueError, match=r"bandwidth_map\[2\]"):
            self.make(bandwidth_map={1: 5e6, 2: bandwidth})
        config = self.make(bandwidth_bps=5e6, bandwidth_map={1: 2e6})
        topology = build_experiment(config).topology
        assert topology.bandwidth(0) == 5e6
        assert topology.bandwidth(1) == 2e6


def recorded_configs():
    """The three configs whose ``to_dict()`` was recorded at af5a57f,
    before the codec walked ``dataclasses.fields``."""
    return {
        "shs-wan-skew-crash-16": ExperimentConfig(
            tuned_protocol(
                "S-HS", 16, "wan", batch_bytes=16_384, batch_timeout=0.1,
                lb_samples=3,
            ),
            topology_kind="wan", link_model="fair-share", selector="zipf1",
            rate_tps=30_000, faults=chaos_schedule("crash-restart", 16),
            warmup=1.0, duration=9.0, seed=7,
        ),
        "sshs-every-optional-part": ExperimentConfig(
            tuned_protocol(
                "SS-HS", 16, "lan", sharding=ShardingConfig(shards=4),
            ),
            bandwidth_bps=100e6, bandwidth_map={3: 5e6, 11: 2.5e7},
            faults=FaultSchedule([Window(
                "delay", 2.0, 3.5, base=0.1, jitter=0.05,
                bandwidth_factor=0.15,
            )]),
            durability=DurabilityConfig(
                fsync="interval", checkpoint_interval=8,
            ),
            data_dir="/tmp/repro-recorded", workload_mode="aggregate",
            offered_clients=1000, fault="silent", fault_count=2,
            attach_executor=True, label="recorded",
        ),
        "netbench": NetBenchConfig(
            n=16, msg_bytes=65_536, rate_per_node=40.0, duration=0.5,
            seed=3, one_way_delay=0.00012, label="recorded-netbench",
        ),
    }


#: Fields deleted since the recording: options nothing ever set (each a
#: constant beside its reader now, at the recorded value),
#: ``fluctuation``, a second spelling of a delay fault, and
#: ``data_limiter``, the data-channel token bucket, deleted with it.
DELETED_KEYS = {
    "extra", "recovery_fetch_delay", "estimator_window",
    "estimator_percentile", "fluctuation",
    "fetch_max_targets", "fetch_backoff_factor", "fetch_backoff_max",
    "fetch_jitter", "fetch_max_rounds", "gossip_fanout", "pbft_window",
    "gc_retention", "busy_margin", "busy_slack", "byzantine",
    "fsync_interval", "snapshot_transfer", "shard_size", "data_limiter",
    "tick",
}


def as_windows(events):
    """A recorded event-grammar schedule as its window entries: a
    crash ends at its node's next restart, every other event at
    ``at + duration``."""
    windows = []
    for event in events:
        entry = {"kind": event["event"], "start": event["at"]}
        if event["event"] == "restart":
            crash = next(
                w for w in windows
                if w["kind"] == "crash" and w["nodes"] == [event["node"]]
                and "end" not in w
            )
            crash["end"] = event["at"]
            continue
        if "duration" in event:
            entry["end"] = event["at"] + event["duration"]
        if "node" in event:
            entry["nodes"] = [event["node"]]
        entry.update(
            (key, value) for key, value in event.items()
            if key not in ("event", "at", "duration", "node")
        )
        windows.append(entry)
    return windows


def without_deleted(data):
    """The recorded dict as today's codec spells it: deleted keys gone,
    an event-grammar schedule as its windows, a ``fluctuation`` window
    as the one-``delay``-window schedule that replaced it, and the
    ``sharded-stratus`` mempool as ``stratus`` (its layout says it is
    sharded)."""
    kept = {
        key: without_deleted(value) if isinstance(value, dict) else value
        for key, value in data.items() if key not in DELETED_KEYS
    }
    if kept.get("mempool") == "sharded-stratus":
        kept["mempool"] = "stratus"
    if kept.get("faults") is not None:
        kept["faults"] = as_windows(kept["faults"])
    window = data.get("fluctuation")
    if window is not None:
        assert kept["faults"] is None
        kept["faults"] = FaultSchedule([Window(
            "delay", window["start"], window["start"] + window["duration"],
            base=window["base"], jitter=window["jitter"],
            bandwidth_factor=window["throughput_factor"],
        )]).to_spec()
    return kept


class TestConfigCodec:
    @pytest.mark.parametrize("name", sorted(recorded_configs()))
    def test_to_dict_equals_the_recorded_parent_dict(self, name):
        recorded = json.loads(
            (Path(__file__).parent / "recorded_config_dicts.json").read_text()
        )[name]
        config = recorded_configs()[name]
        emitted = json.loads(json.dumps(config.to_dict()))
        assert emitted == without_deleted(recorded)
        assert type(config).from_dict(emitted) == config


class TestBuildExperiment:
    def test_wiring(self):
        config = ExperimentConfig(
            protocol=ProtocolConfig(n=4), rate_tps=0.0,
        )
        exp = build_experiment(config)
        assert len(exp.replicas) == 4
        for replica in exp.replicas:
            assert replica.mempool is not None
            assert replica.consensus is not None
            assert isinstance(replica.behavior, HonestBehavior)

    def test_behaviors_assigned(self):
        for fault, cls in [
            ("silent", SilentReplica),
            ("censor", CensoringSender),
            ("lying", LyingProxy),
        ]:
            config = ExperimentConfig(
                protocol=ProtocolConfig(n=7), rate_tps=0.0,
                fault=fault, fault_count=2,
            )
            exp = build_experiment(config)
            assert isinstance(exp.replicas[6].behavior, cls)
            assert isinstance(exp.replicas[0].behavior, HonestBehavior)

    def test_leader_set_excludes_byzantine(self):
        config = ExperimentConfig(
            protocol=ProtocolConfig(n=7), rate_tps=0.0,
            fault="silent", fault_count=2,
        )
        exp = build_experiment(config)
        assert exp.replicas[0].leader_set == (0, 1, 2, 3, 4)

    def test_executor_attachment(self):
        config = ExperimentConfig(
            protocol=ProtocolConfig(n=4), rate_tps=0.0,
            attach_executor=True,
        )
        exp = build_experiment(config)
        assert exp.replicas[0].executor is not None

    def test_run_experiment_produces_result(self):
        protocol = ProtocolConfig(
            n=4, batch_bytes=512, empty_view_delay=0.002,
        )
        result = run_experiment(ExperimentConfig(
            protocol=protocol, rate_tps=200, duration=2.0, warmup=0.5,
            label="smoke",
        ))
        assert result.label == "smoke"
        assert result.throughput_tps > 0
        assert result.committed_tx > 0
        assert result.emitted_tx > 0

    def test_seed_reproducibility(self):
        def run(seed):
            protocol = ProtocolConfig(n=4, batch_bytes=512)
            return run_experiment(ExperimentConfig(
                protocol=protocol, rate_tps=500, duration=1.5,
                warmup=0.5, seed=seed,
            ))

        first, second, different = run(5), run(5), run(6)
        assert first.throughput_tps == second.throughput_tps
        assert first.latency_mean == second.latency_mean
        # A different seed perturbs jitter and thus latencies.
        assert different.latency_mean != first.latency_mean


class TestNetBench:
    def test_netbench_run_is_deterministic(self):
        config = NetBenchConfig(n=8, rate_per_node=50.0, duration=0.3, seed=11)
        first = run_netbench(config)
        second = run_netbench(config)
        assert first.delivered > 0
        assert first.events_processed > 0
        assert first.fingerprint == second.fingerprint
        assert first.delivered == second.delivered
        # The fingerprint is sensitive to the workload, not just the seed.
        other = run_netbench(
            NetBenchConfig(n=8, rate_per_node=60.0, duration=0.3, seed=11)
        )
        assert other.fingerprint != first.fingerprint


class TestReport:
    def test_format_table_alignment(self):
        text = format_table(
            ["proto", "tput"],
            [["N-HS", 1234.5], ["S-HS", 56789.0]],
            title="Scalability",
        )
        lines = text.splitlines()
        assert lines[0] == "Scalability"
        assert "proto" in lines[1]
        assert "1,234" in text or "1234" in text

    def test_format_series(self):
        text = format_series("tput", [(16, 100.0), (32, 90.0)],
                             x_label="n", y_label="tps")
        assert "tput" in text
        assert text.count("\n") == 2

    def test_mbps(self):
        assert mbps(1_000_000, 8.0) == pytest.approx(1.0)
        with pytest.raises(ValueError):
            mbps(1, 0)
