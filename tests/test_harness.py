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

from tests.helpers import byzantine_schedule


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

    def test_byzantine_from_start_bounded_by_f(self):
        """At most f replicas may take a non-honest swap at t=0; an
        honest one, or a swap later on, does not count."""
        self.make(faults=byzantine_schedule(7, 2, "silent", [
            Window("swap", 0.0, nodes=(0,), behavior="honest"),
            Window("swap", 1.0, nodes=(1,), behavior="censor"),
        ]))
        with pytest.raises(ValueError, match="3 replicas .* f=2"):
            self.make(faults=byzantine_schedule(7, 3, "silent"))

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
        with pytest.raises(ValueError, match="bandwidth factor"):
            self.make(faults=FaultSchedule([
                Window("bandwidth", 0.0, factor=bandwidth, nodes=(2,)),
            ]))
        config = self.make(bandwidth_bps=5e6, faults=FaultSchedule([
            Window("bandwidth", 0.0, factor=0.4, nodes=(1,)),
        ]))
        topology = build_experiment(config).topology
        assert topology.bandwidth(0, now=0.0) == 5e6
        assert topology.bandwidth(1, now=0.0) == 2e6


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
            bandwidth_bps=100e6,
            faults=byzantine_schedule(16, 2, "silent", [
                Window("bandwidth", 0.0, factor=0.05, nodes=(3,)),
                Window("bandwidth", 0.0, factor=0.25, nodes=(11,)),
                Window("delay", 2.0, 3.5, base=0.1, jitter=0.05),
                Window("bandwidth", 2.0, 3.5, factor=0.15),
            ]),
            durability=DurabilityConfig(
                fsync="interval", checkpoint_interval=8,
            ),
            data_dir="/tmp/repro-recorded", workload_mode="aggregate",
            offered_clients=1000, attach_executor=True, label="recorded",
        ),
        "netbench": NetBenchConfig(
            n=16, msg_bytes=65_536, rate_per_node=40.0, duration=0.5,
            seed=3, one_way_delay=0.00012, label="recorded-netbench",
        ),
    }


#: Fields deleted since the recording: options nothing ever set (each a
#: constant beside its reader now, at the recorded value),
#: ``fluctuation``, a second spelling of a delay fault, ``data_limiter``,
#: the data-channel token bucket, deleted with it, ``fault`` /
#: ``fault_count``, a second spelling of t=0 behavior swaps, the
#: sharding layout's ``epoch``, a rebalance hook no run ever moved off 0,
#: and ``bandwidth_map``, a second spelling of t=0 bandwidth windows.
DELETED_KEYS = {
    "extra", "recovery_fetch_delay", "estimator_window",
    "estimator_percentile", "fluctuation",
    "fetch_max_targets", "fetch_backoff_factor", "fetch_backoff_max",
    "fetch_jitter", "fetch_max_rounds", "gossip_fanout", "pbft_window",
    "gc_retention", "busy_margin", "busy_slack", "byzantine",
    "fsync_interval", "snapshot_transfer", "shard_size", "data_limiter",
    "tick", "fault", "fault_count", "epoch", "bandwidth_map",
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
    an event-grammar schedule as its windows, a ``bandwidth_map`` entry
    as a ``bandwidth`` window on its node from t=0 that never heals (at
    its rate over the recorded ``bandwidth_bps``), a ``fluctuation``
    window as the ``delay`` window that replaced it plus its goodput
    factor's twin ``bandwidth`` window, ``fault`` on the ``fault_count``
    highest ids as a swap to it at t=0 each, and the ``sharded-stratus``
    mempool as ``stratus`` (its layout says it is sharded)."""
    kept = {
        key: without_deleted(value) if isinstance(value, dict) else value
        for key, value in data.items() if key not in DELETED_KEYS
    }
    if kept.get("mempool") == "sharded-stratus":
        kept["mempool"] = "stratus"
    if kept.get("faults") is not None:
        kept["faults"] = as_windows(kept["faults"])
    added = [
        Window("bandwidth", 0.0, factor=rate / data["bandwidth_bps"],
               nodes=(node,))
        for node, rate in sorted(
            (int(node), rate)
            for node, rate in (data.get("bandwidth_map") or {}).items()
        )
    ]
    window = data.get("fluctuation")
    if window is not None:
        start, end = window["start"], window["start"] + window["duration"]
        added += [
            Window("delay", start, end,
                   base=window["base"], jitter=window["jitter"]),
            Window("bandwidth", start, end,
                   factor=window["throughput_factor"]),
        ]
    if added:
        kept["faults"] = FaultSchedule([
            *FaultSchedule.from_spec(kept["faults"] or []).windows, *added,
        ]).to_spec()
    if data.get("fault_count"):
        n = data["protocol"]["n"]
        kept["faults"] = byzantine_schedule(
            n, data["fault_count"], data["fault"],
            FaultSchedule.from_spec(kept["faults"] or []).windows,
        ).to_spec()
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
        """A swap at t=0 is the replica's behavior from construction,
        before ``start``: no queue event applies it."""
        for fault, cls in [
            ("silent", SilentReplica),
            ("censor", CensoringSender),
            ("lying", LyingProxy),
        ]:
            config = ExperimentConfig(
                protocol=ProtocolConfig(n=7), rate_tps=0.0,
                faults=byzantine_schedule(7, 2, fault),
            )
            assert config.faults.timeline() == []
            exp = build_experiment(config)
            assert isinstance(exp.replicas[6].behavior, cls)
            assert isinstance(exp.replicas[0].behavior, HonestBehavior)

    def test_leader_set_excludes_byzantine(self):
        """Only a non-honest swap at t=0 keeps a replica out of the
        leader set, whatever its id; a later swap or an honest one
        does not."""
        config = ExperimentConfig(
            protocol=ProtocolConfig(n=7), rate_tps=0.0,
            faults=FaultSchedule([
                Window("swap", 0.0, nodes=(1,), behavior="silent"),
                Window("swap", 0.0, nodes=(6,), behavior="censor"),
                Window("swap", 0.0, nodes=(2,), behavior="honest"),
                Window("swap", 1.0, nodes=(3,), behavior="silent"),
            ]),
        )
        exp = build_experiment(config)
        assert exp.replicas[0].leader_set == (0, 2, 3, 4, 5)

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
