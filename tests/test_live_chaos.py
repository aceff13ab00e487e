"""Live chaos tests: shaping-hook units, backpressure/reconnect units,
and the kill/respawn + partition/heal smoke runs the acceptance criteria
demand (a SIGKILLed replica must rejoin over TCP and commit again)."""

import asyncio
import random

import pytest

from repro.config import ProtocolConfig
from repro.harness.config import ExperimentConfig
from repro.harness.presets import chaos_schedule, resolve_fault_spec
from repro.faults import FaultSchedule, LinkFaults, Window
from repro.live.chaos import LinkShaper, LIVE_LINK_BANDWIDTH_BPS
from repro.live.network import DATA_QUEUE_CAP, LiveNetwork, _PeerLink
from repro.live import orchestrator
from repro.live.orchestrator import LiveConfig, allocate_ports, run_live
from repro.live.scheduler import RealtimeScheduler
from repro.live.verify import replay_events
from repro.mempool.base import MessageKinds
from repro.sim.engine import Simulator
from repro.sim.interfaces import Channel, Envelope
from repro.sim.network import Network, NetworkStats
from repro.sim.rng import RngRegistry
from repro.sim.topology import Topology


class _Clock:
    def __init__(self, now: float = 0.0) -> None:
        self.now = now


# -- LinkShaper units --------------------------------------------------------

def _shaper(windows, node_id=0, seed=7, clock=None):
    return LinkShaper(
        node_id, windows, clock or _Clock(), random.Random(seed)
    )


def test_shaper_partition_drops_cross_group_frames_only():
    windows = [Window("partition", 1.0, 3.0, groups=((0, 1),))]
    clock = _Clock(1.5)
    shaper = _shaper(windows, clock=clock)
    # 0 and 1 share a group; 2 and 3 fall into the implicit rest group.
    assert not shaper.drops(0, 1, MessageKinds.PROPOSAL, Channel.CONSENSUS)
    assert not shaper.drops(2, 3, MessageKinds.PROPOSAL, Channel.CONSENSUS)
    assert shaper.drops(0, 2, MessageKinds.PROPOSAL, Channel.CONSENSUS)
    assert shaper.drops(3, 1, MessageKinds.PROPOSAL, Channel.CONSENSUS)
    assert shaper.frames_shed == 2
    # Outside the window nothing drops.
    clock.now = 3.5
    assert not shaper.drops(0, 2, MessageKinds.PROPOSAL, Channel.CONSENSUS)


def test_shaper_heal_closes_the_partition_window():
    windows = [Window("partition", 1.0, 4.0, groups=((0, 1),))]
    clock = _Clock(2.0)
    shaper = _shaper(windows, clock=clock)
    assert shaper.drops(0, 2, MessageKinds.VOTE, Channel.CONSENSUS)
    clock.now = 4.5
    assert not shaper.drops(0, 2, MessageKinds.VOTE, Channel.CONSENSUS)


def test_shaper_loss_respects_channel_filter_and_seed():
    windows = [Window("loss", 0.0, 10.0, rate=0.5, channel="data")]

    def run(seed):
        shaper = _shaper(windows, seed=seed, clock=_Clock(1.0))
        return [
            shaper.drops(0, 1, MessageKinds.MICROBLOCK, Channel.DATA)
            for _ in range(64)
        ]

    # Consensus frames never match a data-channel loss window.
    shaper = _shaper(windows, clock=_Clock(1.0))
    assert not any(
        shaper.drops(0, 1, MessageKinds.VOTE, Channel.CONSENSUS)
        for _ in range(64)
    )
    assert shaper.frames_shed == 0
    # Same seed, same coin flips — the determinism the respawn-seeded
    # rng (seed, generation, node) relies on. Different seeds diverge.
    first, second = run(31), run(31)
    assert first == second
    assert any(first)
    assert not all(first)
    assert run(32) != first


def test_shaper_delay_window_samples_base_plus_jitter():
    # Pure latency spike: with no bandwidth window the token bucket
    # stays out, so the sampled hold time is exactly base ± jitter.
    windows = [Window("delay", 1.0, 2.0, base=0.1, jitter=0.05)]
    clock = _Clock(1.5)
    shaper = _shaper(windows, clock=clock)
    for _ in range(32):
        delay = shaper.write_delay(1, 1024, Channel.DATA)
        assert 0.05 <= delay <= 0.15
    clock.now = 2.5
    assert shaper.write_delay(1, 1024, Channel.DATA) == 0.0


def test_shaper_bandwidth_squeeze_throttles_via_token_bucket():
    windows = [Window("bandwidth", 0.0, 100.0, factor=0.1, nodes=(0,))]
    clock = _Clock(1.0)
    shaper = _shaper(windows, node_id=0, clock=clock)
    rate = LIVE_LINK_BANDWIDTH_BPS * 0.1 / 8.0  # shaped bytes/s
    # The first burst's worth passes free; past it, hold time is the
    # token deficit over the shaped rate.
    assert shaper.write_delay(1, 256 * 1024, Channel.DATA) == 0.0
    delay = shaper.write_delay(1, 1024 * 1024, Channel.DATA)
    assert delay == pytest.approx(1024 * 1024 / rate, rel=0.01)
    # A squeeze scoped to node 0 leaves other nodes unshaped.
    other = _shaper(windows, node_id=2, clock=clock)
    assert other.write_delay(1, 1024 * 1024, Channel.DATA) == 0.0


def test_shaper_throttles_a_slow_replica_from_the_first_frame():
    """A slow replica is a squeeze on it from t=0 that never heals: its
    egress is shaped from the first frame on, and stays shaped."""
    windows = [Window("bandwidth", 0.0, factor=0.25, nodes=(1,))]
    clock = _Clock(0.0)
    slow = _shaper(windows, node_id=1, clock=clock)
    rate = LIVE_LINK_BANDWIDTH_BPS * 0.25 / 8.0
    size = 512 * 1024  # twice the burst: the first frame already waits
    assert slow.write_delay(0, size, Channel.DATA) == pytest.approx(
        (size - 256 * 1024) / rate
    )
    clock.now = 1e6
    assert slow.write_delay(0, 2 * size, Channel.DATA) > 0.0
    fast = _shaper(windows, node_id=0, clock=_Clock(0.0))
    assert fast.write_delay(1, size, Channel.DATA) == 0.0


# -- one evaluator under both backends ---------------------------------------

def _sim_network(windows, rng, now):
    """The simulator's side of the same windows: a network whose
    topology holds the evaluator, with the clock advanced to ``now``."""
    sim = Simulator()
    network = Network(
        sim, Topology(n=4, one_way_delay=0.01, bandwidth_bps=1e9),
        RngRegistry(1),
    )
    network.set_link_faults(LinkFaults(windows, rng))
    sim.run_until(now)
    return network


def test_overlapping_delay_windows_give_the_first_ones_delay():
    # The shaper used to add the two up (0.30000000000000004 s).
    windows = [
        Window("delay", 1.0, 5.0, base=0.1),
        Window("delay", 2.0, 3.0, base=0.2),
    ]
    shaper = _shaper(windows, clock=_Clock(2.5))
    assert shaper.write_delay(1, 1024, Channel.DATA) == 0.1
    topology = _sim_network(windows, random.Random(7), 2.5).topology
    assert topology.delay(0, 1, 2.5, random.Random(3)) == 0.1


def test_loss_window_opened_before_a_partition_draws_its_coin_first():
    # Windows are tested in start order on both backends; the shaper
    # used to test every partition first and leave the coin unflipped.
    windows = [
        Window("loss", 0.0, 10.0, rate=0.5),
        Window("partition", 1.0, 10.0, groups=((0, 1),)),
    ]
    frames = 16
    flipped = random.Random(7)
    for _ in range(frames):
        flipped.random()

    rng = random.Random(7)
    shaper = LinkShaper(0, windows, _Clock(2.0), rng)
    assert all(
        shaper.drops(0, 2, MessageKinds.VOTE, Channel.CONSENSUS)
        for _ in range(frames)
    )
    assert rng.getstate() == flipped.getstate()

    rng = random.Random(7)
    network = _sim_network(windows, rng, 2.0)
    envelope = Envelope(
        0, 2, MessageKinds.VOTE, 64, None, Channel.CONSENSUS, 2.0
    )
    assert all(network._should_drop(envelope, 2.0) for _ in range(frames))
    assert rng.getstate() == flipped.getstate()


# -- schedule plumbing -------------------------------------------------------

def test_resolve_fault_spec_shares_one_grammar():
    preset = resolve_fault_spec("crash-restart", 4)
    assert [step for _, step, _ in preset.timeline()] == ["crash", "restart"]
    inline = resolve_fault_spec(
        '[{"kind": "loss", "start": 1.0, "end": 3.0, "rate": 0.5}]', 4
    )
    assert inline.windows[0].kind == "loss"
    with pytest.raises(ValueError, match="not found"):
        resolve_fault_spec("@/nonexistent/schedule.json", 4)
    with pytest.raises(ValueError):
        resolve_fault_spec("crash-restart", 2)  # presets need n >= 4


def test_validate_live_rejects_behavior_swaps():
    """Mid-run, and at t=0: a replica Byzantine from the start would
    otherwise run honest in its own process. Nothing is spawned."""
    for start in (1.0, 0.0):
        schedule = FaultSchedule([
            Window("swap", start, nodes=(0,), behavior="silent"),
        ])
        schedule.validate(4)  # fine in-sim
        with pytest.raises(ValueError, match="live backend"):
            schedule.validate_live(4)
        config = ExperimentConfig(
            protocol=ProtocolConfig(
                n=4, mempool="stratus", consensus="hotstuff",
            ),
            rate_tps=10.0, duration=1.0, faults=schedule,
        )
        with pytest.raises(ValueError, match="live backend"):
            LiveConfig(experiment=config)  # inherits experiment.faults


@pytest.mark.parametrize("field, value", [
    ("bandwidth_bps", 5e6), ("topology_kind", "wan"),
    ("link_model", "fair-share"),
])
def test_live_config_rejects_simulator_link_settings(field, value):
    """Live runs over localhost TCP: a link setting it would silently
    ignore is refused, naming the windows it does shape."""
    config = ExperimentConfig(
        protocol=ProtocolConfig(n=4), rate_tps=10.0, duration=1.0,
        **{field: value},
    )
    with pytest.raises(ValueError, match=f"{field}.*bandwidth fault"):
        LiveConfig(experiment=config)


def test_every_chaos_preset_splits_cleanly_for_live():
    for name in (
        "crash-restart", "crash-partition", "fig7-disturbance",
        "flaky-data", "leader-squeeze",
    ):
        schedule = chaos_schedule(name, 4)
        schedule.validate_live(4)
        crashes = [w for w in schedule.windows if w.kind == "crash"]
        assert len(schedule.timeline()) == 2 * len(crashes)
        LinkFaults(schedule.windows, random.Random(0))  # the rest is links


# -- backpressure / reconnection units ---------------------------------------

def test_peer_link_bounds_queues_and_sheds_data_first():
    async def scenario():
        stats = NetworkStats()
        link = _PeerLink(1, "127.0.0.1", 1, stats)  # nothing listens
        for _ in range(DATA_QUEUE_CAP + 10):
            link.enqueue(b"x" * 8, Channel.DATA)
        assert stats.frames_dropped == 10
        assert link.queued == DATA_QUEUE_CAP
        # Consensus frames still board: data backlog never starves votes.
        assert link.enqueue(b"v" * 8, Channel.CONSENSUS)
        assert stats.queue_high_watermark == DATA_QUEUE_CAP + 1

    asyncio.run(scenario())


def test_live_network_reconnects_after_peer_restart():
    async def scenario():
        loop = asyncio.get_running_loop()
        ports = allocate_ports(2)
        scheduler = RealtimeScheduler(loop)
        alice = LiveNetwork(0, ports, scheduler)
        received = []
        alice.register(0, lambda env: received.append(env.payload))
        await alice.start()

        # First life: wait until alice's outbound link is established
        # (a frame actually lands at bob), then kill bob.
        bob_received = []
        bob = LiveNetwork(1, ports, scheduler)
        bob.register(1, lambda env: bob_received.append(env.payload))
        await bob.start()
        bob.send(1, 0, MessageKinds.VOTE, 8, 0)
        alice.send(0, 1, MessageKinds.VOTE, 8, "ping")
        deadline = loop.time() + 5.0
        while (
            not bob_received or not received
        ) and loop.time() < deadline:
            await asyncio.sleep(0.01)
        assert received == [0] and bob_received == ["ping"]
        await bob.close()

        # Bob's port is dark now. The TCP connection *is* the heartbeat:
        # writes into the dead socket surface the reset within a write
        # or two, flipping the link down, and the writer keeps probing
        # with backoff.
        deadline = loop.time() + 5.0
        while alice.liveness()[1] and loop.time() < deadline:
            alice.send(0, 1, MessageKinds.VOTE, 8, "into the void")
            await asyncio.sleep(0.02)
        assert alice.liveness() == {1: False}

        # Respawn on the same port: alice's backoff loop must pick the
        # fresh incarnation up without any restart of alice.
        bob = LiveNetwork(1, ports, scheduler)
        await bob.start()
        bob.send(1, 0, MessageKinds.VOTE, 8, 1)
        deadline = loop.time() + 5.0
        while (
            len(received) < 2 or not alice.liveness()[1]
        ) and loop.time() < deadline:
            await asyncio.sleep(0.01)
        assert received == [0, 1]
        assert alice.liveness() == {1: True}
        assert alice.stats.reconnects >= 1
        await bob.close()
        await alice.close()

    asyncio.run(scenario())


# -- live chaos smoke runs ---------------------------------------------------

def _chaos_config(preset, duration=8.0, rate=200.0):
    protocol = ProtocolConfig(
        n=4, mempool="stratus", consensus="hotstuff",
        batch_bytes=8 * 1024, batch_timeout=0.05, view_timeout=0.5,
    )
    return LiveConfig(
        experiment=ExperimentConfig(
            protocol=protocol, rate_tps=rate, duration=duration,
            warmup=0.5, seed=7, label=f"chaos-{preset}",
            faults=chaos_schedule(preset, 4),
        ),
        startup_grace=2.5,
    )


@pytest.mark.slow
def test_live_crash_restart_respawns_and_recovers(monkeypatch):
    streamed = []

    def spy(events, config, emitted_tx):
        streamed.extend(events)
        return replay_events(events, config, emitted_tx)

    monkeypatch.setattr(orchestrator, "replay_events", spy)
    result = run_live(_chaos_config("crash-restart"))
    assert result.violations == []
    assert result.committed_blocks > 0
    # The victim was SIGKILLed (its gen-0 result row died with it — only
    # its streamed event log survives) and respawned; the respawned
    # generation rejoined (TCP reconnect + chain sync) and committed
    # again before the run ended.
    victims = [row for row in result.per_replica if row["node_id"] == 3]
    assert [row["generation"] for row in victims] == [1]
    assert victims[0]["commits"] > 0
    assert [e["event"] for e in result.fault_timeline] == [
        "crash", "restart",
    ]
    # What generation 0 streamed before its SIGKILL at t=2 counts: the
    # blocks it reported are in the run's hub, and every streamed hub
    # call, its own among them, is one in the report.
    killed = {
        event["data"][0]
        for event in streamed
        if event["node"] == 3 and event["t"] < 2.0
        and event["kind"] == "record_commit"
    }
    assert killed and killed <= result.metrics.recorded

    def calls(kind):
        return sum(1 for event in streamed if event["kind"] == kind)

    assert result.view_changes == calls("record_view_change")
    assert result.fetch_count == calls("record_fetch")
    assert result.forwarded_microblocks == calls("record_forward")
    # Recovery gauges are finite: commits resumed after the window.
    (window,) = result.fault_report
    assert window["kind"] == "crash"
    assert window["time_to_recover"] != float("inf")
    assert window["commit_gap"] != float("inf")


@pytest.mark.slow
def test_live_partition_heals_and_recovers():
    schedule = FaultSchedule([
        Window("partition", 2.0, 3.5, groups=((0, 1),)),
    ])
    protocol = ProtocolConfig(
        n=4, mempool="stratus", consensus="hotstuff",
        batch_bytes=8 * 1024, batch_timeout=0.05, view_timeout=0.5,
    )
    result = run_live(LiveConfig(
        experiment=ExperimentConfig(
            protocol=protocol, rate_tps=200.0, duration=7.0,
            warmup=0.5, seed=7, label="chaos-partition",
            faults=schedule,
        ),
        startup_grace=2.5,
    ))
    assert result.violations == []
    assert result.committed_blocks > 0
    # Cross-group frames were shed at send time on real sockets.
    assert sum(row["frames_shed"] for row in result.per_replica) > 0
    # No quorum exists during a 2/2 split, so commits pause; after the
    # heal they resume — the recovery gauge must see that.
    (window,) = result.fault_report
    assert window["kind"] == "partition"
    assert window["time_to_recover"] != float("inf")


@pytest.mark.slow
def test_live_crash_restart_recovers_from_durable_state():
    from repro.durability import DurabilityConfig

    config = _chaos_config("crash-restart")
    config.experiment.durability = DurabilityConfig(
        fsync="interval", checkpoint_interval=8,
    )
    result = run_live(config)
    assert result.violations == []
    assert result.committed_blocks > 0
    # The respawned generation opened the same node-keyed data dir the
    # SIGKILLed gen-0 process wrote, so its executor came back from the
    # checkpoint and/or WAL tail — not from genesis.
    rows = {
        (row["node"], row["generation"]): row
        for row in result.recovery_report
    }
    victim = rows[(3, 1)]
    assert victim["source"] in ("checkpoint", "checkpoint+wal", "wal")
    assert victim["wal_blocks_replayed"] >= 0
    # Survivors report too (gen 0, nothing on disk yet).
    assert rows[(0, 0)]["source"] == "fresh"
    # The respawned replica committed again after recovery.
    respawned = [
        row for row in result.per_replica
        if row["node_id"] == 3 and row["generation"] == 1
    ]
    assert respawned and respawned[0]["commits"] > 0
    assert respawned[0]["recovery_source"] == victim["source"]
