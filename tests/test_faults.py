"""Chaos-layer tests: fault schedules, the injector, and recovery paths.

The end-to-end tests mirror the robustness claims of Section VII-B: a
crashed-then-restarted replica catches up through chain sync, a healed
partition recommits its backlog, and safety (per-height agreement) holds
under randomized fault schedules.
"""

import json
import math
import random

import pytest

from repro.faults import FaultSchedule, LinkFaults, Window
from repro.harness import (
    ExperimentConfig,
    chaos_schedule,
    resolve_fault_spec,
    run_experiment,
    tuned_protocol,
)
from repro.replica.behavior import CensoringSender, SilentReplica
from repro.verification.fuzzer import random_fault_schedule
from tests.helpers import make_cluster


# -- schedule parsing and validation ------------------------------------


class TestFaultSchedule:
    def test_events_sorted_by_time(self):
        schedule = FaultSchedule([
            Window("loss", 4.0, 5.0, rate=0.1),
            Window("crash", 2.0, 4.0, nodes=(1,)),
        ])
        assert [w.kind for w in schedule.windows] == ["crash", "loss"]

    def test_json_round_trip(self):
        text = """
            [{"kind": "crash", "start": 2.0, "end": 4.0, "nodes": [3]},
             {"kind": "partition", "start": 2.5, "end": 3.5,
              "groups": [[0, 1]]},
             {"kind": "loss", "start": 2.0, "end": 4.0, "rate": 0.2,
              "channel": "data", "kinds": ["mb"]},
             {"kind": "bandwidth", "start": 1.0, "end": 3.0,
              "factor": 0.1, "nodes": [0]},
             {"kind": "delay", "start": 5.0, "end": 15.0, "base": 0.1},
             {"kind": "swap", "start": 3.0, "nodes": [2],
              "behavior": "censor"}]
        """
        schedule = FaultSchedule.from_json(text)
        assert len(schedule.windows) == 6
        schedule.validate(4)
        partition = next(
            w for w in schedule.windows if w.kind == "partition"
        )
        assert partition.groups == ((0, 1),)
        assert partition.nodes == (0, 1)  # derived from the groups
        assert FaultSchedule.from_spec(schedule.to_spec()) == schedule
        # Written in start order, each entry exactly as given.
        assert schedule.to_spec() == sorted(
            json.loads(text), key=lambda entry: entry["start"]
        )

    def test_unknown_event_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSchedule.from_json('[{"kind": "meteor", "start": 1.0}]')
        # The event grammar is gone, not translated.
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSchedule.from_json('[{"event": "crash", "at": 1, "node": 2}]')

    def test_bad_field_rejected(self):
        with pytest.raises(ValueError, match="unknown keys \\['victim'\\]"):
            FaultSchedule.from_json(
                '[{"kind": "crash", "start": 1.0, "nodes": [2], '
                '"victim": 2}]'
            )
        with pytest.raises(ValueError, match="missing keys \\['end'\\]"):
            FaultSchedule.from_json(
                '[{"kind": "loss", "start": 1.0, "rate": 0.5}]'
            )

    def test_overlapping_crashes_of_one_node_rejected(self):
        schedule = FaultSchedule([
            Window("crash", 1.0, 3.0, nodes=(2,)),
            Window("crash", 2.0, 4.0, nodes=(2,)),
        ])
        with pytest.raises(ValueError, match="crashes of node 2 overlap"):
            schedule.validate(4)
        # Back to back is fine, and so is another node's crash.
        FaultSchedule([
            Window("crash", 1.0, 2.0, nodes=(2,)),
            Window("crash", 2.0, 4.0, nodes=(2,)),
            Window("crash", 1.5, 4.0, nodes=(1,)),
        ]).validate(4)
        # An unhealed crash overlaps every later one.
        with pytest.raises(ValueError, match="overlap"):
            FaultSchedule([
                Window("crash", 1.0, nodes=(2,)),
                Window("crash", 5.0, 6.0, nodes=(2,)),
            ]).validate(4)

    def test_node_out_of_range_rejected(self):
        schedule = FaultSchedule([Window("crash", 1.0, nodes=(7,))])
        with pytest.raises(ValueError, match="outside"):
            schedule.validate(4)

    def test_overlapping_partition_groups_rejected(self):
        schedule = FaultSchedule([
            Window("partition", 1.0, groups=((0, 1), (1, 2))),
        ])
        with pytest.raises(ValueError, match="not disjoint"):
            schedule.validate(4)

    @pytest.mark.parametrize("window, match", [
        (Window("crash", 1.0, nodes=(1, 2)), "exactly one node"),
        (Window("swap", 1.0, nodes=(), behavior="censor"),
         "exactly one node"),
        (Window("swap", 1.0, 2.0, nodes=(1,), behavior="censor"),
         "no end"),
        (Window("loss", 1.0, rate=0.5), "needs an end"),
        (Window("delay", 1.0, 1.0, base=0.1), "start < end"),
        (Window("bandwidth", -1.0, 1.0, factor=0.5), "start < end"),
        (Window("loss", 1.0, 2.0, rate=1.5), "loss rate"),
        (Window("loss", 1.0, 2.0, rate=0.5, channel="bulk"), "channel"),
        (Window("swap", 1.0, nodes=(1,), behavior="rogue"), "behavior"),
        # A rule across windows: at most f replicas Byzantine from t=0.
        ([Window("swap", 0.0, nodes=(2,), behavior="silent"),
          Window("swap", 0.0, nodes=(3,), behavior="censor")],
         r"2 replicas are Byzantine from the start; n=4 tolerates f=1"),
    ])
    def test_out_of_range_window_rejected(self, window, match):
        windows = window if isinstance(window, list) else [window]
        with pytest.raises(ValueError, match=match):
            FaultSchedule(windows).validate(4)

    def test_open_ended_bandwidth_window_is_a_slow_replica(self):
        """A ``bandwidth`` window may omit its end, as a crash may: from
        t=0 it is a replica whose uplink runs below the base rate for
        the whole run."""
        schedule = FaultSchedule.from_spec([
            {"kind": "bandwidth", "start": 0.0, "factor": 0.25,
             "nodes": [1]},
        ])
        schedule.validate(4)
        (window,) = schedule.windows
        assert math.isinf(window.end)
        assert "end" not in schedule.to_spec()[0]
        exp = make_cluster(rate_tps=0.0, duration=1.0, faults=schedule)
        full = exp.topology.bandwidth(0)
        assert exp.topology.bandwidth(1, now=0.0) == 0.25 * full
        assert exp.topology.bandwidth(1, now=1e9) == 0.25 * full
        assert exp.topology.bandwidth(0, now=0.0) == full

    def test_windows_pair_crash_with_restart(self):
        schedule = FaultSchedule([
            Window("swap", 4.0, nodes=(0,), behavior="censor"),
            Window("crash", 5.0, nodes=(1,)),  # never restarted
            Window("crash", 2.0, 4.0, nodes=(3,)),
            Window("crash", 4.0, 4.5, nodes=(3,)),
        ])
        crash, swap, again, unhealed = schedule.windows
        assert schedule.timeline() == [
            (2.0, "crash", crash),
            # One instant: the restart first, then window order.
            (4.0, "restart", crash),
            (4.0, "swap", swap),
            (4.0, "crash", again),
            (4.5, "restart", again),
            (5.0, "crash", unhealed),
        ]
        assert math.isinf(unhealed.end)
        assert "end" not in schedule.to_spec()[-1]

    def test_windows_carry_their_kind_parameters_and_round_trip(self):
        schedule = FaultSchedule([
            Window("loss", 2.0, 3.0, rate=0.2, channel="data",
                   kinds=("mb",), nodes=(1,)),
            Window("partition", 2.0, groups=((0, 1), (2,))),
            Window("bandwidth", 1.0, 3.0, factor=0.1, nodes=(0,)),
            Window("delay", 0.5, 1.5, base=0.1, jitter=0.05),
            Window("bandwidth", 0.5, 1.5, factor=0.15),
        ])
        # Start order; schedule order where starts tie (delay and its
        # goodput collapse, loss and partition).
        assert [w.kind for w in schedule.windows] == [
            "delay", "bandwidth", "bandwidth", "loss", "partition",
        ]
        partition = schedule.windows[-1]
        assert partition.nodes == (0, 1, 2) and math.isinf(partition.end)
        # The live spawn spec carries the schedule: the JSON spec
        # round-trips (no inf on the wire) to the same windows in the
        # replica process, the unbounded partition too.
        wire = json.loads(json.dumps(schedule.to_spec(), allow_nan=False))
        again = FaultSchedule.from_spec(wire)
        assert again == schedule
        assert math.isinf(again.windows[-1].end)

    @pytest.mark.parametrize("n", [4, 5, 7])
    def test_every_drawn_schedule_round_trips(self, n):
        for seed in range(200):
            spec = random_fault_schedule(random.Random(seed), n=n)
            schedule = FaultSchedule.from_spec(spec)
            schedule.validate(n)
            assert FaultSchedule.from_spec(schedule.to_spec()) == schedule


#: ``--faults`` input that must be refused: each was taken at face value
#: (or failed as something else) by an earlier parser.
MALFORMED = {
    "kinds-as-string": '[{"kind": "loss", "start": 1, "end": 2, '
                       '"rate": 0.5, "kinds": "mb"}]',
    "nodes-not-a-list": '[{"kind": "crash", "start": 1, "nodes": 3}]',
    "bool-node": '[{"kind": "crash", "start": 1, "nodes": [true]}]',
    "fractional-node": '[{"kind": "crash", "start": 1, "nodes": [1.5]}]',
    "nan-end": '[{"kind": "loss", "start": 1, "end": NaN, "rate": 0.5}]',
    "string-start": '[{"kind": "crash", "start": "2", "nodes": [1]}]',
    "bool-group-node": '[{"kind": "partition", "start": 1, '
                       '"groups": [[0, false]]}]',
    "not-a-list": '{"kind": "crash", "start": 1, "nodes": [1]}',
    "old-grammar-bool-node": '[{"event": "crash", "at": 1, "node": true}]',
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_fault_spec_rejected(name):
    with pytest.raises(ValueError):
        resolve_fault_spec(MALFORMED[name], 4)


# -- crash / restart lifecycle ------------------------------------------


def test_crash_flushes_and_silences_replica():
    exp = make_cluster(rate_tps=2000, duration=3.0)
    sim, net = exp.sim, exp.network
    victim = exp.replicas[3]
    sim.run_until(1.0)
    victim.crash()
    assert victim.crashed
    assert net.is_down(3)
    assert isinstance(victim.behavior, SilentReplica)
    bytes_at_crash = net.stats.node_bytes(3)
    sim.run_until(2.0)
    # A crashed node neither sends nor receives.
    assert net.stats.node_bytes(3) == bytes_at_crash
    victim.restart()
    assert not victim.crashed
    assert victim.restart_count == 1
    assert not isinstance(victim.behavior, SilentReplica)
    sim.run_until(3.0)
    assert net.stats.node_bytes(3) > bytes_at_crash


def test_crash_restart_catches_up_via_chain_sync():
    schedule = FaultSchedule([
        Window("crash", 1.0, 2.5, nodes=(3,)),
    ])
    exp = make_cluster(
        rate_tps=2000, duration=6.0, faults=schedule,
        protocol_overrides={"view_timeout": 0.5},
    )
    exp.sim.run_until(6.0)
    victim = exp.replicas[3].consensus
    others = [exp.replicas[i].consensus for i in range(3)]
    # The cluster of three kept committing during the crash...
    assert max(c.committed_height for c in others) > 0
    # ...and the restarted replica resynced to (close to) their height:
    # chain sync + newer proposals pull in everything it missed, minus
    # at most the committing 3-chain still in flight at run end.
    best = max(c.committed_height for c in others)
    assert victim.committed_height >= best - 3
    assert best > 5


def test_swap_behavior_turns_replica_byzantine_mid_run():
    schedule = FaultSchedule([
        Window("swap", 1.0, nodes=(3,), behavior="censor"),
    ])
    exp = make_cluster(rate_tps=1000, duration=2.0, faults=schedule)
    exp.sim.run_until(0.5)
    assert not isinstance(exp.replicas[3].behavior, CensoringSender)
    exp.sim.run_until(1.5)
    assert isinstance(exp.replicas[3].behavior, CensoringSender)


# -- partitions ---------------------------------------------------------


def test_partition_stalls_commits_and_heal_recommits_backlog():
    schedule = FaultSchedule([
        Window("partition", 1.0, 2.5, groups=((0, 1),)),
    ])
    exp = make_cluster(
        rate_tps=2000, duration=6.0, faults=schedule,
        protocol_overrides={"view_timeout": 0.5},
    )
    exp.sim.run_until(6.0)
    hub = exp.metrics
    window = hub.fault_windows[0]
    # No 3-of-4 quorum exists across {0,1} | {2,3}: commits stall...
    assert hub.commit_gap(window) >= 1.0
    # ...and resume after the heal, recommitting the backlog.
    recover = hub.time_to_recover(window)
    assert math.isfinite(recover)
    assert hub.throughput_tps(2.5, 6.0) > 0


def test_partition_composes_with_user_drop_filter():
    schedule = FaultSchedule([
        Window("partition", 0.0, 1.0, groups=((0, 1),)),
    ])
    exp = make_cluster(rate_tps=0.0, duration=2.0, faults=schedule)
    net = exp.network
    seen = []
    # The user filter runs first and stays installed next to the window.
    net.set_drop_filter(lambda env: seen.append((env.src, env.dst)) or False)
    from repro.types import TxBatch
    exp.replicas[0].on_client_batch(
        TxBatch(count=4, payload_bytes=128, mean_arrival=0.0)
    )
    exp.sim.run_until(0.9)
    crossing = [pair for pair in seen if (pair[0] < 2) != (pair[1] < 2)]
    assert crossing and len(crossing) < len(seen)
    assert net.stats.messages_dropped == len(crossing)
    # Taking the user filter out leaves the partition in force...
    net.set_drop_filter(None)
    exp.replicas[0].on_client_batch(
        TxBatch(count=4, payload_bytes=128, mean_arrival=0.9)
    )
    exp.sim.run_until(0.99)
    assert net.stats.messages_dropped > len(crossing)
    # ...until its window closes.
    exp.sim.run_until(1.0)
    healed = net.stats.messages_dropped
    exp.sim.run_until(2.0)
    assert net.stats.messages_dropped == healed


def test_healed_early_partition_reports_recovery_from_the_heal():
    schedule = FaultSchedule([
        Window("partition", 1.0, 2.0, groups=((0, 1),)),
    ])
    exp = make_cluster(
        rate_tps=2000, duration=6.0, faults=schedule,
        protocol_overrides={"view_timeout": 0.5},
    )
    exp.sim.run_until(6.0)
    hub = exp.metrics
    (row,) = hub.fault_report()
    assert (row["start"], row["end"]) == (1.0, 2.0)
    # No quorum across {0,1} | {2,3} until the heal, commits after it:
    # time-to-recover runs from the window's end at t=2.
    times = [record.commit_time for record in hub.commits]
    assert not [t for t in times if 1.1 < t < 2.0]
    first = min(t for t in times if t >= 2.0)
    assert row["time_to_recover"] == first - 2.0
    assert first < 4.0 and row["commit_gap"] >= first - 1.1


# -- window boundaries ---------------------------------------------------


def test_window_is_half_open_on_the_callers_clock():
    faults = LinkFaults([
        Window("loss", 1.0, 2.0, rate=1.0),
        Window("bandwidth", 1.0, 2.0, factor=0.5),
        Window("delay", 1.0, 2.0, base=0.2),
    ], random.Random(1))
    rng = random.Random(2)

    def decisions(now):
        return (
            faults.drops(now, 0, 1, "mb", None),
            faults.delay(now, rng),
            faults.squeeze_factor(now, 0),
        )

    outside = (False, None, 1.0)
    inside = (True, 0.2, 0.5)
    assert decisions(math.nextafter(1.0, 0.0)) == outside
    assert decisions(1.0) == inside  # exactly start: inside
    assert decisions(math.nextafter(2.0, 0.0)) == inside
    assert decisions(2.0) == outside  # exactly end: outside


def test_window_opening_at_a_delivery_instant_applies_to_it():
    from repro.sim.engine import Simulator
    from repro.sim.network import Network
    from repro.sim.rng import RngRegistry
    from repro.sim.topology import Topology

    sim = Simulator()
    network = Network(
        sim, Topology(n=2, one_way_delay=0.5, bandwidth_bps=8e6),
        RngRegistry(3),
    )
    arrived = []
    for node in range(2):
        network.register(node, lambda env: arrived.append(sim.now))
    network.set_link_faults(LinkFaults(
        [Window("loss", 0.5, 1.0, rate=1.0)], random.Random(4),
    ))
    # Zero-size frames leave at once and arrive one delay later: the
    # first lands at exactly the window's start, the second at its end.
    network.send(0, 1, "ping", 0, None)
    sim.run_until(0.5)
    network.send(0, 1, "ping", 0, None)
    sim.run()
    assert arrived == [1.0]
    assert network.stats.messages_dropped == 1


# -- loss / squeeze windows ---------------------------------------------


def test_loss_window_only_affects_its_interval():
    schedule = FaultSchedule([
        Window("loss", 1.0, 2.0, rate=1.0, channel="data"),
    ])
    exp = make_cluster(rate_tps=2000, duration=3.0, faults=schedule)
    net = exp.network
    exp.sim.run_until(0.9)
    dropped_before = net.stats.messages_dropped
    exp.sim.run_until(2.0)
    dropped_during = net.stats.messages_dropped - dropped_before
    assert dropped_during > 0
    exp.sim.run_until(2.1)
    base = net.stats.messages_dropped
    exp.sim.run_until(3.0)
    assert net.stats.messages_dropped == base  # window closed


def test_bandwidth_squeeze_scales_and_restores():
    schedule = FaultSchedule([
        Window("bandwidth", 1.0, 2.0, factor=0.1, nodes=(0,)),
    ])
    exp = make_cluster(rate_tps=0.0, duration=3.0, faults=schedule)
    topo = exp.topology
    full = topo.bandwidth(0)
    assert topo.bandwidth(0, now=0.5) == full
    assert topo.bandwidth(0, now=1.5) == pytest.approx(0.1 * full)
    assert topo.bandwidth(1, now=1.5) == full  # squeeze names node 0 only
    assert topo.bandwidth(0, now=2.5) == full


def test_overlapping_squeezes_stack_multiplicatively():
    schedule = FaultSchedule([
        Window("bandwidth", 1.0, 3.0, factor=0.5, nodes=(0,)),
        Window("bandwidth", 1.5, 2.5, factor=0.5, nodes=(0,)),
    ])
    exp = make_cluster(rate_tps=0.0, duration=4.0, faults=schedule)
    topo = exp.topology
    full = topo.bandwidth(0)
    assert topo.bandwidth(0, now=2.0) == pytest.approx(0.25 * full)
    # One window closed: exactly the other's factor, not (f1*f2)/f1.
    assert topo.bandwidth(0, now=2.7) == 0.5 * full
    assert topo.bandwidth(0, now=3.5) == full


def test_delay_spike_raises_link_delay_inside_window():
    schedule = FaultSchedule([
        Window("delay", 1.0, 2.0, base=0.2),
    ])
    exp = make_cluster(rate_tps=0.0, duration=3.0, faults=schedule)
    topo = exp.topology
    rng = random.Random(1)
    assert topo.delay(0, 1, now=0.5, rng=rng) < 0.1
    assert topo.delay(0, 1, now=1.5, rng=rng) == pytest.approx(0.2)
    assert topo.delay(0, 1, now=2.5, rng=rng) < 0.1


# -- PAB hardening under faults -----------------------------------------


def test_push_retransmits_after_loss_until_quorum():
    # Total DATA loss for 1 s: initial body broadcasts die, so without
    # push retries the availability proofs never form.
    schedule = FaultSchedule([
        Window("loss", 0.0, 1.0, rate=1.0, channel="data"),
    ])
    exp = make_cluster(
        rate_tps=1000, duration=5.0, faults=schedule,
        protocol_overrides={"fetch_timeout": 0.2, "view_timeout": 0.5},
    )
    exp.sim.run_until(5.0)
    assert exp.metrics.committed_tx_total > 0


def test_discard_cancels_outstanding_fetch():
    exp = make_cluster(rate_tps=0.0, duration=2.0)
    mempool = exp.replicas[0].mempool
    from repro.types import make_microblock_id
    mb_id = make_microblock_id(1, 99)
    mempool.fetcher.request(mb_id, (1, 2), grace=True)
    exp.sim.run_until(1.0)
    assert mempool.fetcher.outstanding == 1
    mempool.pab.discard(mb_id)
    assert mempool.fetcher.outstanding == 0


# -- safety under randomized fault schedules ----------------------------


def random_schedule(rng: random.Random, n: int, horizon: float) -> FaultSchedule:
    """A random but well-formed mix of crashes, partitions, and loss."""
    crash_at = rng.uniform(0.5, horizon / 2)
    victim = rng.randrange(n)
    end = crash_at + rng.uniform(0.5, 2.0) if rng.random() < 0.8 else math.inf
    others = [node for node in range(n) if node != victim]
    group = tuple(rng.sample(others, 2))
    start = rng.uniform(0.5, horizon - 1.0)
    partition = Window(
        "partition", start, start + rng.uniform(0.3, 1.5), groups=(group,),
    )
    start = rng.uniform(0.0, horizon - 1.0)
    loss = Window(
        "loss", start, start + rng.uniform(0.5, 2.0),
        rate=rng.uniform(0.05, 0.4),
    )
    return FaultSchedule([
        Window("crash", crash_at, end, nodes=(victim,)), partition, loss,
    ])


@pytest.mark.parametrize("seed", [11, 23, 47])
def test_safety_holds_under_randomized_faults(seed):
    rng = random.Random(seed)
    schedule = random_schedule(rng, n=4, horizon=5.0)
    exp = make_cluster(
        rate_tps=2000, duration=6.0, seed=seed, faults=schedule,
        protocol_overrides={"view_timeout": 0.5},
    )
    exp.sim.run_until(6.0)
    # Agreement: no two replicas commit different blocks at a height.
    height_to_block: dict[int, int] = {}
    for replica in exp.replicas:
        consensus = replica.consensus
        for block_id in consensus.committed:
            proposal = consensus.proposals[block_id]
            previous = height_to_block.setdefault(
                proposal.height, block_id
            )
            assert previous == block_id, (
                f"height {proposal.height} committed twice: "
                f"{previous} vs {block_id} (seed {seed})"
            )
    # Liveness sanity: someone committed something.
    assert exp.metrics.committed_tx_total > 0


# -- the acceptance scenario (chaos preset, end to end) -----------------


def run_chaos(preset: str, faults) -> tuple:
    protocol = tuned_protocol(preset, n=4, view_timeout=0.5)
    result = run_experiment(ExperimentConfig(
        protocol=protocol, rate_tps=1000, duration=6.0, warmup=1.0,
        seed=1, faults=faults, label=preset,
    ))
    return result, result.metrics.fault_report()


@pytest.mark.slow
def test_chaos_preset_stratus_recovers_and_simple_degrades():
    """The issue's acceptance bar: crash at 2 s, restart at 4 s, a 1 s
    partition, and a lossy data channel. Stratus keeps > 70 % of emitted
    transactions and every fault window reports a finite time-to-recover,
    while the same schedule demonstrably degrades the simple SMP."""
    schedule = chaos_schedule("crash-partition", 4)

    stratus, report = run_chaos("S-HS", schedule)
    assert stratus.committed_tx > 0.7 * stratus.emitted_tx
    for entry in report:
        assert math.isfinite(entry["time_to_recover"])
        assert math.isfinite(entry["commit_gap"])

    simple_clean, _ = run_chaos("SMP-HS", None)
    simple_chaos, simple_report = run_chaos("SMP-HS", schedule)
    assert simple_chaos.committed_tx < 0.95 * simple_clean.committed_tx
    assert max(e["commit_gap"] for e in simple_report) > 1.0
    # Stratus restores service faster than the fetch-from-leader SMP.
    assert (
        max(e["commit_gap"] for e in report)
        < max(e["commit_gap"] for e in simple_report)
    )


@pytest.mark.slow
def test_chaos_preset_runs_for_streamlet():
    # The epoch-clocked engine must also survive crash/restart (its
    # resume path recomputes the epoch from the wall clock).
    schedule = chaos_schedule("crash-restart", 4)
    protocol = tuned_protocol("S-SL", n=4)
    result = run_experiment(ExperimentConfig(
        protocol=protocol, rate_tps=1000, duration=6.0, warmup=1.0,
        seed=1, faults=schedule,
    ))
    assert result.committed_tx > 0
    assert result.metrics.fault_windows[0].kind == "crash"
