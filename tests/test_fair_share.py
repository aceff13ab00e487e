"""Fair-share link model: rate splitting, admission slots, crashes.

The serial model's exact store-and-forward timings are pinned by
``tests/test_sim_network.py``; this file pins the fair-share analogue —
active transfers split uplink/downlink capacity evenly, with rates
recomputed only when a transfer starts or finishes. A test that loops
or is parametrised over ``LINK_MODELS`` pins what both models share.
"""

import math
import random

import pytest

from repro.faults import LinkFaults, Window
from repro.sim.engine import Simulator
from repro.sim.network import LINK_MODELS, Channel, Network
from repro.sim.rng import RngRegistry
from repro.sim.topology import Topology


def make_net(n=3, bandwidth=8e6, delay=0.0, jitter=0.0, proc=0.0,
             scaled=False, reply=None, link_model="fair-share", **kwargs):
    """``scaled`` reaches the same bandwidths through a run-long squeeze
    window (twice the base, halved on every node — exact in binary
    floating point), so the link model reads ``Topology.bandwidth`` at
    every flush instead of the plain topology's stored shares.
    ``reply(network, envelope)`` runs inside every handler, after the
    delivery is logged."""
    topology = Topology(
        n=n, one_way_delay=delay,
        bandwidth_bps=bandwidth * 2 if scaled else bandwidth,
        delay_jitter=jitter, proc_per_message=proc,
    )
    if scaled:
        topology.set_link_faults(LinkFaults(
            [Window("bandwidth", 0.0, math.inf, factor=0.5)],
            random.Random(0),
        ))
    sim = Simulator()
    network = Network(
        sim, topology, RngRegistry(7), link_model=link_model, **kwargs
    )
    log = []

    def handler(env):
        log.append((round(sim.now, 6), env.src, env.dst, env.kind))
        if reply is not None:
            reply(network, env)

    for node in range(n):
        network.register(node, handler)
    return sim, network, log


def test_uplink_capacity_is_split_between_concurrent_transfers():
    # Two 1 MB transfers on an 8 Mbit/s uplink: alone each takes 1 s,
    # concurrently each runs at half rate and both finish at 2 s.
    sim, network, log = make_net()
    network.send(0, 1, "bulk", 1_000_000, None)
    network.send(0, 2, "bulk", 1_000_000, None)
    sim.run()
    assert [t for t, *_ in log] == [2.0, 2.0]


def test_downlink_capacity_is_split_between_concurrent_senders():
    sim, network, log = make_net()
    network.send(1, 0, "bulk", 1_000_000, None)
    network.send(2, 0, "bulk", 1_000_000, None)
    sim.run()
    assert [t for t, *_ in log] == [2.0, 2.0]


@pytest.mark.parametrize("scaled", [False, True], ids=["plain", "scaled"])
def test_rate_is_min_of_uplink_and_downlink_share(scaled):
    # 1->0 has sender 1's uplink to itself but shares receiver 0's
    # downlink with 2->0 (downlink-bound); 2->1 has receiver 1's
    # downlink to itself but shares sender 2's uplink (uplink-bound).
    # All three run at 4 of 8 Mbit/s and take 2 s.
    sim, network, log = make_net(scaled=scaled)
    network.send(1, 0, "bulk", 1_000_000, None)
    network.send(2, 0, "bulk", 1_000_000, None)
    network.send(2, 1, "bulk", 1_000_000, None)
    sim.run()
    assert [t for t, *_ in log] == [2.0, 2.0, 2.0]


def test_bandwidth_override_bounds_the_downlink_share():
    # Receiver 0 is a slow replica (a t=0 squeeze to 4 Mbit/s that never
    # heals) while sender 1 has the default 8 Mbit/s uplink: the
    # transfer is downlink-bound and takes 2 s.
    sim, network, log = make_net()
    network.set_link_faults(LinkFaults(
        [Window("bandwidth", 0.0, factor=0.5, nodes=(0,))],
        random.Random(0),
    ))
    network.send(1, 0, "bulk", 1_000_000, None)
    sim.run()
    assert log == [(2.0, 1, 0, "bulk")]


def test_small_message_overtakes_bulk_transfer_to_same_peer():
    # FIFO across sizes is intentionally relaxed: a 1 KB consensus
    # message sharing the link with a 1 MB body finishes first (0.002 s
    # at half rate), and the body pays exactly the shared interval
    # (finishes at 1.001 s instead of 1.0 s).
    sim, network, log = make_net()
    network.send(0, 1, "bulk", 1_000_000, None)
    network.send(0, 1, "tiny", 1_000, None, Channel.CONSENSUS)
    sim.run()
    assert log == [(0.002, 0, 1, "tiny"), (1.001, 0, 1, "bulk")]


def test_data_slots_serialize_broadcast_copies():
    # With one DATA slot the fan-out degenerates to serial: copies leave
    # at 1 s and 2 s exactly, as in the store-and-forward model.
    for link_model in LINK_MODELS:
        sim, network, log = make_net(fair_share_slots=1, link_model=link_model)
        network.broadcast(0, "mb", 1_000_000, None)
        sim.run()
        assert log == [(1.0, 0, 1, "mb"), (2.0, 0, 2, "mb")], link_model


def test_consensus_bypasses_data_slots():
    # A consensus message admitted while the single DATA slot is busy
    # starts immediately rather than waiting for the slot.
    sim, network, log = make_net(fair_share_slots=1)
    network.broadcast(0, "mb", 1_000_000, None)
    network.send(0, 1, "vote", 1_000, None, Channel.CONSENSUS)
    sim.run()
    assert log[0][3] == "vote"
    assert log[0][0] < 1.0


def test_propagation_delay_applies_after_transfer_completes():
    for link_model in LINK_MODELS:
        sim, network, log = make_net(delay=0.05, link_model=link_model)
        network.send(0, 1, "bulk", 1_000_000, None)
        sim.run()
        assert log == [(1.05, 0, 1, "bulk")], link_model


def test_sender_crash_kills_active_transfers_and_refunds_stats():
    sim, network, log = make_net()
    network.send(0, 1, "bulk", 1_000_000, None)
    sim.run_until(0.5)
    network.set_node_down(0)
    sim.run()
    assert log == []
    # The killed transfer's bytes were refunded at teardown.
    assert network.stats.node_bytes(0) == 0.0
    assert network.stats.messages_dropped == 1


def test_receiver_crash_kills_inbound_transfer():
    sim, network, log = make_net()
    network.send(0, 1, "bulk", 1_000_000, None)
    sim.run_until(0.5)
    network.set_node_down(1)
    sim.run()
    assert log == []


@pytest.mark.parametrize("scaled", [False, True], ids=["plain", "scaled"])
def test_peer_crash_restores_survivor_to_full_rate(scaled):
    # 0->1 and 0->2 share the uplink; when 2 dies at t=1 the surviving
    # transfer has 500 KB left and finishes it at full rate in 0.5 s.
    sim, network, log = make_net(scaled=scaled)
    network.send(0, 1, "bulk", 1_000_000, None)
    network.send(0, 2, "bulk", 1_000_000, None)
    sim.run_until(1.0)
    network.set_node_down(2)
    sim.run()
    assert log == [(1.5, 0, 1, "bulk")]


def _assert_counts_match(fair):
    for node, (up, down) in enumerate(zip(fair.up_active, fair.down_active)):
        assert fair.up_count[node] == len(up)
        assert fair.down_count[node] == len(down)
        data = sum(t.flow.channel is Channel.DATA for t in up)
        assert fair.data_in_flight[node] == data <= fair.slots


def test_link_counts_match_the_active_sets_after_every_event():
    # Replicas 0-4 fan out on all three channels, their DATA copies
    # through two slots; replica 0 sends a control broadcast while its
    # DATA waits on full slots, replica 3 crashes while sending and
    # replica 5, which sends nothing, while receiving. The per-link
    # counts and the DATA slots in use are checked against the active
    # sets after every event, and no FIFO may hold a consensus or
    # control flow: those start whole at enqueue.
    sim, network, log = make_net(n=6, delay=0.001, fair_share_slots=2)
    fair = network._fair
    for src in range(5):
        for channel in Channel:
            size = 100_000 if channel is Channel.DATA else 1_000
            network.broadcast(src, "mb", size, None, channel)
    slot_limited = []

    def control_while_data_waits():
        assert network._uplinks[0].queues[Channel.DATA.value]
        assert fair.data_in_flight[0] == fair.slots
        active = fair.up_count[0]
        network.broadcast(0, "ctl", 1_000, None, Channel.CONTROL)
        assert fair.up_count[0] == active + 5

    def crash(node, outbound):
        assert (fair.up_count if outbound else fair.down_count)[node] > 0
        network.set_node_down(node)

    sim.schedule(0.01, control_while_data_waits)
    sim.schedule(0.05, lambda: crash(3, outbound=True))
    sim.schedule(0.7, lambda: crash(5, outbound=False))
    while sim.run(max_events=1):
        _assert_counts_match(fair)
        assert all(
            flow.channel is Channel.DATA
            for uplink in network._uplinks
            for queue in uplink.queues for flow in queue
        )
        slot_limited.append(any(
            uplink.queues[Channel.DATA.value]
            and fair.data_in_flight[node] == fair.slots
            for node, uplink in enumerate(network._uplinks)
        ))
    assert any(slot_limited)
    assert network.stats.messages_dropped > 0 and log
    assert sum(kind == "ctl" for *_, kind in log) == 5
    assert fair.up_count == fair.down_count == fair.data_in_flight == [0] * 6
    assert not any(fair.up_active) and not any(fair.down_active)


def test_queued_bytes_tracks_waiting_and_active_transfers():
    sim, network, log = make_net(fair_share_slots=1)
    network.broadcast(0, "mb", 1_000_000, None)
    # One copy active (full 1 MB remaining at t=0), one queued.
    assert network.queued_bytes(0) == pytest.approx(2_000_000)
    sim.run_until(0.5)
    assert network.queued_bytes(0) == pytest.approx(1_500_000)
    sim.run()
    assert network.queued_bytes(0) == 0.0


@pytest.mark.parametrize("link_model", LINK_MODELS)
def test_down_sender_counts_the_copies_it_would_have_sent(link_model):
    # A live sender leaves itself out of ``recipients``; a crashed one
    # drops the same copies.
    sim, network, log = make_net(n=4, link_model=link_model)
    network.broadcast(0, "mb", 1_000, None, recipients=[0, 1, 2])
    assert sum(network.stats.messages_sent.values()) == 2
    network.set_node_down(0)
    dropped = network.stats.messages_dropped
    network.broadcast(0, "mb", 1_000, None, recipients=[0, 1, 2])
    assert network.stats.messages_dropped == dropped + 2
    with pytest.raises(ValueError, match="unregistered"):
        network.broadcast(0, "mb", 1_000, None, recipients=[1, 9])


def test_unknown_link_model_is_rejected():
    topology = Topology(n=2, one_way_delay=0.0, bandwidth_bps=8e6)
    with pytest.raises(ValueError, match="link_model"):
        Network(Simulator(), topology, RngRegistry(1), link_model="magic")


def test_rate_recompute_is_amortized_o1_per_event():
    # A B-send burst through one contended uplink used to settle every
    # active flow on each start/finish (~B^2/2 per-transfer settles);
    # the dirty-link flush settles each touched flow once per instant.
    # The bound is counter-based, not wall-clock, so it cannot flake:
    # with generous slop, ~10*B settles for B transfers, far under the
    # ~B^2/2 = 45,000 the eager recompute would have paid.
    sim, network, log = make_net(n=4, fair_share_slots=300)
    burst = 300
    for i in range(burst):
        network.send(0, 1 + (i % 3), "vote", 10_000, None,
                     Channel.CONSENSUS)
    sim.run()
    assert len(log) == burst
    assert network._fair.settle_ops <= 10 * burst


def test_settle_flush_is_batched_per_instant():
    # All same-instant starts are settled by a single flush pass: the
    # burst itself costs one settle per transfer, not one per pair.
    sim, network, log = make_net(n=3, fair_share_slots=100)
    for _ in range(100):
        network.send(0, 1, "mb", 1_000, None, Channel.CONSENSUS)
    ops_before = network._fair.settle_ops
    assert ops_before == 0  # nothing settled until the flush event runs
    sim.run_until(0.0)
    assert network._fair.settle_ops == 100


# The three ``sim.processed`` pins below run with zero delay and zero
# ``proc``: a completed copy's service is queued at the completion
# instant, ahead of the sequence number the completion's flush reserved,
# so that flush cannot settle inside the wake and stays an event of its
# own (the rule the next two tests pin from the other side).

def test_k_transfers_on_one_uplink_cost_k_wakes_and_the_flushes():
    # Sizes 1..k KB to k receivers over one uplink: k distinct finishes.
    # One wake per finish (each completion's flush arms the next, which
    # moved earlier), one flush per instant something started or
    # finished, one service per delivered copy; no wake per transfer per
    # re-rate.
    k = 5
    sim, network, log = make_net(n=k + 1, fair_share_slots=k)
    for i in range(k):
        network.send(0, 1 + i, "mb", 1_000 * (i + 1), None)
    sim.run()
    assert [dst for _, _, dst, _ in log] == [1, 2, 3, 4, 5]
    assert sim.processed == k + (1 + k) + k


def test_equal_transfers_on_one_uplink_finish_on_one_wake():
    k = 5
    sim, network, log = make_net(n=k + 1, fair_share_slots=k)
    for i in range(k):
        network.send(0, 1 + i, "mb", 1_000, None)
    sim.run()
    assert len(log) == k
    assert sim.processed == 1 + 2 + k  # one wake, two flushes, k services


def test_equal_copies_through_fewer_slots_refill_after_the_wake():
    # Five equal DATA copies through two slots: each wake completes two
    # copies and delivers both, then one admission refills both slots.
    # Both services are queued at the completion instant ahead of the
    # sequence number that admission's flush reserves, so the flush runs
    # after both; admitting once per completion ran it between them, and
    # each pair's second receiver saw the refill settled ([2, 4, 4, 5, 5]).
    # The delivery instants, the settle count and the event count are
    # the ones recorded with one admission per completion.
    k = 5
    times, seen = [], []

    def reply(network, env):
        times.append(network.sim.now)
        seen.append(network._fair.settle_ops)

    sim, network, log = make_net(n=k + 1, fair_share_slots=2, reply=reply)
    network.broadcast(0, "mb", 1_000, None)
    sim.run()
    assert [dst for _, _, dst, _ in log] == [1, 2, 3, 4, 5]
    assert times == [0.002, 0.002, 0.004, 0.004, 0.005]
    assert seen == [2, 2, 4, 4, 5]
    assert network._fair.settle_ops == 5
    # Initial flush; per pair a wake, a flush event and two services;
    # the last copy's wake, flush and service.
    assert sim.processed == 12


def test_a_broadcast_that_completes_in_one_wake_keeps_its_draws():
    # A DATA and a consensus broadcast of equal bodies start together on
    # one uplink and finish together: one wake completes all eight
    # copies, each flow's four in one dispatch, in start order. The
    # jittered delivery instants and their order, and the event count
    # (the flush at 0, the wake, eight services and one superseded
    # service end), were recorded with one dispatch per copy.
    topology = Topology(n=5, one_way_delay=0.01, bandwidth_bps=8e6,
                        delay_jitter=0.002, proc_per_message=50e-6)
    sim = Simulator()
    network = Network(sim, topology, RngRegistry(7),
                      link_model="fair-share", fair_share_slots=8)
    log = []
    for node in range(5):
        network.register(
            node, lambda env: log.append((sim.now, env.src, env.dst, env.kind))
        )
    fair = network._fair
    wakes = []
    wake = fair._on_wake
    fair._on_wake = lambda src: (wakes.append(sim.now), wake(src))
    network.broadcast(0, "mb", 100_000, None)
    network.broadcast(0, "proposal", 100_000, None, Channel.CONSENSUS)
    sim.run()
    assert wakes == [0.8]
    assert log == [
        (0.8080844404739531, 0, 4, "mb"),
        (0.8090244527428211, 0, 4, "proposal"),
        (0.8094618418630382, 0, 1, "proposal"),
        (0.8097174450564023, 0, 1, "mb"),
        (0.8108175043060936, 0, 3, "mb"),
        (0.8111766554939355, 0, 3, "proposal"),
        (0.8116484194533579, 0, 2, "mb"),
        (0.8116984194533579, 0, 2, "proposal"),
    ]
    assert sim.processed == 11


def test_wake_that_fires_early_rearms_at_the_new_finish():
    # 0 -> 1 alone would finish at 1 s and is armed for it; at 0.5 s a
    # second transfer halves its rate. The wake at 1 s finds nothing
    # finished and re-arms itself; both finish at 1.5 s on one wake.
    sim, network, log = make_net()
    network.send(0, 1, "bulk", 1_000_000, None)
    sim.schedule(0.5, lambda: network.send(0, 2, "bulk", 500_000, None))
    sim.run()
    assert [t for t, *_ in log] == [1.5, 1.5]
    # timer; flushes at 0, 0.5 and 1.5; the early wake and the real one;
    # two services.
    assert sim.processed == 1 + 3 + 2 + 2


def _acking(network, env):
    """Acknowledge every body from inside the service that delivers it."""
    if env.kind == "mb":
        network.send(env.dst, env.src, "ack", 100, None, Channel.CONSENSUS)


def test_a_completion_settles_inside_its_wake_and_a_reply_inside_its_service():
    # The k-transfer burst over 10 ms links with 50 us per message: no
    # copy is served at the instant it completes, so nothing is queued
    # ahead of a completion's flush and it settles inside the wake. k
    # wakes, one flush event for the burst (sent from no event), k
    # services.
    k = 5
    sim, network, log = make_net(n=k + 1, delay=0.01, proc=50e-6,
                                 fair_share_slots=k)
    for i in range(k):
        network.send(0, 1 + i, "mb", 1_000 * (i + 1), None)
    sim.run()
    assert [dst for _, _, dst, _ in log] == [1, 2, 3, 4, 5]
    assert sim.processed == k + 1 + k
    # Each receiver acks from inside its service: an ack adds its wake
    # and its service, and its flush (at its start and at its finish)
    # settles inside the service and the wake; no flush event.
    sim, network, log = make_net(n=k + 1, delay=0.01, proc=50e-6,
                                 fair_share_slots=k, reply=_acking)
    for i in range(k):
        network.send(0, 1 + i, "mb", 1_000 * (i + 1), None)
    sim.run()
    assert [(src, dst) for _, src, dst, _ in log] == (
        [(0, i) for i in range(1, k + 1)] + [(i, 0) for i in range(1, k + 1)]
    )
    assert sim.processed == (k + 1 + k) + 2 * k


@pytest.mark.parametrize("loopback_first", [True, False])
def test_an_entry_queued_ahead_of_the_reserved_flush_runs_before_it(
    loopback_first,
):
    # Replica 1's handler sends itself a loopback copy (queued at now)
    # and replica 2 a vote. Loopback first: its entry precedes the
    # sequence number the vote's flush reserved, so the flush is queued
    # under that number and the loopback is delivered before it settles.
    # Vote first: the loopback's entry comes after, the flush settles
    # inside the service and the loopback sees it settled.
    seen = []

    def reply(network, env):
        if env.kind == "mb":
            sends = [(1, 1, "self", 0, None),
                     (1, 2, "vote", 1_000, None, Channel.CONSENSUS)]
            for args in sends if loopback_first else sends[::-1]:
                network.send(*args)
        elif env.kind == "self":
            seen.append(network._fair.settle_ops)

    sim, network, log = make_net(delay=0.01, proc=50e-6, reply=reply)
    network.send(0, 1, "mb", 1_000, None)
    sim.run()
    assert log == [
        (0.01105, 0, 1, "mb"), (0.01105, 1, 1, "self"),
        (0.0221, 1, 2, "vote"),
    ]
    # One settle when the body started, one when the vote did.
    assert network._fair.settle_ops == 2
    assert seen == [1] if loopback_first else [2]
    # wake, service and loopback of the body; wake and service of the
    # vote; the burst's flush event, and the vote's when it is queued.
    assert sim.processed == 5 + (2 if loopback_first else 1)


def _burst(squeeze):
    """Three senders each fan out 100 KB bodies through two DATA slots
    and send replica 3 a vote, over jittered links; with ``squeeze``
    a squeeze window takes replica 0 to a quarter of its bandwidth from
    0.1 s to 0.3 s (under live transfers) while replica 3 joins in;
    nothing is scheduled at either edge. Returns the exact
    delivery instants, the settle count and the nodes whose bandwidth
    was read through ``Topology.bandwidth``."""
    topology = Topology(
        n=4, one_way_delay=0.01, bandwidth_bps=8e6, delay_jitter=0.002
    )
    sim = Simulator()
    network = Network(
        sim, topology, RngRegistry(7), link_model="fair-share",
        fair_share_slots=2,
    )
    times = []
    for node in range(4):
        network.register(node, lambda env: times.append(sim.now))
    reads = []
    read = topology.bandwidth
    topology.bandwidth = lambda node, now=None: (
        reads.append(node), read(node, now=now)
    )[1]
    for src in range(3):
        network.broadcast(src, "mb", 100_000, None)
        network.send(src, 3, "vote", 2_000, None, Channel.CONSENSUS)
    if squeeze:
        network.set_link_faults(LinkFaults(
            [Window("bandwidth", 0.1, 0.3, factor=0.25, nodes=(0,))],
            random.Random(0),
        ))
        sim.run_until(0.1)
        network.broadcast(3, "mb", 50_000, None)
    sim.run()
    return times, network._fair.settle_ops, reads


# Both bursts' figures were recorded on the parent of the per-link share
# rewrite (4b99379), where every settle read the bandwidth twice.

def test_plain_burst_settles_as_often_without_reading_bandwidth():
    times, settle_ops, reads = _burst(squeeze=False)
    assert len(times) == 12
    assert times[-1] == 0.5121589959139867
    assert settle_ops == 18  # fewer calls, not fewer settles
    assert reads == []  # the plain topology's shares need no lookup


def test_squeeze_mid_burst_reproduces_recorded_delivery_times():
    times, settle_ops, reads = _burst(squeeze=True)
    assert times == [
        0.014985692520550365, 0.015667445056402305, 0.017083211927443716,
        0.21323805402371737, 0.2135984194533579, 0.2614536717672898,
        0.26247182858095, 0.3585671077915223, 0.4479980297322285,
        0.48593242605946074, 0.4921475594566065, 0.49247678651987054,
        0.5187675043060935, 0.5371589959139867, 0.5756594404739531,
    ]
    # 43 while a transfer whose rate came out unchanged was settled too;
    # the delivery instants above are the ones recorded then.
    assert settle_ops == 33
    # A topology that holds a squeeze window is never plain: bandwidth
    # is read once per touched link per flush for the whole run, never
    # twice per settle (what 4b99379 did).
    assert 0 < len(reads) < 2 * settle_ops


def test_replies_from_handlers_reproduce_recorded_delivery_times():
    # Three senders each fan a 100 KB body out through two DATA slots
    # over jittered 10 ms links, and every body is acked from inside the
    # service that delivers it, so flushes settle inside services and
    # wakes. Every delivery below, and the settle count, were recorded
    # on f8bd57f, where each flush was a heap event of its own.
    topology = Topology(n=4, one_way_delay=0.01, bandwidth_bps=8e6,
                        delay_jitter=0.002, proc_per_message=50e-6)
    sim = Simulator()
    network = Network(sim, topology, RngRegistry(11),
                      link_model="fair-share", fair_share_slots=2)
    log = []

    def handler(env):
        log.append((sim.now, env.src, env.dst, env.kind))
        if env.kind == "mb":
            network.send(env.dst, env.src, "ack", 2_000, None,
                         Channel.CONSENSUS)

    for node in range(4):
        network.register(node, handler)
    for src in range(3):
        network.broadcast(src, "mb", 100_000, None)
    sim.run()
    assert log == [
        (0.20809837003278522, 2, 0, "mb"), (0.2095400603700105, 0, 1, "mb"),
        (0.2095900603700105, 2, 1, "mb"), (0.20962379914812904, 1, 2, "mb"),
        (0.21149581046525467, 1, 0, "mb"), (0.21157265210941373, 0, 2, "mb"),
        (0.22212246001250827, 0, 2, "ack"),
        (0.22426917067430943, 0, 1, "ack"),
        (0.22427539189040097, 1, 0, "ack"),
        (0.22480780691523658, 1, 2, "ack"),
        (0.22589151950008654, 2, 1, "ack"),
        (0.22635961264128163, 2, 0, "ack"),
        (0.5088892689124421, 1, 3, "mb"), (0.50983235587665, 0, 3, "mb"),
        (0.510325306203309, 2, 3, "mb"), (0.5225189287725398, 3, 1, "ack"),
        (0.5231767765022801, 3, 0, "ack"), (0.5241783696035228, 3, 2, "ack"),
    ]
    assert network._fair.settle_ops == 30
    # 65 events there: the fifteen flushes that settled in-event are gone.
    assert sim.processed == 50


def test_fair_share_runs_are_deterministic():
    def run():
        sim, network, log = make_net(n=4, jitter=0.002)
        for src in range(4):
            network.broadcast(src, "mb", 250_000, None)
            network.send(src, (src + 1) % 4, "vote", 512, None,
                         Channel.CONSENSUS)
        sim.run()
        return log

    assert run() == run()
