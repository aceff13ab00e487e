"""Unit tests for the network substrate: serialization and priority."""

import random

import pytest

from repro.faults import LinkFaults, Window
from repro.sim.engine import Simulator
from repro.sim.network import Channel, Network
from repro.sim.rng import RngRegistry
from repro.sim.topology import Topology
from tests.helpers import run_counting_skips


def make_network(n=3, bandwidth=8_000_000, delay=0.01, proc=0.0):
    """8 Mb/s network: a 1 MB message takes exactly 1 s to serialize."""
    sim = Simulator()
    topo = Topology(n, one_way_delay=delay, bandwidth_bps=bandwidth,
                    proc_per_message=proc)
    net = Network(sim, topo, RngRegistry(1))
    inboxes = {i: [] for i in range(n)}
    for i in range(n):
        net.register(i, lambda env, i=i: inboxes[i].append((net.sim.now, env)))
    return sim, net, inboxes


def test_delivery_time_is_serialization_plus_propagation():
    sim, net, inboxes = make_network()
    net.send(0, 1, "m", 1_000_000, "payload")
    sim.run()
    when, env = inboxes[1][0]
    assert when == pytest.approx(1.0 + 0.01)
    assert env.payload == "payload"
    assert env.src == 0 and env.dst == 1


def test_messages_serialize_back_to_back():
    sim, net, inboxes = make_network()
    net.send(0, 1, "m", 1_000_000, "a")
    net.send(0, 1, "m", 1_000_000, "b")
    sim.run()
    times = [when for when, _ in inboxes[1]]
    assert times[0] == pytest.approx(1.01)
    assert times[1] == pytest.approx(2.01)


def test_broadcast_serializes_one_copy_per_recipient():
    sim, net, inboxes = make_network(n=4)
    net.broadcast(0, "m", 1_000_000, "x")
    sim.run()
    arrival_times = sorted(
        when for node in (1, 2, 3) for when, _ in inboxes[node]
    )
    # Copies leave the uplink at 1s, 2s, 3s.
    assert arrival_times == pytest.approx([1.01, 2.01, 3.01])


def test_consensus_priority_preempts_queued_data():
    sim, net, inboxes = make_network()
    # Two large data messages queued, then one consensus message: the
    # consensus message must jump the queue (sent after the in-flight one).
    net.send(0, 1, "data", 1_000_000, "d1", Channel.DATA)
    net.send(0, 1, "data", 1_000_000, "d2", Channel.DATA)
    net.send(0, 1, "vote", 1_000, "v", Channel.CONSENSUS)
    sim.run()
    kinds_in_order = [env.kind for _, env in inboxes[1]]
    assert kinds_in_order == ["data", "vote", "data"]


def test_loopback_is_free_and_fast():
    sim, net, inboxes = make_network()
    net.send(1, 1, "self", 1_000_000, "me")
    sim.run()
    when, env = inboxes[1][0]
    assert when == 0.0
    assert net.stats.node_bytes(1) == 0.0


def test_stats_accumulate_bytes_by_kind():
    sim, net, _ = make_network()
    net.send(0, 1, "mb", 500, None)
    net.send(0, 2, "mb", 700, None)
    net.send(1, 2, "vote", 100, None)
    sim.run()
    assert net.stats.node_bytes(0) == 1200
    assert net.stats.node_bytes(0, "mb") == 1200
    assert net.stats.kind_bytes("vote") == 100
    assert net.stats.messages_sent["mb"] == 2
    assert net.stats.messages_delivered == 3


def test_drop_filter_drops_and_counts():
    sim, net, inboxes = make_network()
    net.set_drop_filter(lambda env: env.kind == "lossy")
    net.send(0, 1, "lossy", 100, None)
    net.send(0, 1, "ok", 100, None)
    sim.run()
    assert [env.kind for _, env in inboxes[1]] == ["ok"]
    assert net.stats.messages_dropped == 1


def test_unregistered_nodes_rejected():
    sim, net, _ = make_network()
    with pytest.raises(ValueError):
        net.send(0, 99, "m", 10, None)


def test_double_registration_rejected():
    sim, net, _ = make_network()
    with pytest.raises(ValueError):
        net.register(0, lambda env: None)


def test_queued_bytes_tracks_backlog():
    sim, net, _ = make_network()
    net.send(0, 1, "m", 1_000_000, None)
    net.send(0, 1, "m", 1_000_000, None)
    net.send(0, 1, "m", 1_000_000, None)
    # First is in flight; two are queued.
    assert net.queued_bytes(0) == 2_000_000
    sim.run()
    assert net.queued_bytes(0) == 0


def test_broadcast_recipients_subset():
    sim, net, inboxes = make_network(n=4)
    net.broadcast(0, "m", 100, None, recipients=[2, 3])
    sim.run()
    assert len(inboxes[1]) == 0
    assert len(inboxes[2]) == 1
    assert len(inboxes[3]) == 1


def test_processing_cost_serializes_receives():
    sim, net, inboxes = make_network(proc=0.010)
    # Two tiny messages from different senders arrive together; the
    # receiver processes them 10 ms apart.
    net.send(0, 2, "m", 800, "a")
    net.send(1, 2, "m", 800, "b")
    sim.run()
    times = sorted(when for when, _ in inboxes[2])
    assert times[1] - times[0] == pytest.approx(0.010)


def test_processing_priority_favors_consensus():
    sim, net, inboxes = make_network(proc=0.010)
    # Queue several data messages and one consensus message arriving
    # together; the consensus one must be processed before remaining data.
    for _ in range(3):
        net.send(0, 2, "data", 800, None, Channel.DATA)
    net.send(1, 2, "vote", 800, None, Channel.CONSENSUS)
    sim.run()
    kinds = [env.kind for _, env in sorted(inboxes[2], key=lambda p: p[0])]
    assert kinds.index("vote") <= 1


def test_priority_disabled_single_fifo():
    sim = Simulator()
    topo = Topology(3, one_way_delay=0.01, bandwidth_bps=8_000_000)
    net = Network(sim, topo, RngRegistry(1), priority_channels=False)
    inbox = []
    for i in range(3):
        net.register(i, lambda env, i=i: inbox.append(env.kind) if i == 1 else None)
    net.send(0, 1, "data1", 1_000_000, None, Channel.DATA)
    net.send(0, 1, "data2", 1_000_000, None, Channel.DATA)
    net.send(0, 1, "vote", 1_000, None, Channel.CONSENSUS)
    sim.run()
    # Without priority classes the vote waits its FIFO turn.
    assert inbox == ["data1", "data2", "vote"]


def test_control_channel_between_consensus_and_data():
    sim = Simulator()
    topo = Topology(3, one_way_delay=0.01, bandwidth_bps=8_000_000)
    net = Network(sim, topo, RngRegistry(1))
    inbox = []
    net.register(0, lambda env: None)
    net.register(1, lambda env: inbox.append(env.kind))
    net.register(2, lambda env: None)
    net.send(0, 1, "d1", 1_000_000, None, Channel.DATA)   # in flight
    net.send(0, 1, "d2", 1_000_000, None, Channel.DATA)
    net.send(0, 1, "ctrl", 1_000, None, Channel.CONTROL)
    net.send(0, 1, "vote", 1_000, None, Channel.CONSENSUS)
    sim.run()
    assert inbox == ["d1", "vote", "ctrl", "d2"]


class TestEventEconomy:
    """An event only where something happens (see ``_Ingress``,
    ``_Uplink``): counts are of ``sim.processed``, instants exact."""

    PROC = 0.010
    #: 1,000 bytes at 8 Mb/s leave in 1 ms and propagate for 10 ms.
    ARRIVAL = 1000 * 8.0 / 8_000_000 + 0.01

    def test_idle_ingress_costs_one_event_per_copy(self):
        sim, net, inboxes = make_network(n=2, proc=self.PROC)
        net.send(0, 1, "m", 1000, None)
        sim.run()
        assert sim.processed == 1
        (when, env), = inboxes[1]
        assert env.arrived_at == self.ARRIVAL
        assert when == self.ARRIVAL + self.PROC

    def test_zero_processing_cost_takes_the_same_path(self):
        sim, net, inboxes = make_network(n=2, proc=0.0)
        net.send(0, 1, "m", 1000, None)
        net.send(1, 0, "m", 1000, None)
        sim.run()
        assert sim.processed == 2
        assert inboxes[1][0][0] == inboxes[0][0][0] == self.ARRIVAL

    def test_burst_inside_one_proc_costs_k(self):
        k = 5
        sim, net, inboxes = make_network(n=k + 1, proc=self.PROC)
        for src in range(1, k + 1):
            net.send(src, 0, "m", 1000, src)  # k idle uplinks, one ingress
        sim.run()
        assert sim.processed == k  # one event per service, none per arrival
        assert [env.payload for _, env in inboxes[0]] == [1, 2, 3, 4, 5]
        first = self.ARRIVAL + self.PROC
        expected, when = [], first
        for _ in range(k):
            expected.append(when)
            when += self.PROC
        assert [when for when, _ in inboxes[0]] == expected

    def test_consensus_copy_overtakes_a_waiting_data_copy(self):
        sim, net, inboxes = make_network(n=4, proc=self.PROC)
        net.send(1, 0, "data", 1000, "d1", Channel.DATA)
        net.send(2, 0, "data", 1000, "d2", Channel.DATA)
        # Arrives 3 ms into d1's service, while d2 waits.
        sim.schedule(0.003, lambda: net.send(
            3, 0, "vote", 1000, "v", Channel.CONSENSUS))
        sim.run()
        assert [env.payload for _, env in inboxes[0]] == ["d1", "v", "d2"]
        times = [when for when, _ in inboxes[0]]
        first = self.ARRIVAL + self.PROC
        assert times == [first, first + self.PROC, first + self.PROC + self.PROC]

    def test_arrival_at_the_instant_a_service_ends_is_not_queued(self):
        sim, net, inboxes = make_network(n=3, proc=self.PROC)
        net.send(1, 0, "m", 1000, "a")
        sim.schedule(self.PROC, lambda: net.send(2, 0, "m", 1000, "b"))
        sim.run()
        # b arrives exactly when a's service ends: the test's timer and
        # one event per service, b's armed for its own arrival + proc.
        assert sim.processed == 1 + 2
        assert [when for when, _ in inboxes[0]] == [
            self.ARRIVAL + self.PROC,
            (self.PROC + self.ARRIVAL) + self.PROC,
        ]

    def test_later_dispatched_copy_arriving_first_is_served_first(self):
        sim, net, inboxes = make_network(n=3, proc=self.PROC)
        net.send(1, 0, "m", 1_000_000, "slow")  # arrives at 1.01
        sim.schedule(0.5, lambda: net.send(2, 0, "m", 1000, "quick"))
        skipped = run_counting_skips(sim)
        quick = 0.5 + self.ARRIVAL
        assert [(when, env.payload) for when, env in inboxes[0]] == [
            (quick + self.PROC, "quick"), (1.01 + self.PROC, "slow"),
        ]
        assert [env.arrived_at for _, env in inboxes[0]] == [quick, 1.01]
        # The timer and two services. Superseded entries are cancelled,
        # not fired: the entry "slow" armed at dispatch, which "quick"
        # superseded, is skipped, and "slow" is served by the re-arm for
        # the same instant (4 events while it fired as a no-op).
        assert sim.processed == 1 + 2
        assert skipped == [1.01 + self.PROC]

    def test_superseded_entry_inside_a_service_is_cancelled(self):
        sim, net, inboxes = make_network(n=3, proc=1.0)
        net.send(1, 0, "m", 1_000_000, "slow")  # arrives at 1.01
        sim.schedule(0.5, lambda: net.send(2, 0, "m", 1000, "quick"))
        skipped = run_counting_skips(sim)
        # "slow" arrives inside "quick"'s service and waits for its end.
        quick_done = (0.5 + self.ARRIVAL) + 1.0
        assert [(when, env.payload) for when, env in inboxes[0]] == [
            (quick_done, "quick"), (quick_done + 1.0, "slow"),
        ]
        # Superseded entries are cancelled, not fired: the timer and two
        # services, and the entry "slow" armed at dispatch is skipped
        # (4 events while it fired as a no-op).
        assert sim.processed == 1 + 2
        assert skipped == [1.01 + 1.0]

    def test_consensus_copy_arriving_inside_a_service_does_not_overtake(self):
        sim, net, inboxes = make_network(n=4, proc=self.PROC)
        net.send(1, 0, "data", 1000, "d1", Channel.DATA)
        # d2 arrives 3 ms into d1's service, the vote 2 ms into d2's:
        # when d2's service started the vote had not arrived.
        sim.schedule(0.003, lambda: net.send(2, 0, "data", 1000, "d2"))
        sim.schedule(self.PROC + 0.002, lambda: net.send(
            3, 0, "vote", 1000, "v", Channel.CONSENSUS))
        sim.run()
        assert [env.payload for _, env in inboxes[0]] == ["d1", "d2", "v"]

    def test_same_instant_arrivals_are_picked_by_class(self):
        sim, net, inboxes = make_network(n=3, proc=self.PROC)
        net.send(1, 0, "data", 1000, "d", Channel.DATA)
        net.send(2, 0, "vote", 1000, "v", Channel.CONSENSUS)
        sim.run()
        # Both had arrived by the start of the first service.
        assert [env.payload for _, env in inboxes[0]] == ["v", "d"]
        assert sim.processed == 2

    def test_receiver_crash_counts_unjudged_arrivals_once_each(self):
        sim, net, inboxes = make_network(n=5, proc=self.PROC)
        for src in (1, 2, 3):
            net.send(src, 0, "m", 1000, src)  # all arrive at ARRIVAL
        # 4's copy arrives while 0 is down, 0.5 ms after the crash.
        sim.schedule(0.0045, lambda: net.send(4, 0, "m", 1000, 4))
        # 0 dies inside the first service: nothing has been judged yet.
        sim.schedule_at(self.ARRIVAL + 0.004, lambda: net.set_node_down(0))
        sim.run()
        assert inboxes[0] == []
        assert net.stats.messages_dropped == 4
        assert net.stats.messages_delivered == 0

    def test_lone_send_arms_no_drain(self):
        sim, net, inboxes = make_network(n=2)
        net.send(0, 1, "m", 1_000_000, None)
        sim.run()
        assert sim.processed == 1  # the copy; nothing at the segment's end
        assert net.queued_bytes(0) == 0

    def test_send_behind_a_segment_arms_one_drain_and_starts_at_its_end(self):
        sim, net, inboxes = make_network(n=2)
        net.send(0, 1, "m", 1_000_000, "a")  # on the wire until t = 1
        sim.schedule(0.25, lambda: net.send(0, 1, "m", 1_000_000, "b"))
        sim.schedule(0.50, lambda: net.send(0, 1, "m", 1_000_000, "c"))
        sim.run()
        # 2 test timers, 3 copies, and a drain at t = 1 (b's, armed once
        # though c queued behind it too) and at t = 2 (b's segment left c).
        assert sim.processed == 2 + 3 + 2
        assert [when for when, _ in inboxes[1]] == [1.01, 2.01, 3.01]

    def test_send_after_the_wire_fell_idle_starts_at_once(self):
        sim, net, inboxes = make_network(n=2)
        net.send(0, 1, "m", 1_000_000, "a")
        sim.schedule(1.5, lambda: net.send(0, 1, "m", 1_000_000, "b"))
        sim.run()
        assert sim.processed == 1 + 2
        assert [when for when, _ in inboxes[1]] == [1.01, 2.5 + 0.01]


class TestFaultsAtTheArrivalInstant:
    """A copy's one event fires ``proc`` after it arrived; what is
    decided on arrival is decided for the arrival instant."""

    PROC = 0.010
    ARRIVAL = 1000 * 8.0 / 8_000_000 + 0.01

    def _send_one(self, **kwargs):
        sim, net, inboxes = make_network(n=2, proc=self.PROC, **kwargs)
        net.send(0, 1, "m", 1000, None)
        return sim, net, inboxes

    def test_receiver_crashing_during_the_service_drops_the_copy_once(self):
        sim, net, inboxes = self._send_one()
        sim.schedule_at(self.ARRIVAL + 0.005, lambda: net.set_node_down(1))
        sim.run()
        assert inboxes[1] == []
        assert net.stats.messages_dropped == 1
        assert net.stats.messages_delivered == 0

    def test_receiver_crashing_with_copies_waiting_counts_each_once(self):
        sim, net, inboxes = make_network(n=4, proc=self.PROC)
        for src in (1, 2, 3):
            net.send(src, 0, "m", 1000, src)
        # 1 is served at ARRIVAL + PROC; 2 and 3 wait when the node dies.
        sim.schedule_at(self.ARRIVAL + 0.015, lambda: net.set_node_down(0))
        sim.run()
        assert [env.payload for _, env in inboxes[0]] == [1]
        assert net.stats.messages_dropped == 2

    def test_receiver_down_on_arrival_and_back_before_the_event(self):
        sim, net, inboxes = self._send_one()
        sim.schedule_at(0.005, lambda: net.set_node_down(1))
        sim.schedule_at(self.ARRIVAL + 0.005, lambda: net.set_node_up(1))
        sim.run()
        assert inboxes[1] == []
        assert net.stats.messages_dropped == 1

    def test_receiver_back_before_arrival_gets_the_copy(self):
        sim, net, inboxes = self._send_one()
        sim.schedule_at(0.005, lambda: net.set_node_down(1))
        sim.schedule_at(self.ARRIVAL - 0.001, lambda: net.set_node_up(1))
        sim.run()
        assert [when for when, _ in inboxes[1]] == [self.ARRIVAL + self.PROC]
        assert net.stats.messages_dropped == 0

    @pytest.mark.parametrize("start, duration, delivered", [
        (0.0, ARRIVAL + 0.005, False),  # closes between t_a and t_a + proc
        (ARRIVAL + 0.005, 1.0, True),   # opens between them
        (ARRIVAL, 0.001, False),        # opens exactly at t_a
        (0.0, ARRIVAL, True),           # closes exactly at t_a
    ])
    @pytest.mark.parametrize("kind", ["partition", "loss"])
    def test_window_edge_inside_the_service_is_judged_at_arrival(
        self, kind, start, duration, delivered,
    ):
        window = (
            Window("partition", start, start + duration, groups=((0,),))
            if kind == "partition"
            else Window("loss", start, start + duration, rate=1.0)
        )
        sim, net, inboxes = self._send_one()
        net.set_link_faults(LinkFaults([window], random.Random(1)))
        sim.run()
        assert bool(inboxes[1]) == delivered
        assert net.stats.messages_dropped == (0 if delivered else 1)
