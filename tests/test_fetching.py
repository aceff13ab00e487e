"""Unit tests for the fetch manager and its target providers."""

import random

import pytest

from repro.config import ProtocolConfig
from repro.mempool import fetching
from repro.mempool.base import MessageKinds
from repro.mempool.fetching import (
    FetchManager,
    backoff_delay,
    sampled_signers,
    single_target,
)
from repro.mempool.store import MicroBlockStore
from repro.replica.behavior import HonestBehavior, SilentReplica
from repro.sim import Network, RngRegistry, Simulator
from repro.sim.topology import Topology
from repro.types import MicroBlock, make_microblock_id

from tests.test_live import _HandFiredClock


class FakeHost:
    def __init__(self, node_id, sim, network):
        self.node_id = node_id
        self.sim = sim
        self.network = network
        self.behavior = HonestBehavior()
        self.rng = random.Random(1)
        self.metrics = _FakeMetrics()

    def trace(self, kind, **details):
        pass


class _FakeMetrics:
    def __init__(self):
        self.fetches = 0
        self.abandoned = 0

    def record_fetch(self):
        self.fetches += 1

    def record_fetch_abandoned(self):
        self.abandoned += 1


def make_env(n=4):
    sim = Simulator()
    topo = Topology(n, one_way_delay=0.01, bandwidth_bps=1e9)
    net = Network(sim, topo, RngRegistry(3))
    inboxes = {i: [] for i in range(n)}
    hosts = []
    for i in range(n):
        # register later per host; placeholder handlers that log
        pass
    for i in range(n):
        net.register(i, lambda env, i=i: inboxes[i].append(env))
    host = FakeHost(0, sim, net)
    return sim, net, inboxes, host


def make_mb(counter=0):
    return MicroBlock(
        id=make_microblock_id(1, counter), origin=1, tx_count=4,
        tx_payload=128, created_at=0.0, sum_arrival=0.0,
    )


def test_request_sends_and_retries_on_timeout():
    sim, net, inboxes, host = make_env()
    config = ProtocolConfig(n=4, fetch_timeout=0.1)
    store = MicroBlockStore()
    manager = FetchManager(host, config, store)
    mb = make_mb()
    manager.request(mb.id, single_target(2))
    sim.run_until(0.35)
    requests = [env for env in inboxes[2]
                if env.kind == MessageKinds.FETCH_REQUEST]
    assert len(requests) >= 3  # initial round + two retries
    assert host.metrics.fetches >= 3


def test_delivery_cancels_retries():
    sim, net, inboxes, host = make_env()
    config = ProtocolConfig(n=4, fetch_timeout=0.1)
    store = MicroBlockStore()
    manager = FetchManager(host, config, store)
    mb = make_mb()
    manager.request(mb.id, single_target(2))
    sim.run_until(0.05)
    store.add(mb)
    count_at_delivery = host.metrics.fetches
    sim.run_until(1.0)
    assert host.metrics.fetches == count_at_delivery
    assert manager.outstanding == 0


def test_request_is_idempotent():
    sim, net, inboxes, host = make_env()
    config = ProtocolConfig(n=4, fetch_timeout=10.0)
    manager = FetchManager(host, config, MicroBlockStore())
    mb = make_mb()
    manager.request(mb.id, single_target(2))
    manager.request(mb.id, single_target(3))
    sim.run_until(0.1)
    assert host.metrics.fetches == 1  # second request ignored


def test_request_skipped_when_already_stored():
    sim, net, inboxes, host = make_env()
    config = ProtocolConfig(n=4)
    store = MicroBlockStore()
    mb = make_mb()
    store.add(mb)
    manager = FetchManager(host, config, store)
    manager.request(mb.id, single_target(2))
    assert manager.outstanding == 0


def test_delayed_request_skips_if_body_arrives_in_grace():
    sim, net, inboxes, host = make_env()
    config = ProtocolConfig(n=4, fetch_timeout=0.2)
    store = MicroBlockStore()
    manager = FetchManager(host, config, store)
    mb = make_mb()
    manager.request(mb.id, single_target(2), grace=True)
    sim.run_until(0.1)
    store.add(mb)  # body arrives before the grace period expires
    sim.run_until(1.0)
    assert host.metrics.fetches == 0


def test_delayed_request_fires_after_grace():
    sim, net, inboxes, host = make_env()
    config = ProtocolConfig(n=4, fetch_timeout=0.2)
    manager = FetchManager(host, config, MicroBlockStore())
    mb = make_mb()
    manager.request(mb.id, single_target(2), grace=True)
    sim.run_until(0.1)
    assert host.metrics.fetches == 0
    sim.run_until(0.3)
    assert host.metrics.fetches == 1


class TestGraceQueue:
    """First rounds in their grace share one FIFO and one armed wake per
    manager: every grace is ``fetch_timeout`` long, so deadlines arrive
    in the order the requests did."""

    @pytest.fixture(autouse=True)
    def no_jitter(self, monkeypatch):
        monkeypatch.setattr(fetching, "FETCH_JITTER", 0.0)

    def _manager(self, **config):
        sim, net, inboxes, host = make_env()
        store = MicroBlockStore()
        manager = FetchManager(host, ProtocolConfig(n=4, **config), store)
        return sim, inboxes, host, store, manager

    def test_bodies_landing_inside_the_grace_cost_one_wake(self):
        sim, inboxes, host, store, manager = self._manager(fetch_timeout=0.2)
        blocks = [make_mb(counter) for counter in range(20)]
        for index, mb in enumerate(blocks):  # 20 proofs, 1 ms apart
            sim.run_until(index * 0.001)
            manager.request(mb.id, single_target(2), grace=True)
        sim.run_until(0.1)
        for mb in blocks:
            store.add(mb)
        before = sim.processed
        sim.run_until(5.0)
        assert sim.processed - before <= 1
        assert host.metrics.fetches == 0
        assert manager.outstanding == 0

    def test_a_body_landed_in_the_grace_is_forgotten_at_its_deadline(self):
        sim, inboxes, host, store, manager = self._manager(fetch_timeout=0.2)
        mb = make_mb()
        manager.request(mb.id, single_target(2), grace=True)
        sim.run_until(0.1)
        store.add(mb)
        sim.run_until(0.3)
        assert host.metrics.fetches == 0
        # Nothing else drops the id: kept, one entry per early proof
        # would pile up for the whole run.
        assert manager._pending == {}

    def test_outstanding_counts_only_undelivered_ids(self):
        sim, inboxes, host, store, manager = self._manager(fetch_timeout=0.2)
        landed, missing = make_mb(0), make_mb(1)
        for mb in (landed, missing):
            manager.request(mb.id, single_target(2), grace=True)
        assert manager.outstanding == 2
        store.add(landed)
        assert manager.outstanding == 1
        sim.run_until(0.3)
        assert manager.outstanding == 1
        assert [env.payload for env in inboxes[2]] == [missing.id]

    def test_missing_body_is_requested_at_exactly_the_deadline(self):
        sim, inboxes, host, store, manager = self._manager(
            fetch_timeout=0.125
        )
        sampling = ProtocolConfig(n=4, fetch_sample_fraction=0.5)
        blocks = [make_mb(counter) for counter in range(5)]
        for index, mb in enumerate(blocks):
            sim.run_until(index * 0.01)
            manager.request(
                mb.id,
                sampled_signers(sampling, host.rng, (1, 2, 3), host.node_id),
                grace=True,
            )
        for mb in blocks[:3] + blocks[4:]:
            store.add(mb)  # all but the fourth land inside the grace
        asked = []
        send = host.network.send
        host.network.send = lambda src, dst, kind, *rest: (
            asked.append((sim.now, dst, kind)), send(src, dst, kind, *rest),
        )
        sim.run_until(0.2)
        # The one round that runs is the first to draw from ``host.rng``
        # (seed 1), as it would be had every request owned a timer.
        targets = sampled_signers(
            sampling, random.Random(1), (1, 2, 3), host.node_id
        )(set())
        assert asked == [
            (0.03 + 0.125, target, MessageKinds.FETCH_REQUEST)
            for target in targets
        ]

    def _spy_sends(self, host):
        """``(now, target, id)`` of every request the manager sends."""
        sent = []
        send = host.network.send
        host.network.send = lambda src, dst, kind, size, payload, *rest: (
            sent.append((host.sim.now, dst, payload)),
            send(src, dst, kind, size, payload, *rest),
        )
        return sent

    def _spy_wakes(self, manager):
        """Deadlines the manager arms its grace wake at (its retries keep
        the simulator they were built with)."""
        armed = []
        sim = manager._host.sim

        class Spy:
            def __getattr__(self, name):
                return getattr(sim, name)

            def schedule_at(self, when, callback):
                armed.append(when)
                return sim.schedule_at(when, callback)

        manager._host.sim = Spy()
        return armed

    def test_only_the_live_incarnation_of_an_id_fires(self):
        sim, inboxes, host, store, manager = self._manager(fetch_timeout=0.2)
        sent = self._spy_sends(host)
        mb = make_mb()
        manager.request(mb.id, single_target(2), grace=True)
        sim.run_until(0.1)
        manager.cancel(mb.id)
        manager.request(mb.id, single_target(3), grace=True)
        sim.run_until(0.25)
        assert host.metrics.fetches == 0  # the first incarnation is dead
        sim.run_until(0.35)
        # The new incarnation, at its own deadline, to its own target.
        assert sent == [(pytest.approx(0.3), 3, mb.id)]
        assert isinstance(manager._pending[mb.id], fetching._PendingFetch)
        assert not manager._grace

    def test_entries_are_served_in_fifo_order_with_one_wake_per_deadline(
        self,
    ):
        sim, inboxes, host, store, manager = self._manager(fetch_timeout=0.3)
        sent = self._spy_sends(host)
        armed = self._spy_wakes(manager)
        first, second, third, fourth = (make_mb(count) for count in range(4))
        manager.request(first.id, single_target(1), grace=True)
        sim.run_until(0.05)
        manager.request(second.id, single_target(2), grace=True)
        manager.request(third.id, single_target(3), grace=True)
        sim.run_until(0.1)
        manager.request(fourth.id, single_target(1), grace=True)
        sim.run_until(0.5)  # the first retry is due at 0.6
        assert [(node, mb_id) for _, node, mb_id in sent] == [
            (1, first.id), (2, second.id), (3, third.id), (1, fourth.id),
        ]
        assert [when for when, _, _ in sent] == pytest.approx(
            [0.3, 0.35, 0.35, 0.4]
        )
        # One wake per distinct deadline (two ids share 0.35), each armed
        # as the one before it was served.
        assert armed == pytest.approx([0.3, 0.35, 0.4])

    def test_a_dead_head_is_dropped_without_a_wake_of_its_own(self):
        sim, inboxes, host, store, manager = self._manager(fetch_timeout=0.2)
        sent = self._spy_sends(host)
        armed = self._spy_wakes(manager)
        served, landed, cancelled, last = (
            make_mb(counter) for counter in range(4)
        )
        for index, mb in enumerate((served, landed, cancelled, last)):
            sim.run_until(index * 0.02)
            manager.request(mb.id, single_target(2), grace=True)
        store.add(landed)
        manager.cancel(cancelled.id)
        sim.run_until(0.35)
        assert [mb_id for _, _, mb_id in sent] == [served.id, last.id]
        # Served at 0.2, the head's two dead successors went at once: the
        # next wake is the live one's, not theirs.
        assert armed == pytest.approx([0.2, 0.26])
        assert set(manager._pending) == {served.id, last.id}
        assert not manager._grace

    def test_a_clock_reading_early_serves_the_due_entry(self):
        clock = _HandFiredClock()
        sent = []
        network = type("Net", (), {})()
        network.send = lambda *message: sent.append(message[4])
        host = FakeHost(0, clock, network)
        manager = FetchManager(
            host, ProtocolConfig(n=4, fetch_timeout=1.0), MicroBlockStore()
        )
        due, later = make_mb(0), make_mb(1)
        manager.request(due.id, single_target(2), grace=True)
        clock.time = 0.5
        manager.request(later.id, single_target(3), grace=True)
        assert clock.armed() == [1.0]  # one wake for both
        clock.time = 0.999  # a hair before the armed deadline
        clock.timers[0].fire()
        assert sent == [due.id]
        # The later entry's wake and the first round's retry, and no
        # other timer left armed.
        assert sorted(clock.armed()) == pytest.approx([1.5, 1.999])
        clock.time = 1.5
        [wake] = [timer for timer in clock.timers
                  if timer.active and timer.deadline == 1.5]
        wake.fire()
        assert sent == [due.id, later.id]
        assert manager._grace_at is None and not manager._grace
        # Its retry (2.5) queues behind the retry wake already armed.
        assert clock.armed() == pytest.approx([1.999])


class TestWindow:
    """At most ``FETCH_WINDOW`` fetches run rounds at once; the rest wait,
    in request order, for one of them to end."""

    @pytest.fixture(autouse=True)
    def no_jitter(self, monkeypatch):
        monkeypatch.setattr(fetching, "FETCH_JITTER", 0.0)

    def _requested(self, inboxes):
        return [env.payload for env in inboxes[2]
                if env.kind == MessageKinds.FETCH_REQUEST]

    def test_the_window_caps_running_fetches(self):
        sim, net, inboxes, host = make_env()
        store = MicroBlockStore()
        manager = FetchManager(
            host, ProtocolConfig(n=4, fetch_timeout=0.1), store
        )
        window = fetching.FETCH_WINDOW
        blocks = [make_mb(counter) for counter in range(3 * window)]
        for mb in blocks:
            manager.request(mb.id, single_target(2))
        assert manager._running == window
        sim.run_until(1.0)  # rounds repeat; nothing lands
        asked = self._requested(inboxes)
        assert set(asked) == {mb.id for mb in blocks[:window]}
        assert manager.outstanding == 3 * window
        # The first window lands: each slot frees at its retry deadline
        # and the next id in request order takes it.
        for mb in blocks[:window]:
            store.add(mb)
        sim.run_until(3.0)
        assert manager._running == window
        assert set(self._requested(inboxes)) == {
            mb.id for mb in blocks[:2 * window]
        }
        # A cancelled running fetch frees its slot too.
        manager.cancel(blocks[window].id)
        sim.run_until(3.05)
        assert manager._running == window
        assert blocks[2 * window].id in self._requested(inboxes)

    def test_a_waiting_fetch_that_lands_or_is_cancelled_never_runs(self):
        sim, net, inboxes, host = make_env()
        store = MicroBlockStore()
        manager = FetchManager(
            host, ProtocolConfig(n=4, fetch_timeout=0.1), store
        )
        window = fetching.FETCH_WINDOW
        running = [make_mb(counter) for counter in range(window)]
        landed, cancelled, last = (
            make_mb(counter) for counter in range(window, window + 3)
        )
        for mb in running + [landed, cancelled, last]:
            manager.request(mb.id, single_target(2), grace=True)
        sim.run_until(0.15)  # every grace is over: three wait
        assert manager._running == window
        store.add(landed)
        manager.cancel(cancelled.id)
        store.add(running[0])
        sim.run_until(0.25)  # running[0]'s retry deadline frees one slot
        asked = self._requested(inboxes)
        assert last.id in asked
        assert landed.id not in asked and cancelled.id not in asked
        assert landed.id not in manager._pending
        assert manager._running == window


def test_handle_request_serves_stored_body():
    sim, net, inboxes, host = make_env()
    config = ProtocolConfig(n=4)
    store = MicroBlockStore()
    mb = make_mb()
    store.add(mb)
    manager = FetchManager(host, config, store)
    manager.handle_request(3, mb.id)
    sim.run()
    bodies = [env for env in inboxes[3]
              if env.kind == MessageKinds.MICROBLOCK_FETCH]
    assert len(bodies) == 1
    assert bodies[0].payload is mb


def test_handle_request_ignores_unknown_and_byzantine():
    sim, net, inboxes, host = make_env()
    config = ProtocolConfig(n=4)
    store = MicroBlockStore()
    manager = FetchManager(host, config, store)
    manager.handle_request(3, make_mb().id)  # unknown id
    host.behavior = SilentReplica()
    mb = make_mb()
    store.add(mb)
    manager.handle_request(3, mb.id)  # Byzantine: refuses to serve
    sim.run()
    assert inboxes[3] == []


class TestTargetProviders:
    def test_single_target_constant(self):
        provider = single_target(5)
        assert provider(set()) == [5]
        assert provider({5}) == [5]

    def test_sampled_signers_excludes_self_and_requested(self):
        config = ProtocolConfig(n=10, fetch_sample_fraction=1.0)
        provider = sampled_signers(
            config, random.Random(1), signers=(0, 1, 2, 3), own_id=0)
        targets = provider({1})
        assert 0 not in targets
        assert 1 not in targets
        assert set(targets) <= {2, 3}

    def test_sampled_signers_always_picks_at_least_one(self):
        config = ProtocolConfig(n=10, fetch_sample_fraction=0.0001)
        provider = sampled_signers(
            config, random.Random(1), signers=(1, 2, 3), own_id=0)
        for _ in range(20):
            assert len(provider(set())) >= 1

    def test_sampled_signers_respects_max_targets(self, monkeypatch):
        monkeypatch.setattr(fetching, "FETCH_MAX_TARGETS", 3)
        config = ProtocolConfig(n=40, fetch_sample_fraction=1.0)
        provider = sampled_signers(
            config, random.Random(1), signers=tuple(range(1, 30)), own_id=0)
        assert len(provider(set())) <= 3

    def test_sampled_signers_empty_when_exhausted(self):
        config = ProtocolConfig(n=10)
        provider = sampled_signers(
            config, random.Random(1), signers=(1, 2), own_id=0)
        assert provider({1, 2}) == []


class TestBackoff:
    def test_delays_grow_exponentially_to_cap(self, monkeypatch):
        monkeypatch.setattr(fetching, "FETCH_BACKOFF_FACTOR", 2.0)
        monkeypatch.setattr(fetching, "FETCH_BACKOFF_MAX", 0.4)
        monkeypatch.setattr(fetching, "FETCH_JITTER", 0.0)
        config = ProtocolConfig(n=4, fetch_timeout=0.1)
        rng = random.Random(1)
        delays = [backoff_delay(config, rounds, rng) for rounds in (1, 2, 3, 4)]
        assert delays == [0.1, 0.2, 0.4, 0.4]  # capped at FETCH_BACKOFF_MAX

    def test_jitter_stays_within_bounds(self, monkeypatch):
        monkeypatch.setattr(fetching, "FETCH_JITTER", 0.2)
        config = ProtocolConfig(n=4, fetch_timeout=0.1)
        rng = random.Random(7)
        for _ in range(50):
            delay = backoff_delay(config, 1, rng)
            assert 0.08 <= delay <= 0.12

    def test_abandoned_after_max_rounds(self, monkeypatch):
        monkeypatch.setattr(fetching, "FETCH_JITTER", 0.0)
        monkeypatch.setattr(fetching, "FETCH_MAX_ROUNDS", 3)
        sim, net, inboxes, host = make_env()
        config = ProtocolConfig(n=4, fetch_timeout=0.05)
        manager = FetchManager(host, config, MicroBlockStore())
        manager.request(make_mb().id, single_target(2))
        sim.run_until(5.0)
        assert host.metrics.fetches == 3  # rounds 1..3, then give up
        assert host.metrics.abandoned == 1
        assert manager.outstanding == 0

    def test_zero_max_rounds_retries_forever(self, monkeypatch):
        monkeypatch.setattr(fetching, "FETCH_JITTER", 0.0)
        monkeypatch.setattr(fetching, "FETCH_MAX_ROUNDS", 0)
        monkeypatch.setattr(fetching, "FETCH_BACKOFF_FACTOR", 1.0)
        sim, net, inboxes, host = make_env()
        config = ProtocolConfig(n=4, fetch_timeout=0.05)
        manager = FetchManager(host, config, MicroBlockStore())
        manager.request(make_mb().id, single_target(2))
        sim.run_until(5.0)
        assert host.metrics.abandoned == 0
        assert manager.outstanding == 1
        assert host.metrics.fetches > 50

    def test_cancel_stops_retries(self, monkeypatch):
        monkeypatch.setattr(fetching, "FETCH_JITTER", 0.0)
        sim, net, inboxes, host = make_env()
        config = ProtocolConfig(n=4, fetch_timeout=0.1)
        manager = FetchManager(host, config, MicroBlockStore())
        mb = make_mb()
        manager.request(mb.id, single_target(2))
        sim.run_until(0.05)
        manager.cancel(mb.id)
        fetched = host.metrics.fetches
        sim.run_until(2.0)
        assert host.metrics.fetches == fetched
        assert manager.outstanding == 0
        assert host.metrics.abandoned == 0


@pytest.mark.parametrize("seed", [7, 8])
def test_a_replica_catching_up_leaves_its_peers_blocks_whole(seed):
    """Replica 6 of 7 is down for 3 s of a WAN run at 15k tx/s and comes
    back missing hundreds of bodies. Its fetch replies must not crowd
    its peers' pushes off their uplinks: the blocks committed in the
    second after the cluster resumes keep the size the cluster settles
    at. Without the window they had half of it (9.0 / 8.9 microblocks a
    block against 17.0 / 16.9 at seeds 7 / 8)."""
    from repro.faults import FaultSchedule, Window
    from repro.harness.config import ExperimentConfig
    from repro.harness.presets import tuned_protocol
    from repro.harness.runner import build_experiment

    experiment = build_experiment(ExperimentConfig(
        tuned_protocol(
            "S-HS", 7, "wan", batch_bytes=16_384, batch_timeout=0.1,
            lb_samples=3,
        ),
        topology_kind="wan", link_model="fair-share", selector="zipf1",
        rate_tps=15_000, warmup=0.5, duration=8.0, seed=seed,
        faults=FaultSchedule([Window("crash", 1.0, 4.0, nodes=(6,))]),
    ))
    experiment.run()
    assert experiment.metrics.fetch_count > 300

    def microblocks_per_block(start, end):
        sizes = [
            commit.microblock_count for commit in experiment.metrics.commits
            if start <= commit.commit_time < end
        ]
        return sum(sizes) / len(sizes)

    assert microblocks_per_block(6.0, 7.0) >= 0.8 * microblocks_per_block(
        7.0, 8.5
    )
