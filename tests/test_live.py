"""Live runtime tests: scheduler/transport units, oracle replay, and the
4-replica localhost smoke runs demanded by the acceptance criteria."""

import asyncio
import json
import time

import pytest

from repro.config import CONSENSUS_KINDS, ProtocolConfig
from repro.harness import build_experiment
from repro.harness.config import ExperimentConfig
from repro.live.network import LiveNetwork
from repro.live.replica_proc import build_replica
from repro.live.orchestrator import (
    LiveConfig,
    _Incarnation,
    _merge,
    _read_events,
    allocate_ports,
    run_live,
)
from repro.live.scheduler import RealtimeScheduler
from repro.live.verify import replay_events
from repro.live.wire import get_codec, to_wire
from repro.mempool.base import MessageKinds
from repro.sim.interfaces import Channel, DeadlineQueue, Scheduler, Transport
from repro.sim.engine import Simulator
from repro.sim.network import Network
from repro.sim.rng import RngRegistry
from repro.sim.topology import lan_topology
from repro.types.microblock import MicroBlock
from repro.types.proposal import Payload, Proposal
from repro.crypto.certificates import QuorumCert

from tests.helpers import MEMPOOL_CELLS, mempool_fields


# -- the seam ----------------------------------------------------------------

def test_sim_backends_satisfy_the_seam():
    assert issubclass(Simulator, Scheduler)
    assert issubclass(Network, Transport)
    assert issubclass(RealtimeScheduler, Scheduler)
    assert issubclass(LiveNetwork, Transport)


# -- realtime scheduler ------------------------------------------------------

def test_realtime_scheduler_clock_tracks_epoch():
    async def scenario():
        loop = asyncio.get_running_loop()
        scheduler = RealtimeScheduler(loop, epoch=time.time() - 5.0)
        assert 4.9 < scheduler.now < 5.5

    asyncio.run(scenario())


def test_realtime_scheduler_fires_and_cancels_timers():
    async def scenario():
        loop = asyncio.get_running_loop()
        scheduler = RealtimeScheduler(loop)
        fired = []
        keep = scheduler.schedule(0.01, lambda: fired.append("keep"))
        drop = scheduler.schedule(0.01, lambda: fired.append("drop"))
        drop.cancel()
        assert keep.active and not drop.active
        assert 0.0 < keep.deadline - scheduler.now <= 0.01
        await asyncio.sleep(0.05)
        assert fired == ["keep"]
        assert not keep.active  # fired timers stop reporting active
        keep.cancel()  # cancelling a fired timer is a no-op

    asyncio.run(scenario())


def test_realtime_scheduler_clamps_negative_delay():
    async def scenario():
        loop = asyncio.get_running_loop()
        scheduler = RealtimeScheduler(loop)
        fired = []
        scheduler.schedule_at(scheduler.now - 10.0, lambda: fired.append(1))
        await asyncio.sleep(0.02)
        assert fired == [1]

    asyncio.run(scenario())


def test_deadline_queue_serves_in_deadline_order_on_the_wall_clock():
    async def scenario():
        loop = asyncio.get_running_loop()
        scheduler = RealtimeScheduler(loop)
        served = []
        dead = {"late-dead"}
        queue = DeadlineQueue(
            scheduler, lambda item: served.append((item, scheduler.now)),
            lambda item: item not in dead,
        )
        start = scheduler.now
        queue.defer(0.06, "third")
        queue.defer(0.02, "first")  # earlier than the armed wake
        queue.defer(0.04, "second")
        queue.defer(0.30, "late-dead")  # dropped, never waited for
        await asyncio.sleep(0.15)
        assert [item for item, _ in served] == ["first", "second", "third"]
        # Each at its own deadline (a wall clock is late, never early by
        # more than its skew against the loop's clock).
        for (_, when), due in zip(served, (0.02, 0.04, 0.06)):
            assert start + due - 0.005 <= when < start + due + 0.05
        assert queue._timer is None  # nothing armed for the dead entry

    asyncio.run(scenario())


class _HandFiredClock(Scheduler):
    """Timers the test fires itself, at whatever ``now`` it has set: a
    wall clock that reads a hair before the deadline of a fired timer."""

    class _Timer:
        def __init__(self, deadline, callback):
            self.deadline, self.callback, self.active = deadline, callback, True

        def cancel(self):
            self.active = False

        def fire(self):
            self.active = False
            self.callback()

    def __init__(self):
        self.time = 0.0
        self.timers = []

    @property
    def now(self):
        return self.time

    def schedule(self, delay, callback):
        return self.schedule_at(self.time + delay, callback)

    def schedule_at(self, time, callback):
        self.timers.append(self._Timer(time, callback))
        return self.timers[-1]

    def armed(self):
        return [timer.deadline for timer in self.timers if timer.active]


def test_deadline_queue_arms_nothing_while_it_serves_a_fired_timer():
    clock = _HandFiredClock()
    served = []

    def on_due(item):
        served.append(item)
        if item == "a":
            # Due before the deadline the fired timer was armed for, which
            # the early-reading clock makes possible.
            queue.defer(0.0005, "b")

    queue = DeadlineQueue(clock, on_due)
    queue.defer(1.0, "a")
    clock.time = 0.999
    clock.timers[0].fire()
    assert served == ["a", "b"]
    assert clock.armed() == []  # no timer left behind untracked
    queue.defer(5.0, "c")
    assert clock.armed() == [5.999]
    clock.time = 1.0
    for timer in clock.timers[:-1]:
        assert not timer.active
    assert served == ["a", "b"]  # "c" waits for its own deadline
    clock.time = 6.0
    clock.timers[-1].fire()
    assert served == ["a", "b", "c"] and clock.armed() == []


def test_deadline_queue_hands_over_only_what_is_still_live_when_due():
    clock = _HandFiredClock()
    served, dead = [], set()
    queue = DeadlineQueue(clock, served.append, lambda item: item not in dead)
    for item in ("kept", "dropped", "later"):
        queue.defer(2.0 if item == "later" else 1.0, item)
    dead.add("dropped")
    clock.time = 1.0
    clock.timers[0].fire()
    assert served == ["kept"]
    assert clock.armed() == [2.0]


# -- live network ------------------------------------------------------------

def test_live_network_delivers_between_two_endpoints():
    async def scenario():
        loop = asyncio.get_running_loop()
        ports = allocate_ports(2)
        scheduler = RealtimeScheduler(loop)
        alice = LiveNetwork(0, ports, scheduler)
        bob = LiveNetwork(1, ports, scheduler)
        received = []
        alice.register(0, lambda env: received.append(("alice", env)))
        bob.register(1, lambda env: received.append(("bob", env)))
        await alice.start()
        await bob.start()

        for sequence in range(5):
            alice.send(0, 1, MessageKinds.FETCH_REQUEST, 8, sequence,
                       Channel.CONTROL)
        alice.send(0, 0, MessageKinds.RB_ECHO, 8, 99)  # loopback
        bob.broadcast(1, MessageKinds.RB_READY, 8, 7)

        deadline = loop.time() + 5.0
        while len(received) < 7 and loop.time() < deadline:
            await asyncio.sleep(0.01)
        await alice.close()
        await bob.close()

        bob_got = [env.payload for who, env in received if who == "bob"
                   and env.kind == MessageKinds.FETCH_REQUEST]
        assert bob_got == [0, 1, 2, 3, 4]  # per-peer FIFO preserved
        alice_got = [(env.kind, env.payload, env.src)
                     for who, env in received if who == "alice"]
        assert (MessageKinds.RB_ECHO, 99, 0) in alice_got  # loopback
        assert (MessageKinds.RB_READY, 7, 1) in alice_got  # broadcast
        assert alice.bytes_out > 0 and bob.bytes_in > 0

    asyncio.run(scenario())


@pytest.mark.parametrize("foreign", [
    get_codec("json").encode(2, MessageKinds.RB_READY, Channel.CONTROL, 5),
    b"GET / HTTP/1.1\r\nHost: localhost\r\n\r\n",
], ids=["json-frames", "not-wire"])
def test_live_network_drops_a_foreign_stream_and_keeps_its_peers(foreign):
    """A binary node fed another codec's frames, or bytes from no wire,
    closes that stream alone: its peer's frames keep arriving."""
    async def scenario():
        loop = asyncio.get_running_loop()
        ports = allocate_ports(2)
        scheduler = RealtimeScheduler(loop)
        bob = LiveNetwork(1, {1: ports[1]}, scheduler, codec="binary")
        received = []
        bob.register(1, received.append)
        await bob.start()
        alice = LiveNetwork(0, ports, scheduler, codec="binary")
        await alice.start(listen=False)

        async def send_and_wait(sequence):
            alice.send(0, 1, MessageKinds.FETCH_REQUEST, 8, sequence,
                       Channel.CONTROL)
            deadline = loop.time() + 5.0
            while len(received) <= sequence and loop.time() < deadline:
                await asyncio.sleep(0.01)

        await send_and_wait(0)
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", ports[1]
        )
        writer.write(foreign)
        await writer.drain()
        # Bob abandons the stream: it closes from his side.
        assert await asyncio.wait_for(reader.read(), timeout=5.0) == b""
        writer.close()
        await send_and_wait(1)
        await alice.close()
        await bob.close()
        assert [(env.src, env.payload) for env in received] == [
            (0, 0), (0, 1),
        ]

    asyncio.run(scenario())


def test_live_network_rejects_foreign_registration():
    async def scenario():
        loop = asyncio.get_running_loop()
        network = LiveNetwork(0, allocate_ports(2), RealtimeScheduler(loop))
        with pytest.raises(ValueError, match="cannot host"):
            network.register(1, lambda env: None)

    asyncio.run(scenario())


def test_send_accounting_skips_backpressure_drops():
    """Frames shed by a full bounded queue must not count as sent."""
    async def scenario():
        from repro.live.network import DATA_QUEUE_CAP

        loop = asyncio.get_running_loop()
        ports = allocate_ports(2)  # nothing listens on either port
        network = LiveNetwork(0, ports, RealtimeScheduler(loop))
        await network.start(listen=False)
        extra = 25
        for index in range(DATA_QUEUE_CAP + extra):
            network.send(0, 1, MessageKinds.MICROBLOCK, 8, index)
        # The link never connects, so exactly DATA_QUEUE_CAP frames
        # boarded; the overflow was dropped and must not be in the
        # sent tallies (the pre-fix code counted all of them).
        assert network.stats.messages_sent[MessageKinds.MICROBLOCK] == (
            DATA_QUEUE_CAP
        )
        assert network.stats.frames_dropped == extra
        # byte tally covers exactly the frames that boarded, no more
        expected = sum(
            len(network.codec.encode(
                0, MessageKinds.MICROBLOCK, Channel.DATA, index))
            for index in range(DATA_QUEUE_CAP)
        )
        assert network.stats.node_bytes(0) == expected
        await network.close(drain_timeout=0.05)

    asyncio.run(scenario())


def test_broadcast_encodes_once_per_payload():
    async def scenario():
        loop = asyncio.get_running_loop()
        ports = allocate_ports(4)
        network = LiveNetwork(0, ports, RealtimeScheduler(loop))
        await network.start(listen=False)
        encoded = []
        real_codec = network.codec

        class CountingCodec:
            name = real_codec.name
            decode = staticmethod(real_codec.decode)

            @staticmethod
            def encode(src, kind, channel, payload):
                encoded.append(kind)
                return real_codec.encode(src, kind, channel, payload)

        network.codec = CountingCodec()
        network.broadcast(0, MessageKinds.RB_READY, 8, 1234)
        assert encoded == [MessageKinds.RB_READY]  # one encode, 3 links
        assert network.stats.messages_sent[MessageKinds.RB_READY] == 3
        await network.close(drain_timeout=0.05)

    asyncio.run(scenario())


def test_live_network_send_asserts_purity():
    async def scenario():
        loop = asyncio.get_running_loop()
        ports = allocate_ports(2)
        network = LiveNetwork(0, ports, RealtimeScheduler(loop))
        await network.start(listen=False)
        from repro.live.wire import WireError

        with pytest.raises(WireError, match="pure data"):
            network.send(0, 1, MessageKinds.MICROBLOCK, 8, object())
        await network.close()

    asyncio.run(scenario())


# -- oracle replay -----------------------------------------------------------

def _proposal(block_id, height, parent_id, proposer=0, mb_ids=()):
    return Proposal(
        block_id=block_id, view=height, height=height, proposer=proposer,
        parent_id=parent_id,
        justify=QuorumCert(block_id=parent_id, view=0, signers=(0, 1, 2)),
        payload=Payload(entries=()),
        created_at=float(height),
    )


def _commit_event(t, node, proposal):
    return {"t": t, "node": node, "kind": "commit", "data": to_wire(proposal)}


#: The run the replayed events claim to come from (unsharded checks).
REPLAY_CONFIG = ExperimentConfig(
    protocol=ProtocolConfig(n=4, mempool="simple"),
)


def test_verify_events_accepts_consistent_chains():
    chain = [_proposal(10, 1, 0), _proposal(11, 2, 10)]
    events = [
        _commit_event(float(i), node, prop)
        for node in (0, 1)
        for i, prop in enumerate(chain)
    ]
    assert replay_events(events, REPLAY_CONFIG, 0)[1] == []


def test_verify_events_flags_a_fork():
    events = [
        _commit_event(1.0, 0, _proposal(10, 1, 0)),
        _commit_event(1.1, 1, _proposal(99, 1, 0)),  # same height, other block
    ]
    violations = replay_events(events, REPLAY_CONFIG, 0)[1]
    assert any(v.kind == "fork" for v in violations)


def test_verify_events_flags_fabricated_microblocks():
    mb = MicroBlock(id=77, origin=0, tx_count=5, tx_payload=128,
                    created_at=0.5, sum_arrival=2.0)
    committed = Proposal(
        block_id=10, view=1, height=1, proposer=0, parent_id=0,
        justify=QuorumCert(block_id=0, view=0, signers=(0, 1, 2)),
        payload=Payload(entries=()), created_at=1.0,
    )
    committed.payload = Payload(
        entries=tuple(), embedded=(mb,)
    )
    events = [_commit_event(1.0, 0, committed)]  # no creation event
    violations = replay_events(events, REPLAY_CONFIG, 100)[1]
    assert any(v.kind == "fabricated" for v in violations)
    # with the creation recorded, the same commit is clean
    events = [
        {"t": 0.5, "node": 0, "kind": "mb", "data": to_wire(mb)},
        _commit_event(1.0, 0, committed),
    ]
    assert replay_events(events, REPLAY_CONFIG, 100)[1] == []


def _log(path, records):
    path.write_text("".join(json.dumps(record) + "\n" for record in records))


def test_a_killed_incarnation_has_no_row_but_its_commits_count(tmp_path):
    """The last record of an incarnation that exits on its own is its
    ``per_replica`` row; a SIGKILLed one has no row (and may end on a
    torn line), yet the commits it logged are in the run's hub. The
    replay never sees a ``result`` record."""
    def commit(t, node, block_id):
        return {"t": t, "node": node, "kind": "record_commit",
                "data": [block_id, 4, 1, [[0.1, 4]], t]}

    row = {"node_id": 0, "generation": 0, "bytes_out": 10}
    survivor = _Incarnation(0, 0, None, str(tmp_path / "r0.jsonl"))
    _log(tmp_path / "r0.jsonl", [
        commit(1.0, 0, 10),
        {"t": 2.0, "node": 0, "kind": "result", "data": row},
    ])
    victim = _Incarnation(3, 0, None, str(tmp_path / "r3.jsonl"),
                          killed=True)
    _log(tmp_path / "r3.jsonl", [commit(0.5, 3, 9)])
    with open(victim.events_path, "a", encoding="utf-8") as handle:
        handle.write('{"t": 0.6, "node"')  # torn by SIGKILL

    failures = []
    events, rows = _read_events([survivor, victim], failures)
    assert failures == []
    assert rows == [row]
    assert all(event["kind"] != "result" for event in events)
    result = _merge(REPLAY_CONFIG, rows, events, 8, 1.0, None, "binary")
    assert [r["node_id"] for r in result.per_replica] == [0]
    assert result.metrics.recorded == {9, 10}
    assert result.committed_tx == 8

    # An incarnation that was not killed and logged no row failed.
    _log(tmp_path / "r0.jsonl", [commit(1.0, 0, 10)])
    _read_events([survivor], failures)
    assert failures == ["replica 0 (gen 0) logged no result"]


# -- one assembly --------------------------------------------------------------

@pytest.mark.parametrize("consensus", CONSENSUS_KINDS)
@pytest.mark.parametrize("mempool", MEMPOOL_CELLS)
def test_sim_and_live_assemble_the_same_stack(mempool, consensus, tmp_path):
    """A live replica process and the simulator put a replica together
    through one function: same classes, equal protocol parameters."""
    config = ExperimentConfig(
        protocol=ProtocolConfig(
            n=4, consensus=consensus, **mempool_fields(mempool)
        ),
        rate_tps=0.0, seed=7,
    )
    simulated = build_experiment(config).replicas[2]

    scheduler = Simulator()
    network = Network(scheduler, lan_topology(4), RngRegistry(config.seed))
    spec = {
        "protocol": config.protocol.to_dict(),
        "node_id": 2,
        "seed": config.seed,
        "events_path": str(tmp_path / "events.jsonl"),
    }
    live, recorder = build_replica(spec, scheduler, network)
    recorder.close({})

    assert type(live.mempool) is type(simulated.mempool)
    assert type(live.consensus) is type(simulated.consensus)
    assert live.config == simulated.config
    assert live.leader_set == simulated.leader_set
    assert type(live.behavior) is type(simulated.behavior)
    assert live.executor is None and simulated.executor is None
    assert live.observer is recorder and live.metrics is recorder


# -- 4-replica localhost smoke runs ------------------------------------------

def _live_config(mempool, rate=300.0):
    return LiveConfig(
        experiment=ExperimentConfig(
            protocol=ProtocolConfig(
                n=4, mempool=mempool, consensus="hotstuff"
            ),
            rate_tps=rate,
            duration=1.2,
            warmup=0.5,
            seed=7,
            label=f"smoke-{mempool}",
        ),
        startup_grace=2.5,
    )


@pytest.mark.slow
def test_live_smoke_hotstuff_stratus():
    result = run_live(_live_config("stratus"))
    assert result.committed_blocks >= 1
    assert result.violations == []
    assert result.committed_tx > 0
    assert all(entry["bytes_in"] > 0 for entry in result.per_replica)
    json.dumps(result.to_dict())  # the report must be JSON-able


@pytest.mark.slow
def test_live_smoke_hotstuff_native():
    result = run_live(_live_config("native"))
    assert result.committed_blocks >= 1
    assert result.violations == []


@pytest.mark.slow
def test_live_smoke_hotstuff_sharded_two_shards():
    """n=4 over real TCP with two shards — shard pushes, cert
    broadcasts, cert-bearing proposals, and the shard-aware replay
    oracles — on the live runtime. At n=4 the 4-member floor makes both
    shards span every replica."""
    config = LiveConfig(
        experiment=ExperimentConfig(
            protocol=ProtocolConfig(
                n=4, consensus="hotstuff", **mempool_fields("sharded-stratus"),
            ),
            rate_tps=300.0,
            duration=1.2,
            warmup=0.5,
            seed=7,
            label="smoke-sharded-stratus",
        ),
        startup_grace=2.5,
    )
    result = run_live(config)
    assert result.committed_blocks >= 1
    assert result.violations == []
    assert result.committed_tx > 0
    assert all(entry["bytes_in"] > 0 for entry in result.per_replica)
    json.dumps(result.to_dict())
