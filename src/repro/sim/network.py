"""Simulated message-passing network with bandwidth serialization.

Every replica owns one egress, an :class:`_Uplink`: three priority FIFOs
(consensus before control before data, the paper's "consensus channel /
data channel" optimization of Section VI). A send or broadcast is one
queued :class:`_Flow`, one shared payload expanded lazily into
per-recipient copies, so enqueueing a 127-recipient broadcast is O(1).
Two link models (``link_model``) drain the same FIFOs:

**serial** (default) — the store-and-forward model under which the
paper's Appendix-A throughput formulas are exact: the uplink is one wire
of finite bandwidth; a message of ``size`` bytes occupies it for
``size * 8 / bandwidth`` seconds, then takes the topology's one-way
delay to the receiver's handler; a broadcast to ``n - 1`` peers
serializes ``n - 1`` copies, which is what makes a leader shipping
megabyte proposals the bottleneck.

**fair-share** — concurrent transfers split link capacity instead of
queueing (:class:`_FairShareLinks`, the simpy ``Container``
uplink/downlink technique; DESIGN.md "Simulator scale-out"). A transfer
runs at ``min(B_up / |up_active|, B_down / |down_active|)``; rates move
only when a transfer starts or finishes, in one settle pass per sim
instant over the touched ("dirty") links, and an uplink keeps one armed
event, at its earliest finish. Bulk (DATA) transfers pass a bounded slot
pool per uplink; consensus and control bypass it.

A copy whose last byte left — a serial segment's, or a completed
transfer — takes one delivery path (:func:`_dispatch`): it has no heap
entry of its own but goes into its receiver's arrival queue, and a
receiver keeps one entry, the end of its next service (:class:`_Ingress`,
which serves the same three classes) — one event per service, not per
arrival.
"""

from __future__ import annotations

from bisect import insort as _insort
from collections import defaultdict, deque
from dataclasses import dataclass, field
from heapq import heappush as _heappush
from operator import attrgetter
from typing import TYPE_CHECKING, Callable, Optional

from repro.sim.engine import Simulator
from repro.sim.interfaces import Channel, Envelope, Handler, Transport

#: Allocation shortcut for the delivery loop: mint envelopes via
#: ``__new__`` + direct slot stores, skipping the ``__init__`` frame.
_env_new = Envelope.__new__
from repro.sim.rng import RngRegistry
from repro.sim.topology import Topology

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults.windows import LinkFaults

__all__ = [
    "Channel", "Envelope", "Handler", "NetworkStats", "Network", "LINK_MODELS",
]

LINK_MODELS = ("serial", "fair-share")

# Queue indexes of the per-channel FIFOs: the hot loops index lists with
# these ints (``Channel.__hash__`` is a Python call) and map an envelope's
# channel to its index by identity (so is the enum ``value`` descriptor).
_CONSENSUS = Channel.CONSENSUS.value
_CONTROL = Channel.CONTROL.value
_DATA = Channel.DATA.value
_DATA_MEMBER = Channel.DATA
_CONSENSUS_MEMBER = Channel.CONSENSUS

_INF = float("inf")
#: Sort key of a receiver's arrival queue. ``insort`` calls it from C,
#: so a copy's push is one built-in call however deep the queue is.
_arrived_at = attrgetter("arrived_at")


@dataclass
class NetworkStats:
    """Per-run accounting used by the Table III bandwidth benches. A send
    adds to two counters; byte totals are summed from ``bytes_sent``
    when asked for, after a run (whole bytes: exact in any order)."""

    #: (node, kind) -> bytes and kind -> copies, zero until added to.
    bytes_sent: dict = field(default_factory=lambda: defaultdict(float))
    messages_sent: dict = field(default_factory=lambda: defaultdict(int))
    messages_delivered: int = 0
    messages_dropped: int = 0
    # Live-backend gauges (0 in-sim): frames shed by the bounded per-peer
    # send queues, their deepest, and TCP connections re-established.
    frames_dropped: int = 0
    queue_high_watermark: int = 0
    reconnects: int = 0

    def record_send(self, node: int, kind: str, size_bytes: float) -> None:
        """Account one copy (the simulator's link models do this inline)."""
        self.bytes_sent[(node, kind)] += size_bytes
        self.messages_sent[kind] += 1

    def cancel_send(self, node: int, kind: str, size_bytes: float) -> None:
        """Un-account one copy a sender's crash cut short: a segment's
        copies are accounted when it starts, this one never cleared the
        uplink."""
        self.bytes_sent[(node, kind)] -= size_bytes
        self.messages_sent[kind] -= 1

    def node_bytes(self, node: int, kind: Optional[str] = None) -> float:
        """Total bytes sent by ``node``, optionally for one message kind."""
        if kind is not None:
            return self.bytes_sent.get((node, kind), 0.0)
        return sum(b for (src, _), b in self.bytes_sent.items() if src == node)

    def kind_bytes(self, kind: str) -> float:
        return sum(b for (_, k), b in self.bytes_sent.items() if k == kind)

    def total_bytes(self) -> float:
        """Bytes serialized network-wide (all senders, all kinds)."""
        return sum(self.bytes_sent.values())


class _Flow:
    """One send or broadcast awaiting serialization: one payload, its
    ``copies`` dsts, the egress FIFO it belongs to (``index``). The link
    model takes its copies a run at a time (``next_index``)."""

    __slots__ = (
        "kind", "size_bytes", "payload", "channel", "recipients", "copies",
        "index", "next_index", "enqueued_at",
    )

    def __init__(
        self, kind: str, size_bytes: float, payload: object, channel: Channel,
        recipients, copies: int, enqueued_at: float, priority: bool,
    ) -> None:
        self.kind = kind
        self.size_bytes = size_bytes
        self.payload = payload
        self.channel = channel
        self.recipients = recipients  # tuple/list of dst node ids
        self.copies = copies  # len(recipients)
        self.index = (
            _DATA if channel is _DATA_MEMBER or not priority
            else _CONSENSUS if channel is _CONSENSUS_MEMBER else _CONTROL
        )
        self.next_index = 0
        self.enqueued_at = enqueued_at


def _dispatch(
    network: "Network", src: int, dsts, duration: float,
    kind: str, size: float, payload: object, channel: Channel,
    enqueued_at: float,
) -> float:
    """The one delivery path of both link models: copies of one message
    whose last bytes leave ``src`` back to back, ``duration`` apart from
    now (a serial segment; the due copies of one fair-share flow, at
    ``duration`` 0). Returns when the last byte left.

    Each copy goes straight into its receiver's arrival queue and arms
    that ingress if it would be served before what is armed. The
    envelope comes from ``__new__`` + slot stores and, with no delay
    window, the delay replays Topology.delay bit for bit (uniform(a, b)
    is ``a + (b - a) * random()``; a recipient is never the sender).
    """
    sim = network.sim
    end = now = sim.now
    topology = network.topology
    faults = topology.link_faults
    plain = not (faults and faults.delays)
    base = topology._base_delay
    jit = topology._jitter
    neg = -jit
    span = jit - neg
    rng = network._jitter_rngs[src]
    rand = rng.random
    proc = network._proc
    ingresses = network._ingress
    heap = sim._queue
    seq = sim._seq
    for dst in dsts:
        end += duration
        envelope = _env_new(Envelope)
        envelope.src = src
        envelope.dst = dst
        envelope.kind = kind
        envelope.size_bytes = size
        envelope.payload = payload
        envelope.channel = channel
        envelope.enqueued_at = enqueued_at
        envelope.sent_at = end
        if not plain:
            delay = topology.delay(src, dst, now, rng)
        elif jit > 0:
            delay = base + (neg + span * rand())
            if delay < 0.0:
                delay = 0.0
        else:
            delay = base
        envelope.arrived_at = arrived = end + delay
        ingress = ingresses[dst]
        _insort(ingress.arrivals, envelope, key=_arrived_at)
        free_at = ingress.free_at
        wake = arrived + proc if free_at <= arrived else free_at + proc
        if wake < ingress.wake:
            ingress.wake = wake
            _heappush(heap, (wake, seq, _ingress_serve, ingress))
            seq += 1
    sim._seq = seq
    return end


class _Uplink:
    """One replica's egress: three priority FIFOs, under both link models.

    Under ``fair-share`` only DATA waits, in its FIFO, for a slot
    (:meth:`_FairShareLinks._admit`); the others start at enqueue.
    Under ``serial`` they drain into one wire, idle or transmitting (a
    segment holds the wire until ``busy_until``). The serializer works
    in *segments*: it takes the head flow, expands up to
    ``SEGMENT_MAX_COPIES`` copies (about ``SEGMENT_MAX_SECONDS`` of wire
    time, so a consensus message never waits long behind a bulk
    fan-out) and computes each copy's arrival analytically. A drain
    event at the segment's end exists only while something waits.
    """

    SEGMENT_MAX_COPIES = 8
    SEGMENT_MAX_SECONDS = 0.02

    __slots__ = ("node", "network", "queues", "busy_until", "draining")

    def __init__(self, node: int, network: "Network") -> None:
        self.node = node
        self.network = network
        # Indexed by Channel.value (_CONSENSUS/_CONTROL/_DATA).
        self.queues: list[deque[_Flow]] = [deque() for _ in Channel]
        #: End of the segment on the wire (or of the last one).
        self.busy_until = 0.0
        #: True while a drain event for ``busy_until`` is in the heap.
        self.draining = False

    def enqueue(self, flow: _Flow) -> None:
        network = self.network
        fair = network._fair
        if fair is not None and flow.index != _DATA:
            fair._start(self.node, flow, flow.copies, network.sim.now)
            return
        self.queues[flow.index].append(flow)
        if fair is not None:
            fair._admit(self.node, network.sim.now)
            return
        if self.draining:
            return
        sim = network.sim
        if sim.now >= self.busy_until:
            self._start_next()
            return
        self.draining = True
        _heappush(sim._queue, (self.busy_until, sim._seq, _Uplink._start_next, self))
        sim._seq += 1

    def _start_next(self) -> None:
        """Put the next segment on the serial wire; also the drain event
        at a segment's end (fire-path callback)."""
        self.draining = False
        queues = self.queues
        queue = queues[_CONSENSUS] or queues[_CONTROL] or queues[_DATA]
        if not queue:
            return
        network = self.network
        node = self.node
        topology = network.topology
        bandwidth = topology._plain_bandwidth
        if bandwidth is None:
            bandwidth = topology.bandwidth(node, now=network.sim.now)
        head = queue[0]
        size = head.size_bytes
        duration = size * 8.0 / bandwidth
        recipients = head.recipients
        index = head.next_index
        remaining = head.copies - index
        if remaining == 1:
            copies = 1
        elif duration <= 0.0:
            copies = min(remaining, self.SEGMENT_MAX_COPIES)
        else:
            budget = int(self.SEGMENT_MAX_SECONDS / duration)
            copies = min(remaining, self.SEGMENT_MAX_COPIES, max(1, budget))
        end = _dispatch(
            network, node, recipients[index:index + copies], duration,
            head.kind, size, head.payload, head.channel, head.enqueued_at,
        )
        head.next_index = index + copies
        if copies == remaining:
            queue.popleft()
        # ``NetworkStats.record_send``, inline on the per-segment path.
        stats = network.stats
        kind = head.kind
        stats.bytes_sent[(node, kind)] += size * copies
        stats.messages_sent[kind] += copies
        self.busy_until = end
        if queues[_CONSENSUS] or queues[_CONTROL] or queues[_DATA]:
            self.draining = True
            sim = network.sim
            _heappush(sim._queue, (end, sim._seq, _Uplink._start_next, self))
            sim._seq += 1


#: Terminates every arrival queue: a copy that never arrives.
_NEVER = Envelope(-1, -1, "", 0.0, None)
_NEVER.arrived_at = _INF


def _ingress_serve(ingress: "_Ingress") -> None:
    """The end of one service: an ingress's one event (fire-path callback).

    Every copy that had arrived by this service's start is judged, in
    arrival order and for its ``arrived_at``: cut short by its sender's
    crash, receiver down on arrival, drop filter and loss coin, receiver
    crashed since. What passes joins its class FIFO, the head of the
    highest class gets the handler and the next service end is armed. A
    lone candidate skips the FIFOs: nothing waited, nothing overtakes it.
    """
    network = ingress.network
    sim = network.sim
    now = sim.now
    if ingress.wake != now:
        return  # superseded: a later-dispatched copy arrived earlier
    ingress.wake = _INF
    proc = network._proc
    queues = ingress.queues
    arrivals = ingress.arrivals
    stats = network.stats
    fair = network._fair
    flush_at = network._flush_at
    filters = network._filters_active
    envelope = arrivals[0]
    lone = (
        envelope.arrived_at + proc <= now < arrivals[1].arrived_at + proc
        and not (queues[_CONSENSUS] or queues[_CONTROL] or queues[_DATA])
    )
    served = None
    due = 0
    while envelope.arrived_at + proc <= now:
        due += 1
        arrived = envelope.arrived_at
        crashed = flush_at[envelope.src]
        if envelope.enqueued_at <= crashed < envelope.sent_at:
            # Its sender crashed before the last byte left: bytes handed back.
            stats.cancel_send(envelope.src, envelope.kind, envelope.size_bytes)
            stats.messages_dropped += 1
        elif (flush_at[envelope.dst] >= 0.0 or filters) and (
            # Down on arrival: no window is asked, no coin drawn.
            flush_at[envelope.dst] <= arrived < network._up_at[envelope.dst]
            or (filters and network._should_drop(envelope, arrived))
            # Up then, crashed since: it left with the ingress flush.
            or arrived < flush_at[envelope.dst]
        ):
            stats.messages_dropped += 1
        elif lone:
            served = envelope
        else:
            ch = envelope.channel
            queues[
                _DATA if ch is _DATA_MEMBER or not network.priority_channels
                else _CONSENSUS if ch is _CONSENSUS_MEMBER else _CONTROL
            ].append(envelope)
        envelope = arrivals[due]
    del arrivals[:due]
    queue = queues[_CONSENSUS] or queues[_CONTROL] or queues[_DATA]
    if queue:
        served = queue.popleft()
    if served is not None:
        # dst is registered: ``send`` and ``broadcast`` refuse anything else.
        ingress.free_at = now
        stats.messages_delivered += 1
        if fair is not None:
            fair.in_event = True
        network._handler_list[served.dst](served)
    if queues[_CONSENSUS] or queues[_CONTROL] or queues[_DATA]:
        wake = now + proc
    else:
        arrived = arrivals[0].arrived_at
        free_at = ingress.free_at
        wake = arrived + proc if free_at <= arrived else free_at + proc
    if wake < ingress.wake:
        ingress.wake = wake
        _heappush(sim._queue, (wake, sim._seq, _ingress_serve, ingress))
        sim._seq += 1
    if fair is not None:  # a flush the handler armed: after the re-arm
        fair.in_event = False
        if fair._reserved >= 0:
            _fair_flush(fair)


class _Ingress:
    """Receive-side processing queue: one CPU draining priority FIFOs.

    Each message costs ``proc_per_message`` seconds of handler time
    (signature verification, dispatch); consensus before control before
    data, the paper's channel priority on the receive side.

    A copy is pushed at dispatch into its receiver's ``arrivals``,
    ordered by ``arrived_at`` (dispatch order among equal instants), and
    the ingress keeps one heap entry: the end of its next service,
    ``max(free_at, earliest pending arrival) + proc``
    (:func:`_ingress_serve`). A copy dispatched later that would be
    served earlier arms an earlier entry; the superseded one finds
    ``wake`` moved and fires as a no-op.
    """

    __slots__ = ("network", "queues", "free_at", "arrivals", "wake")

    def __init__(self, network: "Network") -> None:
        self.network = network
        # Indexed by Channel.value (_CONSENSUS/_CONTROL/_DATA).
        self.queues: list[deque[Envelope]] = [deque() for _ in Channel]
        #: When the most recent service ended (-1.0 = never served).
        self.free_at = -1.0
        #: Copies not yet judged, then a sentinel (no length test to read).
        self.arrivals: list[Envelope] = [_NEVER]
        #: The instant of the armed service end (``inf`` = none armed).
        self.wake = _INF


class _Transfer:
    """One active fair-share transmission: one copy of ``flow``, src->dst
    (its slots filled by :meth:`_FairShareLinks._start`: no ``__init__``)."""

    __slots__ = (
        "flow", "src", "dst", "remaining_bits", "rate", "updated", "finish_at",
    )


class _BandwidthAt(dict):
    """Each node's ``Topology.bandwidth`` at one instant, read at its
    first lookup: on a topology that is not plain ``B`` may move with no
    membership change (a squeeze's edge)."""

    def __init__(self, read, now: float) -> None:
        self.read = read
        self.now = now

    def __missing__(self, node: int) -> float:
        bandwidth = self[node] = self.read(node, now=self.now)
        return bandwidth


def _fair_flush(fair: "_FairShareLinks") -> None:
    """Rate recompute for every dirty link, once per sim instant: run
    inline at the end of the network event that dirtied them, or as the
    heap entry of the sequence number they reserved when a queued entry
    precedes it.

    Every membership change since the last flush happened at this
    instant, so settling progress at the old rate and assigning the new
    share at one timestamp is exact, and a burst settles each transfer
    once: the transfers of the dirty uplinks, then those of the dirty
    downlinks not settled already, each set in node order.

    A link's share ``B / members`` moves only with its member count
    (``up_count``/``down_count``) on a plain topology; otherwise ``B``
    is read per touched node, into a table that dies with the flush.

    A transfer whose rate comes out as it was is not settled: its
    ``finish_at`` still holds. Settled or not, each is held against its
    uplink's armed wake, which moves when the earliest finish lies
    before it (or none is armed).
    """
    sim = fair.network.sim
    now = sim.now
    reserved = fair._reserved
    if reserved >= 0:  # the end of the event that reserved it
        fair._reserved = -1
        entry = (now, reserved, _fair_flush, fair)
        if sim._queue and sim._queue[0] < entry:
            _heappush(sim._queue, entry)
            return
    dirty_up = fair._dirty_up
    ups, downs = [*dirty_up], [*fair._dirty_down]
    fair._dirty_up, fair._dirty_down = {}, {}
    if ups[1:]:  # node order; one dirty link needs no sort
        ups.sort()
    if downs[1:]:
        downs.sort()
    topology = fair.network.topology
    bandwidth = fair.bandwidth
    if topology._plain_bandwidth is None:
        bandwidth = _BandwidthAt(topology.bandwidth, now)
    up_count, down_count = fair.up_count, fair.down_count
    wake = fair.wake
    earlier: dict[int, None] = {}
    settled = 0
    skip: dict[int, None] = {}  # senders the uplink pass settled
    for links, nodes in ((fair.up_active, ups), (fair.down_active, downs)):
        for node in nodes:
            for transfer in links[node]:
                src, dst = transfer.src, transfer.dst
                if src in skip:
                    continue
                rate = bandwidth[src] / up_count[src]
                share = bandwidth[dst] / down_count[dst]
                if share < rate:
                    rate = share
                if rate != transfer.rate:
                    settled += 1
                    elapsed = now - transfer.updated
                    if elapsed > 0.0:
                        transfer.remaining_bits -= transfer.rate * elapsed
                        if transfer.remaining_bits < 0.0:
                            transfer.remaining_bits = 0.0
                    transfer.updated = now
                    transfer.rate = rate
                    transfer.finish_at = (
                        now + transfer.remaining_bits / rate if rate > 0 else now
                    )
                if transfer.finish_at < wake[src] - 1e-12:
                    wake[src] = transfer.finish_at
                    earlier[src] = None
        skip = dirty_up
    fair.settle_ops += settled
    for src in earlier:  # one entry per uplink, at the minimum it ended on
        _heappush(sim._queue, (wake[src], sim._seq, fair._on_wake, src))
        sim._seq += 1


class _FairShareLinks:
    """What fair-share adds to the uplinks' FIFOs, for the whole network.

    Per node: the active outbound (uplink) and inbound (downlink)
    transfers and their counts, and DATA admission gated by ``slots``
    concurrent transfers. A transfer runs at
    ``min(B_up / |up_active|, B_down / |down_active|)``, which depends
    only on membership counts, so nothing cascades (the simpy Container
    technique of SNIPPETS Snippet 1 without per-byte token events).
    Membership changes mark their links *dirty* and one flush per sim
    instant re-rates the transfers on them (:func:`_fair_flush`), at the
    end of the network event that dirtied them.

    An uplink keeps one armed event, at the earliest ``finish_at`` among
    its transfers (``wake``; :meth:`_uplink_wake`): the flush moves it
    when that minimum moves earlier, the wake re-arms itself when rates
    fell and it fires early, and an entry it was moved away from fires
    as a no-op.
    """

    def __init__(self, network: "Network", slots: int) -> None:
        if slots < 1:
            raise ValueError(f"fair_share_slots must be >= 1, got {slots}")
        self.network = network
        self.slots = slots
        n = network.topology.n
        # Dicts as ordered sets: O(1) add/remove, deterministic iteration.
        self.up_active: list[dict[_Transfer, None]] = [{} for _ in range(n)]
        self.down_active: list[dict[_Transfer, None]] = [{} for _ in range(n)]
        #: ``len`` of each of the two, kept beside them.
        self.up_count: list[int] = [0] * n
        self.down_count: list[int] = [0] * n
        #: DATA transfers currently holding one of ``slots`` per uplink.
        self.data_in_flight: list[int] = [0] * n
        #: Links whose membership changed since the last rate flush; a
        #: flush is armed while any is.
        self._dirty_up: dict[int, None] = {}
        self._dirty_down: dict[int, None] = {}
        #: True while a network event runs; its end runs the flush
        #: reserved in it under sequence number ``_reserved`` (-1: none).
        self.in_event = False
        self._reserved = -1
        #: ``B`` per node with no window applied: the plain bandwidth
        #: while the topology is plain.
        self.bandwidth = [network.topology.bandwidth(node) for node in range(n)]
        #: The instant of each uplink's armed wake (``inf`` = none armed).
        self.wake: list[float] = [_INF] * n
        self._on_wake = self._uplink_wake
        #: Settles performed (``tests/test_fair_share.py`` bounds them).
        self.settle_ops = 0

    def _start(self, src: int, flow: _Flow, copies: int, now: float) -> None:
        """A run start (DATA from :meth:`_admit`, consensus or control
        whole at enqueue): ``flow``'s next ``copies`` copies become
        transfers, accounted with two ``+=``, and their links go dirty.
        The first dirty link arms this instant's flush behind every event
        queued for it: its sequence number taken now, its entry pushed
        now unless ``in_event``."""
        index = flow.next_index
        flow.next_index = index + copies
        stats = self.network.stats
        stats.bytes_sent[(src, flow.kind)] += flow.size_bytes * copies
        stats.messages_sent[flow.kind] += copies
        up = self.up_active[src]
        for dst in flow.recipients[index:index + copies]:
            transfer = _Transfer()
            transfer.flow = flow
            transfer.src = src
            transfer.dst = dst
            transfer.remaining_bits = flow.size_bytes * 8.0
            transfer.rate = 0.0
            transfer.updated = transfer.finish_at = now
            up[transfer] = None
            self.down_active[dst][transfer] = None
            self.down_count[dst] += 1
            self._dirty_down[dst] = None
        self.up_count[src] += copies
        if not self._dirty_up:
            sim = self.network.sim
            if self.in_event:
                self._reserved = sim._seq
            else:
                _heappush(sim._queue, (now, sim._seq, _fair_flush, self))
            sim._seq += 1
        self._dirty_up[src] = None

    def _admit(self, src: int, now: float) -> None:
        """Start what ``src``'s DATA FIFO holds as far as its free slots
        allow, a run of one flow's copies at a time (:meth:`_start`)."""
        queue = self.network._uplinks[src].queues[_DATA]
        free = self.slots - self.data_in_flight[src]
        while queue and free:
            head = queue[0]
            copies = head.copies - head.next_index
            if copies > free:
                copies = free
            else:
                queue.popleft()
            free -= copies
            self.data_in_flight[src] += copies
            self._start(src, head, copies, now)

    def _uplink_wake(self, src: int) -> None:
        """``src``'s earliest finish is due (fire-path callback): every
        transfer due by now completes, in start order, each flow's due
        copies in one :func:`_dispatch`; then one admission refills the
        freed slots (the copies, in the order, of one admission per
        completion: a completion frees a DATA slot and nothing else
        admission reads), and the flush the wake arms re-rates the rest."""
        network = self.network
        sim = network.sim
        now = sim.now
        if self.wake[src] != now:
            return  # superseded: a finish moved earlier and was armed
        self.wake[src] = _INF
        transfers = self.up_active[src]
        runs = []  # (flow, dsts) per run of one flow's due copies (+=: no call)
        flow = None
        for transfer in [*transfers]:
            if transfer.finish_at <= now + 1e-12:
                dst = transfer.dst
                del transfers[transfer]
                del self.down_active[dst][transfer]
                self.down_count[dst] -= 1
                self._dirty_down[dst] = None
                self.up_count[src] -= 1
                if transfer.flow is not flow:
                    flow = transfer.flow
                    dsts = []
                    runs += ((flow, dsts),)
                dsts += (dst,)
                if flow.index == _DATA:
                    self.data_in_flight[src] -= 1
        if runs:
            for flow, dsts in runs:
                _dispatch(
                    network, src, dsts, 0.0, flow.kind, flow.size_bytes,
                    flow.payload, flow.channel, flow.enqueued_at,
                )
            # The uplink changed; its flush is armed after the dispatches.
            if not self._dirty_up:
                self._reserved = sim._seq
                sim._seq += 1
            self._dirty_up[src] = None
            if (network._uplinks[src].queues[_DATA]
                    and self.data_in_flight[src] < self.slots):
                self._admit(src, now)
            if self._reserved >= 0:
                _fair_flush(self)
        elif transfers:
            # Rates fell since this was armed: nothing has finished yet
            # (pushed at ``finish`` itself, not at a ``now + delay``).
            finish = _INF
            for transfer in transfers:
                if transfer.finish_at < finish:
                    finish = transfer.finish_at
            self.wake[src] = finish
            _heappush(sim._queue, (finish, sim._seq, self._on_wake, src))
            sim._seq += 1

    def flush(self, node: int) -> int:
        """Crash teardown, after the node's FIFOs were cleared: kill its
        transfers both ways (their bytes un-accounted), mark their links
        dirty and admit what waits behind them; returns the count."""
        victims = [*self.up_active[node], *self.down_active[node]]
        sim = self.network.sim
        if victims and not self._dirty_up:  # as :meth:`_start` arms it
            if self.in_event:
                self._reserved = sim._seq
            else:
                _heappush(sim._queue, (sim.now, sim._seq, _fair_flush, self))
            sim._seq += 1
        for transfer in victims:
            flow, src, dst = transfer.flow, transfer.src, transfer.dst
            del self.up_active[src][transfer]
            del self.down_active[dst][transfer]
            self.up_count[src] -= 1
            self.down_count[dst] -= 1
            if flow.index == _DATA:
                self.data_in_flight[src] -= 1
            self.network.stats.cancel_send(src, flow.kind, flow.size_bytes)
            self._dirty_up[src] = self._dirty_down[dst] = None
            self._admit(src, sim.now)
        return len(victims)


DropFilter = Callable[[Envelope], bool]


class Network(Transport):
    """Message router connecting all replicas over a :class:`Topology`."""

    def __init__(
        self,
        sim: Simulator,
        topology: Topology,
        rng: RngRegistry,
        priority_channels: bool = True,
        link_model: str = "serial",
        fair_share_slots: int = 8,
    ) -> None:
        if link_model not in LINK_MODELS:
            raise ValueError(
                f"link_model must be one of {LINK_MODELS}, got {link_model!r}"
            )
        self.sim = sim
        self.topology = topology
        #: When False, every message shares one FIFO class — ablates the
        #: paper's "consensus channel first" optimization (Section VI).
        self.priority_channels = priority_channels
        self.stats = NetworkStats()
        # One jitter stream per sender, so concurrent uplinks never
        # interleave on a shared RNG (aggregate mode == tick mode).
        self._jitter_rngs = [
            rng.stream(f"network.jitter.{node}")
            for node in range(topology.n)
        ]
        self._handlers: dict[int, Handler] = {}
        #: The same by node id: delivery indexes a list, hashes nothing.
        self._handler_list: list[Optional[Handler]] = [None] * topology.n
        #: Receive-side CPU cost, cached off the topology (immutable).
        self._proc = topology.proc_per_message
        #: True iff a drop filter is installed or the run's link faults
        #: hold a partition or loss window (else no ``_should_drop``).
        self._filters_active = False
        self._fair: Optional[_FairShareLinks] = (
            _FairShareLinks(self, fair_share_slots)
            if link_model == "fair-share" else None
        )
        self._uplinks = [_Uplink(node, self) for node in range(topology.n)]
        self._ingress = [_Ingress(self) for _ in range(topology.n)]
        self._drop_filter: Optional[DropFilter] = None
        self._down: set[int] = set()
        #: Each node's most recent outage, ``[_flush_at, _up_at)``: the
        #: now of its crash-flush (-1.0 = never) and of the restart after
        #: it (``inf`` while down), for copies the outage cut short or met.
        self._flush_at = [-1.0] * topology.n
        self._up_at = [-1.0] * topology.n
        #: Per-src default broadcast recipient tuples, built lazily once
        #: all nodes are registered (invalidated by ``register``).
        self._default_recipients: list[Optional[tuple]] = [None] * topology.n

    # -- wiring ------------------------------------------------------------

    def register(self, node: int, handler: Handler) -> None:
        """Attach the message handler for ``node``."""
        if node in self._handlers:
            raise ValueError(f"node {node} already registered")
        self._handlers[node] = handler
        self._handler_list[node] = handler
        self._default_recipients = [None] * self.topology.n

    def set_drop_filter(self, drop_filter: Optional[DropFilter]) -> None:
        """Install a predicate that silently drops matching envelopes
        (fault-injection tests). It runs once per copy, in each
        receiver's arrival order, after bandwidth was consumed (loss
        wastes the uplink); ``envelope.arrived_at`` is the arrival
        instant, the clock may be later."""
        self._drop_filter = drop_filter
        self._filters_changed()

    def set_link_faults(self, faults: LinkFaults) -> None:
        """Install the evaluator of the run's link-fault windows: the
        topology asks it for delay and bandwidth, delivery whether a
        partition or loss window drops the envelope (after the
        ``set_drop_filter`` predicate: matching either drops it)."""
        self.topology.set_link_faults(faults)
        self._filters_changed()

    def _filters_changed(self) -> None:
        faults = self.topology.link_faults
        self._filters_active = self._drop_filter is not None or bool(
            faults and faults.cuts
        )

    def set_node_down(self, node: int) -> None:
        """Crash ``node``'s endpoint: the copies its uplink and ingress
        queues hold and, under fair-share, its transfers both ways are
        dropped and counted, and so is every message from or to it until
        :meth:`set_node_up`. Copies of a serial segment in flight, and
        copies in its arrival queue, are judged and counted by their
        receiver's service end (:func:`_ingress_serve`)."""
        if node in self._down:
            return
        self._down.add(node)
        self._flush_at[node] = self.sim.now
        self._up_at[node] = _INF
        stats = self.stats
        for queue in self._uplinks[node].queues:
            for flow in queue:
                stats.messages_dropped += flow.copies - flow.next_index
            queue.clear()
        for queue in self._ingress[node].queues:
            stats.messages_dropped += len(queue)
            queue.clear()
        if self._fair is not None:
            stats.messages_dropped += self._fair.flush(node)

    def set_node_up(self, node: int) -> None:
        """Re-register a crashed node's endpoint (restart)."""
        if node in self._down:
            self._down.discard(node)
            self._up_at[node] = self.sim.now

    def is_down(self, node: int) -> bool:
        return node in self._down

    # -- sending -----------------------------------------------------------

    def send(
        self,
        src: int,
        dst: int,
        kind: str,
        size_bytes: float,
        payload: object,
        channel: Channel = Channel.DATA,
    ) -> None:
        """Queue one message for serialization on ``src``'s uplink."""
        if src in self._down or dst in self._down:
            # A crashed process sends nothing; a sender talking to a dead
            # peer sees its connection break before serializing the copy.
            self.stats.messages_dropped += 1
            return
        if dst == src:
            # Loopback: no bandwidth cost, delivered on the next event
            # via a shared callback (no per-message closure).
            envelope = Envelope(src, dst, kind, 0.0, payload, channel, self.sim.now)
            self.sim.schedule_fire(0.0, self._deliver, envelope)
            return
        if src not in self._handlers or dst not in self._handlers:
            raise ValueError(f"send between unregistered nodes {src}->{dst}")
        now = self.sim.now
        uplink = self._uplinks[src]
        if self._fair is None and not uplink.draining and now >= uplink.busy_until:
            # An idle serial wire (not draining: its FIFOs are empty) starts
            # this one-copy segment, as ``enqueue`` -> ``_start_next`` would.
            topology = self.topology
            bandwidth = topology._plain_bandwidth or topology.bandwidth(src, now=now)
            uplink.busy_until = _dispatch(
                self, src, (dst,), size_bytes * 8.0 / bandwidth,
                kind, size_bytes, payload, channel, now,
            )
            stats = self.stats
            stats.bytes_sent[(src, kind)] += size_bytes
            stats.messages_sent[kind] += 1
            return
        uplink.enqueue(_Flow(
            kind, size_bytes, payload, channel, (dst,), 1, now,
            self.priority_channels,
        ))

    def broadcast(
        self,
        src: int,
        kind: str,
        size_bytes: float,
        payload: object,
        channel: Channel = Channel.DATA,
        recipients: Optional[list[int]] = None,
    ) -> None:
        """Send one copy per recipient (defaults to every other replica).

        Each copy is serialized on the sender's uplink (no link-layer
        multicast, as with TCP fan-out); the fan-out is one :class:`_Flow`.
        A crashed sender drops, and counts, the copies it would have sent.
        """
        if recipients is None:
            targets = self._default_recipients[src]
            if targets is None:
                targets = self._build_default_recipients(src)
        else:
            targets = [dst for dst in recipients if dst != src]
            for dst in targets:
                if dst not in self._handlers:
                    raise ValueError(
                        f"send between unregistered nodes {src}->{dst}"
                    )
        copies = len(targets)
        if src in self._down:
            self.stats.messages_dropped += copies
            return
        if self._down:
            targets = [dst for dst in targets if dst not in self._down]
            self.stats.messages_dropped += copies - len(targets)
            copies = len(targets)
        if not copies:
            return
        self._uplinks[src].enqueue(_Flow(
            kind, size_bytes, payload, channel, targets, copies, self.sim.now,
            self.priority_channels,
        ))

    def _build_default_recipients(self, src: int) -> tuple:
        missing = self.topology.n - len(self._handlers)
        if missing:
            raise ValueError(
                f"broadcast from {src} with {missing} unregistered nodes"
            )
        targets = tuple(node for node in range(self.topology.n) if node != src)
        self._default_recipients[src] = targets
        return targets

    def queued_bytes(self, node: int) -> float:
        """Bytes waiting in ``node``'s egress queues, plus what its
        fair-share transfers have left."""
        total = 0.0
        for queue in self._uplinks[node].queues:
            for flow in queue:
                total += flow.size_bytes * (flow.copies - flow.next_index)
        if self._fair is not None:
            now = self.sim.now
            for t in self._fair.up_active[node]:
                left = t.remaining_bits - t.rate * (now - t.updated)
                if left > 0.0:
                    total += left / 8.0
        return total

    def expected_transfer_seconds(
        self, src: int, size_bytes: float, copies: int = 1
    ) -> float:
        """Seconds to clear ``src``'s whole egress backlog plus ``copies``
        new copies at the current bandwidth (at least 1 b/s): the floor
        under retransmission timers (``adaptive_retry_delay``), so
        congestion does not masquerade as loss."""
        topology, now = self.topology, self.sim.now
        bandwidth = topology._plain_bandwidth or topology.bandwidth(src, now=now)
        return (self.queued_bytes(src) + size_bytes * copies) * 8.0 / bandwidth

    # -- internal ----------------------------------------------------------

    def _should_drop(self, envelope: Envelope, now: float) -> bool:
        if self._drop_filter is not None and self._drop_filter(envelope):
            return True
        faults = self.topology.link_faults
        return faults is not None and faults.drops(
            now, envelope.src, envelope.dst, envelope.kind, envelope.channel,
        )

    def _deliver(self, envelope: Envelope) -> None:
        """Loopback arrival (``send`` with dst == src): no wire, no CPU."""
        handler = self._handler_list[envelope.dst]
        if (
            envelope.dst in self._down
            or (self._filters_active
                and self._should_drop(envelope, self.sim.now))
            or handler is None
        ):
            self.stats.messages_dropped += 1
            return
        self.stats.messages_delivered += 1
        handler(envelope)
