"""The scheduler/transport seam between protocol code and its runtime.

Every protocol component (replica, consensus engine, mempool) interacts
with its environment through exactly two narrow surfaces:

* :class:`Scheduler` — a clock (``now``) plus cancellable timers
  (``schedule`` / ``schedule_at`` returning a :class:`TimerHandle`),
  with :class:`DeadlineQueue` for many deadlines behind one timer;
* :class:`Transport` — point-to-point ``send`` and fan-out ``broadcast``
  of :class:`Envelope` messages to registered per-node handlers.

Two backends satisfy the seam:

* the deterministic discrete-event pair
  (:class:`repro.sim.engine.Simulator`,
  :class:`repro.sim.network.Network`), under which every experiment is
  bit-for-bit reproducible; and
* the live pair (:class:`repro.live.scheduler.RealtimeScheduler`,
  :class:`repro.live.network.LiveNetwork`), which runs the *same*
  protocol classes over real asyncio TCP sockets, one OS process per
  replica.

Keeping the seam this small is what lets the unmodified consensus +
mempool stack run on either backend (the Bamboo/Narwhal "pluggable
transport" pattern). Protocol code must never import simulator or
asyncio internals directly — only this module.
"""

from __future__ import annotations

import abc
import enum
from heapq import heappop, heappush
from typing import Callable, Optional, Protocol, runtime_checkable


class Channel(enum.Enum):
    """Egress/ingress priority classes (Section VI, "Optimizations").

    CONSENSUS carries proposals and votes; CONTROL carries small protocol
    messages (acks, proofs, fetch requests, load queries) that must not
    sit behind bulk transfers; DATA carries microblock bodies. Priority
    is strict in enum order. The simulated network enforces the priority
    on a modeled uplink; the live transport maps every class onto the
    same TCP stream (per-peer FIFO) and keeps the class only for
    accounting.
    """

    CONSENSUS = 0
    CONTROL = 1
    DATA = 2


class Envelope:
    """A network-level message.

    ``payload`` is an arbitrary protocol object; the transport only looks
    at ``size_bytes`` (for serialization time or framing) and ``kind``
    (for routing and accounting). A ``__slots__`` class rather than a
    dataclass: envelopes are minted once per (message, recipient) pair,
    squarely on the hot path.
    """

    __slots__ = (
        "src", "dst", "kind", "size_bytes", "payload", "channel",
        "enqueued_at", "sent_at", "arrived_at",
    )

    def __init__(
        self,
        src: int,
        dst: int,
        kind: str,
        size_bytes: float,
        payload: object,
        channel: Channel = Channel.DATA,
        enqueued_at: float = 0.0,
    ) -> None:
        self.src = src
        self.dst = dst
        self.kind = kind
        self.size_bytes = size_bytes
        self.payload = payload
        self.channel = channel
        self.enqueued_at = enqueued_at
        # Simulated network only: when the last byte left the sender's
        # uplink (a sender crash before then discards the copy) and when
        # the copy reached the receiver, the instant it is judged for.
        self.sent_at = 0.0
        self.arrived_at = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Envelope({self.src}->{self.dst}, {self.kind!r}, "
            f"{self.size_bytes:.0f}B, {self.channel.name})"
        )


Handler = Callable[[Envelope], None]


class Routed:
    """A replica layer that receives messages: :meth:`routes` maps each
    of its kinds to the bound handler taking the envelope, which the
    replica asks once per kind and then calls directly."""

    def routes(self) -> dict[str, Handler]:
        return {}

    def on_message(self, envelope: Envelope) -> None:
        """The seam a spy or timing wrapper replaces on the instance (the
        replica then routes the layer's kinds to it), unwrapped: one
        envelope through :meth:`routes`, a kind it lacks ignored."""
        handler = self.routes().get(envelope.kind)
        if handler is not None:
            handler(envelope)


@runtime_checkable
class TimerHandle(Protocol):
    """Cancellable handle for a scheduled callback.

    ``active`` is True only while the callback can still fire; cancelling
    an already-fired or already-cancelled timer must be a no-op so
    protocol cleanup paths can cancel unconditionally.
    """

    @property
    def deadline(self) -> float: ...

    @property
    def active(self) -> bool: ...

    def cancel(self) -> None: ...


class Scheduler(abc.ABC):
    """A clock plus cancellable one-shot timers.

    The clock unit is seconds (floats) since the run's origin. Under the
    simulator ``now`` only advances inside the event loop; under the live
    backend it tracks wall-clock time relative to the cluster epoch.
    Callbacks run on the owning event loop's thread in both backends, so
    protocol code never needs locks.
    """

    # Empty slots so subclasses may opt into __slots__ (the simulator
    # does); slot-less subclasses still get a __dict__ as usual.
    __slots__ = ()

    @property
    @abc.abstractmethod
    def now(self) -> float:
        """Current time in seconds since the run's origin."""

    @abc.abstractmethod
    def schedule(self, delay: float, callback: Callable[[], None]) -> TimerHandle:
        """Run ``callback`` after ``delay`` seconds; returns a timer handle."""

    @abc.abstractmethod
    def schedule_at(self, time: float, callback: Callable[[], None]) -> TimerHandle:
        """Run ``callback`` at absolute time ``time``; returns a timer handle."""


class DeadlineQueue:
    """Many deadlines behind one armed timer.

    For code that defers many small things most of which find nothing
    left to do: items wait in a heap behind a single timer armed at the
    earliest deadline. When it fires, every due item ``live`` still
    vouches for is handed to ``on_due`` in deadline order (push order
    breaking ties), at the instant a timer of its own would have fired;
    an item that stopped mattering is dropped without a wake of its own.
    """

    def __init__(
        self, scheduler: Scheduler, on_due: Callable[[object], None],
        live: Callable[[object], bool] = lambda item: True,
    ) -> None:
        self._scheduler = scheduler
        self._on_due = on_due
        self._live = live
        self._heap: list[tuple[float, int, object]] = []
        self._pushed = 0
        self._timer: Optional[TimerHandle] = None
        #: Deadline of the armed timer: ``inf`` while none is armed and
        #: ``-inf`` while a fired one is served, when ``defer`` arms none.
        self._wake_at = float("inf")

    def defer(self, delay: float, item: object) -> None:
        """Hand ``item`` to ``on_due`` ``delay`` seconds from now."""
        deadline = self._scheduler.now + delay
        heappush(self._heap, (deadline, self._pushed, item))
        self._pushed += 1
        if deadline < self._wake_at:
            if self._timer is not None:
                self._timer.cancel()
            self._arm(deadline)

    def _arm(self, deadline: float) -> None:
        self._wake_at = deadline
        self._timer = self._scheduler.schedule_at(deadline, self._wake)

    def _wake(self) -> None:
        # A wall clock may read a hair before the armed deadline, which
        # is due regardless.
        horizon = max(self._scheduler.now, self._wake_at)
        self._timer, self._wake_at = None, float("-inf")
        heap, live = self._heap, self._live
        while heap:
            deadline, _, item = heap[0]
            if not live(item):
                heappop(heap)
            elif deadline <= horizon:
                heappop(heap)
                self._on_due(item)
            else:
                break
        self._wake_at = float("inf")
        if heap:
            self._arm(heap[0][0])


class Transport(abc.ABC):
    """Message fabric connecting ``n`` replicas.

    Implementations should preserve per-(src, dst) FIFO ordering for
    delivered messages — protocol recovery paths (PAB body-before-proof,
    chain sync) rely on it for the fast path — but may drop messages
    entirely (loss, crashed endpoints). The simulated fair-share link
    model relaxes FIFO across *sizes* (a small message may overtake a
    bulk transfer to the same peer, as parallel TCP streams do); protocol
    code must tolerate that via its recovery paths (PAB fetches a body
    when a proof arrives first). Handlers are invoked synchronously on
    the scheduler's event-loop thread.
    """

    @abc.abstractmethod
    def register(self, node: int, handler: Handler) -> None:
        """Attach the message handler for ``node``."""

    @abc.abstractmethod
    def send(
        self,
        src: int,
        dst: int,
        kind: str,
        size_bytes: float,
        payload: object,
        channel: Channel = Channel.DATA,
    ) -> None:
        """Queue one message from ``src`` to ``dst``."""

    @abc.abstractmethod
    def broadcast(
        self,
        src: int,
        kind: str,
        size_bytes: float,
        payload: object,
        channel: Channel = Channel.DATA,
        recipients: Optional[list[int]] = None,
    ) -> None:
        """Send one copy per recipient (defaults to every other replica)."""

    # -- congestion signals ----------------------------------------------

    def expected_transfer_seconds(
        self, src: int, size_bytes: float, copies: int = 1
    ) -> Optional[float]:
        """Estimated seconds for ``src`` to serialize ``copies`` messages
        of ``size_bytes`` each, *including* its current egress backlog.

        Retransmission timers use this as a congestion-aware floor: on a
        contended uplink the honest answer to "did my push get lost?" is
        "it has not finished serializing yet", and retrying at the
        uncongested cadence adds load exactly when the link can least
        absorb it. ``None`` (the default, and the live transport's
        answer — TCP already retransmits) means no estimate is
        available.
        """
        return None

    # -- endpoint lifecycle (crash-recovery model) -----------------------

    def set_node_down(self, node: int) -> None:
        """Crash ``node``'s endpoint (default: unsupported, no-op).

        The simulated network models this precisely (queue flushes,
        in-flight discards); the live transport's equivalent is killing
        the replica's process, so the default implementation does
        nothing.
        """

    def set_node_up(self, node: int) -> None:
        """Re-register a crashed node's endpoint (default: no-op)."""

    def is_down(self, node: int) -> bool:
        return False
