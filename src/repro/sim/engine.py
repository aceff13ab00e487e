"""Deterministic discrete-event simulation engine.

The engine is a classic calendar queue: events are ``(time, sequence,
callback)`` triples ordered by time with the insertion sequence breaking
ties, which makes every run fully deterministic for a fixed seed and
schedule of callbacks.

Protocol code interacts with the engine through three operations:

* :meth:`Simulator.schedule` — run a callback after a delay,
* :meth:`Simulator.schedule_at` — run a callback at an absolute time,
* :meth:`Simulator.run` / :meth:`Simulator.run_until` — drive the loop.

Timers (view-change timers, fetch timeouts, proxy timeouts) are cancellable
via the returned :class:`Timer` handle.

Performance notes: the heap stores plain ``(time, seq, None, event)``
tuples so ordering is resolved by C-level tuple comparison (``seq`` is
unique, so nothing behind it is ever compared), and :class:`Event` is a
``__slots__`` class rather than a dataclass. Cancelled events are left in
the heap (cancellation stays O(1)) but the simulator compacts the heap
automatically once cancelled entries outnumber live ones — chaos runs
cancel view/fetch timers by the thousand, and without compaction they
would linger until their deadline.

Hot subsystems (the network's serialization/delivery chain, ingress CPU
queues) use :meth:`Simulator.schedule_fire` instead of ``schedule``: it
pushes a raw ``(time, seq, callback, arg)`` tuple with no ``Event`` or
``Timer`` allocation at all. Fire-entries are not cancellable — callers
must guard staleness themselves (epoch counters, ``done`` flags). Both
entries have one shape and the run loop tells them apart by
``entry[2] is None``: a ``len()`` per fired event was a built-in call
per event (1.23 of ``disseminate-128``'s 9.00 calls per message).
"""

from __future__ import annotations

import heapq
from typing import Callable, Optional

from repro.sim.interfaces import Scheduler

#: Compaction never triggers below this queue size: rebuilding a tiny
#: heap costs more bookkeeping than the dead entries are worth.
_COMPACT_MIN_QUEUE = 64


class SimulationError(RuntimeError):
    """Raised when the simulation is driven incorrectly."""


class Event:
    """A scheduled callback with its lifecycle flags.

    ``cancelled`` and ``fired`` are distinct states: a fired event was
    consumed by the loop, a cancelled one will be skipped (and eventually
    compacted away). Heap ordering lives in the ``(time, seq)`` tuple the
    simulator pushes alongside the event, not on the event itself.
    """

    __slots__ = ("time", "seq", "callback", "cancelled", "fired")

    def __init__(self, time: float, seq: int, callback: Callable[[], None]) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.cancelled = False
        self.fired = False


class Timer:
    """Cancellable handle for a scheduled event."""

    __slots__ = ("_event", "_sim")

    def __init__(self, event: Event, sim: "Simulator") -> None:
        self._event = event
        self._sim = sim

    @property
    def deadline(self) -> float:
        return self._event.time

    @property
    def active(self) -> bool:
        """True only while the callback can still fire.

        An event that already executed is not active — previously a
        fired timer kept reporting ``True``, which let protocol code
        mistake a dead timeout for a pending one.
        """
        event = self._event
        return not (event.cancelled or event.fired)

    def cancel(self) -> None:
        """Prevent the callback from firing.

        Cancelling an already-fired or already-cancelled timer is a no-op,
        which lets protocol code cancel unconditionally on cleanup paths.
        """
        event = self._event
        if event.cancelled or event.fired:
            return
        event.cancelled = True
        self._sim._note_cancelled()


class Simulator(Scheduler):
    """Single-threaded deterministic event loop.

    The clock unit is seconds (floats). ``now`` is only advanced by the
    loop; callbacks must never sleep or block.
    """

    __slots__ = (
        "_queue", "_seq", "_now", "_running", "_processed",
        "_cancelled", "_compactions",
    )

    def __init__(self) -> None:
        # Entries are (time, seq, None, Event) or raw
        # (time, seq, callback, arg) fire-tuples; see schedule_fire.
        self._queue: list[tuple] = []
        self._seq = 0
        self._now = 0.0
        self._running = False
        self._processed = 0
        self._cancelled = 0
        self._compactions = 0

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def pending(self) -> int:
        """Number of events still queued (including cancelled ones)."""
        return len(self._queue)

    @property
    def cancelled_pending(self) -> int:
        """Number of cancelled events still occupying heap slots."""
        return self._cancelled

    @property
    def processed(self) -> int:
        """Number of events executed so far."""
        return self._processed

    @property
    def compactions(self) -> int:
        """How many times the heap was auto-compacted."""
        return self._compactions

    def schedule(self, delay: float, callback: Callable[[], None]) -> Timer:
        """Schedule ``callback`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past: delay={delay}")
        return self.schedule_at(self._now + delay, callback)

    def schedule_at(self, time: float, callback: Callable[[], None]) -> Timer:
        """Schedule ``callback`` at absolute time ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at {time:.6f}; now is {self._now:.6f}"
            )
        event = Event(time, self._seq, callback)
        heapq.heappush(self._queue, (time, self._seq, None, event))
        self._seq += 1
        return Timer(event, self)

    def schedule_fire(self, delay: float, callback, arg) -> None:
        """No-allocation fast path: run ``callback(arg)`` after ``delay``.

        Unlike :meth:`schedule` this returns no handle and cannot be
        cancelled — the heap entry is a bare tuple. Intended for the
        simulator-internal hot chains (uplink drains, deliveries,
        ingress processing) where the callback itself checks staleness.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past: delay={delay}")
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._queue, (self._now + delay, seq, callback, arg))

    def run_until(self, end_time: float, max_events: Optional[int] = None) -> int:
        """Run events with ``time <= end_time``; return the number executed.

        The clock is left at ``end_time`` even if the queue drains early, so
        back-to-back phases observe a continuous timeline.
        """
        if self._running:
            raise SimulationError("run_until called re-entrantly from a callback")
        self._running = True
        executed = 0
        # Compaction rebuilds the queue *in place* (see drain_cancelled),
        # so the local binding stays valid across callbacks.
        queue = self._queue
        heappop = heapq.heappop
        try:
            if max_events is None:
                # Hot loop: no per-event limit check. The perf harness
                # always runs here, so every instruction counts.
                while queue and queue[0][0] <= end_time:
                    entry = heappop(queue)
                    callback = entry[2]
                    if callback is not None:
                        # Raw fire-tuple: (time, seq, callback, arg).
                        self._now = entry[0]
                        callback(entry[3])
                        executed += 1
                    else:
                        event = entry[3]
                        if event.cancelled:
                            self._cancelled -= 1
                            continue
                        event.fired = True
                        self._now = event.time
                        event.callback()
                        executed += 1
            else:
                while queue and queue[0][0] <= end_time:
                    entry = heappop(queue)
                    callback = entry[2]
                    if callback is not None:
                        self._now = entry[0]
                        callback(entry[3])
                    else:
                        event = entry[3]
                        if event.cancelled:
                            self._cancelled -= 1
                            continue
                        event.fired = True
                        self._now = event.time
                        event.callback()
                    executed += 1
                    if executed >= max_events:
                        break
        finally:
            # The executed-count accumulates locally; ``processed`` is a
            # post-run gauge, so one write per run_until call suffices.
            self._processed += executed
            self._running = False
        if not self._queue or self._queue[0][0] > end_time:
            self._now = max(self._now, end_time)
        return executed

    def run(self, max_events: Optional[int] = None) -> int:
        """Run until the queue is empty (or ``max_events`` is reached)."""
        return self.run_until(float("inf"), max_events=max_events)

    def _note_cancelled(self) -> None:
        """Account one cancellation; compact when the dead outnumber the live."""
        self._cancelled += 1
        if (
            len(self._queue) >= _COMPACT_MIN_QUEUE
            and self._cancelled * 2 > len(self._queue)
        ):
            self.drain_cancelled()
            self._compactions += 1

    def drain_cancelled(self) -> None:
        """Drop cancelled events from the heap (memory hygiene for long runs).

        The rebuild happens in place (slice assignment) so the list
        object's identity is stable — ``run_until`` holds a local
        reference to it across callbacks, and compaction runs *from*
        callbacks.
        """
        live = [
            entry for entry in self._queue
            if entry[2] is not None or not entry[3].cancelled
        ]
        heapq.heapify(live)
        self._queue[:] = live
        self._cancelled = 0
