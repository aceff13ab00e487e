"""Deterministic discrete-event simulation engine.

A calendar queue: entries are ordered by time, the insertion sequence
breaking ties, so every run is deterministic for a fixed seed and
schedule. Protocol code calls :meth:`Simulator.schedule` /
:meth:`Simulator.schedule_at`, which return a cancellable
:class:`Timer`, and drives :meth:`Simulator.run` /
:meth:`Simulator.run_until`.

Performance notes: the heap stores plain tuples, ``(time, seq, None,
timer)`` and the fire-entry ``(time, seq, callback, arg)``, ordered by
C-level tuple comparison (``seq`` is unique); the loop tells them apart
by ``entry[2] is None``, not by a ``len()`` per event. A fire-entry
allocates nothing and cannot be cancelled: serial drains, fair-share
flushes, loopback and the dissemination bench. Ingress services and uplink
wakes take the timer form with tokens of their own (any object with
``callback``, ``cancelled`` and ``fired``), re-armed after each fire and
cancelled when an earlier arm supersedes one. Cancelled entries are
skipped uncounted (O(1) to cancel) and compacted away once they
outnumber the live ones: chaos runs cancel timers by the thousand.
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


class Timer:
    """A scheduled callback and the cancellable handle to it. ``fired``
    (consumed by the loop) and ``cancelled`` (will be skipped, eventually
    compacted away) are distinct; heap order lives in the ``(time, seq)``
    the simulator pushes in front of it."""

    __slots__ = ("deadline", "callback", "cancelled", "fired", "_sim")

    def __init__(
        self, deadline: float, callback: Callable[[], None], sim: "Simulator"
    ) -> None:
        self.deadline = deadline
        self.callback = callback
        self.cancelled = False
        self.fired = False
        self._sim = sim

    @property
    def active(self) -> bool:
        """True only while the callback can still fire: a fired timer is
        not active (a dead timeout must not read as a pending one)."""
        return not (self.cancelled or self.fired)

    def cancel(self) -> None:
        """Prevent the callback from firing; a no-op on a fired or
        cancelled timer, so cleanup paths cancel unconditionally."""
        if self.cancelled or self.fired:
            return
        self.cancelled = True
        self._sim._note_cancelled()


class Simulator(Scheduler):
    """Single-threaded deterministic event loop.

    The clock unit is seconds (floats). ``now`` is only advanced by the
    loop; callbacks must never sleep or block.
    """

    # Plain slots, not properties: protocol code reads ``now`` on nearly
    # every event, and a slot read costs no Python call.
    __slots__ = (
        "_queue", "_seq", "now", "_running", "processed",
        "cancelled_pending", "compactions",
    )

    def __init__(self) -> None:
        # Timer-form and fire-entries: see the module docstring.
        self._queue: list[tuple] = []
        self._seq = 0
        #: Current simulated time in seconds; only the loop moves it.
        self.now = 0.0
        self._running = False
        #: Callbacks fired so far (a cancelled timer is not one).
        self.processed = 0
        #: Cancelled timers still occupying heap slots.
        self.cancelled_pending = 0
        #: How many times the heap was auto-compacted.
        self.compactions = 0

    @property
    def pending(self) -> int:
        """Number of events still queued (including cancelled ones)."""
        return len(self._queue)

    def schedule(self, delay: float, callback: Callable[[], None]) -> Timer:
        """Schedule ``callback`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past: delay={delay}")
        return self.schedule_at(self.now + delay, callback)

    def schedule_at(self, time: float, callback: Callable[[], None]) -> Timer:
        """Schedule ``callback`` at absolute time ``time``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at {time:.6f}; now is {self.now:.6f}"
            )
        timer = Timer(time, callback, self)
        heapq.heappush(self._queue, (time, self._seq, None, timer))
        self._seq += 1
        return timer

    def schedule_fire(self, delay: float, callback, arg) -> None:
        """No-allocation fast path: run ``callback(arg)`` after ``delay``,
        with no handle and so no cancelling."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past: delay={delay}")
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._queue, (self.now + delay, seq, callback, arg))

    def run_until(self, end_time: float, max_events: Optional[int] = None) -> int:
        """Run events with ``time <= end_time``; return the number executed.

        The clock is left at ``end_time`` even if the queue drains early, so
        back-to-back phases observe a continuous timeline.
        """
        if self._running:
            raise SimulationError("run_until called re-entrantly from a callback")
        self._running = True
        executed = 0
        # Compaction rebuilds the queue in place: this binding stays valid.
        queue = self._queue
        heappop = heapq.heappop
        limit = -1 if max_events is None else max_events
        try:
            # Hot loop: the perf harness runs here, every instruction counts.
            while queue and queue[0][0] <= end_time:
                entry = heappop(queue)
                callback = entry[2]
                if callback is not None:
                    # Raw fire-tuple: (time, seq, callback, arg).
                    self.now = entry[0]
                    callback(entry[3])
                else:
                    timer = entry[3]
                    if timer.cancelled:
                        self.cancelled_pending -= 1
                        continue
                    timer.fired = True
                    self.now = entry[0]
                    timer.callback()
                executed += 1
                if executed == limit:
                    break
        finally:
            # ``processed`` is a post-run gauge: one write per call.
            self.processed += executed
            self._running = False
        if not self._queue or self._queue[0][0] > end_time:
            self.now = max(self.now, end_time)
        return executed

    def run(self, max_events: Optional[int] = None) -> int:
        """Run until the queue is empty (or ``max_events`` is reached)."""
        return self.run_until(float("inf"), max_events=max_events)

    def _note_cancelled(self) -> None:
        """Account one cancellation; compact when the dead outnumber the live."""
        self.cancelled_pending += 1
        if (
            len(self._queue) >= _COMPACT_MIN_QUEUE
            and self.cancelled_pending * 2 > len(self._queue)
        ):
            self.drain_cancelled()
            self.compactions += 1

    def drain_cancelled(self) -> None:
        """Drop cancelled timers from the heap, in place: ``run_until``
        holds the list across callbacks, and compaction runs from them."""
        live = [
            entry for entry in self._queue
            if entry[2] is not None or not entry[3].cancelled
        ]
        heapq.heapify(live)
        self._queue[:] = live
        self.cancelled_pending = 0
