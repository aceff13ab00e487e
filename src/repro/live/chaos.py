"""Live chaos: the fault-injection layer on real processes and sockets.

The same declarative :class:`~repro.faults.FaultSchedule` that drives
the simulator's :class:`~repro.faults.FaultInjector` runs here against
OS-level reality, split into the crashes and restarts of its
:meth:`~repro.faults.FaultSchedule.timeline` and its link windows:

* **Process faults** (crash windows) are executed by
  :class:`LiveFaultInjector` inside the orchestrator: a crash is
  ``SIGKILL`` — no shutdown grace, no result flush, exactly what a
  power-cut gives you — and a restart respawns a *fresh* interpreter
  that rebinds the same port and resyncs through the ordinary
  chain-sync / PAB-fetch paths over re-established TCP connections.
* **Link faults** (partition, loss, delay+jitter, bandwidth
  squeeze, a slow replica being a squeeze from t=0 that never heals)
  are evaluated per frame by :class:`LinkShaper` inside each
  replica's :class:`~repro.live.network.LiveNetwork`, through the same
  :class:`~repro.faults.LinkFaults` the simulator asks. Every process
  receives the same window list in its spawn spec and evaluates it
  against the shared wall-clock epoch, so windows open and close in
  lockstep (within clock skew) without any runtime control channel —
  the EINES/netem approach, realized in the writer path instead of tc.

Drops happen at *send* time (a partitioned frame never occupies queue
space); delays and throttling happen at *write* time in the link's
writer task, where holding a frame back serializes the link exactly
like a shaped interface would.
"""

from __future__ import annotations

import time
from typing import Callable, Optional, Sequence

from repro.faults import FaultSchedule, LinkFaults, Window
from repro.sim.interfaces import Channel

__all__ = ["LinkShaper", "LiveFaultInjector", "LIVE_LINK_BANDWIDTH_BPS"]

#: Nominal unshaped egress bandwidth of a live replica. Localhost TCP is
#: effectively unthrottled, so squeezes need a baseline to scale: a
#: ``factor=0.1`` squeeze shapes egress to 10% of this. Matches the
#: simulator's LAN default (1 Gbps).
LIVE_LINK_BANDWIDTH_BPS = 1e9

#: Token-bucket burst while throttled: one jumbo frame's worth, so
#: throttling bites quickly without serializing tiny control messages
#: one token at a time.
_BURST_BYTES = 256 * 1024


class _EgressBucket:
    """Continuous-time token bucket metering shaped egress bytes."""

    def __init__(self) -> None:
        self._tokens = _BURST_BYTES
        self._last: Optional[float] = None

    def delay(self, now: float, rate_bytes_s: float, size: int) -> float:
        """Seconds to hold a ``size``-byte frame to respect the rate."""
        if self._last is None:
            self._last = now
        self._tokens = min(
            _BURST_BYTES, self._tokens + (now - self._last) * rate_bytes_s
        )
        self._last = now
        self._tokens -= size
        if self._tokens >= 0:
            return 0.0
        return -self._tokens / rate_bytes_s


class LinkShaper:
    """One process's egress under a schedule's link windows: the shared
    :class:`~repro.faults.LinkFaults` read against this process's clock,
    plus the token bucket that turns a bandwidth factor into hold time.

    All randomness (loss coin flips, delay jitter) draws from the
    injected ``rng``, so a seeded shaper is deterministic given the same
    frame sequence and clock — which is what the unit tests pin down.
    Wall-clock window activation is inherently racy at the edges across
    processes; that imprecision is the live backend's analogue of the
    simulator's zero-width event boundaries and stays well below the
    window durations being modeled.

    ``windows`` are a :class:`repro.faults.FaultSchedule`'s windows
    (crash windows are ignored); ``clock`` is any object with a ``now``
    attribute on the shared epoch (the process's
    :class:`~repro.live.scheduler.RealtimeScheduler`).
    """

    def __init__(
        self,
        node_id: int,
        windows: Sequence[Window],
        clock,
        rng,
    ) -> None:
        self.node_id = node_id
        self._clock = clock
        self._rng = rng
        self._faults = LinkFaults(windows, rng)
        self._bucket = _EgressBucket()
        #: Frames dropped by partitions/loss windows (chaos drops, kept
        #: separate from the network's backpressure ``frames_dropped``).
        self.frames_shed = 0

    # -- send-time decisions (synchronous) ------------------------------

    def drops(self, src: int, dst: int, kind: str, channel: Channel) -> bool:
        """Whether a frame ``src -> dst`` is dropped by an active window."""
        dropped = self._faults.drops(self._clock.now, src, dst, kind, channel)
        if dropped:
            self.frames_shed += 1
        return dropped

    # -- write-time shaping (writer task) -------------------------------

    def write_delay(self, dst: int, size: int, channel: Channel) -> float:
        """Seconds to hold a frame before writing it to the socket.

        An active delay window contributes its sampled one-way delay;
        bandwidth squeezes (a slow replica's from t=0 on, a goodput
        collapse's over its delay window) throttle via the token bucket
        against the scaled nominal link rate.
        """
        now = self._clock.now
        delay = self._faults.delay(now, self._rng) or 0.0
        factor = self._faults.squeeze_factor(now, self.node_id)
        if factor < 1.0:
            rate = LIVE_LINK_BANDWIDTH_BPS * factor / 8.0
            delay += self._bucket.delay(now, rate, size)
        return delay


class LiveFaultInjector:
    """Executes a schedule's crash/restart timeline on OS processes.

    Runs inside the orchestrator's event loop alongside the client
    driver. ``kill``/``respawn`` are orchestrator-supplied callbacks
    (:mod:`repro.live.orchestrator` owns the process table); the
    injector owns only the timeline and its record. Link windows never
    appear here — they ship inside each replica's spawn spec and become
    its :class:`LinkShaper`.
    """

    def __init__(
        self,
        schedule: FaultSchedule,
        epoch: float,
        kill: Callable[[int], None],
        respawn: Callable[[int], None],
    ) -> None:
        self._steps = schedule.timeline()  # no swaps: validate_live
        self._epoch = epoch
        self._kill = kill
        self._respawn = respawn
        #: Applied process faults: ``{"event", "node", "at", "applied_at"}``
        #: with times on the shared epoch. ``applied_at`` trails ``at`` by
        #: scheduling jitter; respawned interpreters additionally take
        #: their import time before rejoining.
        self.timeline: list[dict] = []

    async def run(self) -> None:
        import asyncio

        for at, step, window in self._steps:
            delay = self._epoch + at - time.time()
            if delay > 0:
                await asyncio.sleep(delay)
            node = window.nodes[0]
            if step == "crash":
                self._kill(node)
            else:
                self._respawn(node)
            self.timeline.append({
                "event": step,
                "node": node,
                "at": at,
                "applied_at": time.time() - self._epoch,
            })
