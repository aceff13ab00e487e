"""Open-loop client workload generator.

Clients submit fixed-size transactions at a configured aggregate rate;
each replica receives the share assigned by the selector (uniform or
Zipfian). Two generation modes produce *identical* arrival sequences:

**ticks** (default) — every ``tick`` seconds the generator hands each
replica one :class:`~repro.types.batch.TxBatch` covering the
transactions that arrived during the tick, carrying fractional
remainders forward so the long-run rate is exact and deterministic.

**aggregate** — no per-tick events at all. Each replica gets an
:class:`ArrivalStream` that replays the same tick arithmetic lazily:
the stream wakes only at ticks that change its batcher's behavior
(the tick that arms the flush timer, the tick that fills a microblock)
and digests the backlog in bulk, and the batcher pulls the remaining
backlog just before its flush timer fires. Identical floats, identical
delivery times, identical commit hashes. It is not cheaper on the
protocol cells: a stream wakes per replica at each tick that arms a
flush or fills a microblock, which is about as many events as the tick
mode schedules. Requires every replica's mempool to expose a
:class:`~repro.mempool.batching.MicroBlockBatcher`.
"""

from __future__ import annotations

from typing import Optional, Protocol, Sequence

from repro.sim.interfaces import Scheduler, TimerHandle
from repro.types import TxBatch

WORKLOAD_MODES = ("ticks", "aggregate")


class _Selector(Protocol):  # pragma: no cover - typing helper
    def shares(self) -> list[float]: ...


class _Receiver(Protocol):  # pragma: no cover - typing helper
    def on_client_batch(self, batch: TxBatch) -> None: ...


class ArrivalStream:
    """Lazily-replayed tick sequence for one replica (aggregate mode).

    The stream mirrors the tick loop's state — the fractional carry and
    the next tick's timestamp (accumulated ``t + tick`` exactly like the
    tick timer chain, so the floats match bit for bit) — and *digests*
    ticks on demand: each digested tick runs the same carry recurrence
    and hands the replica the same :class:`TxBatch` the tick mode would
    have, just later in wall-clock order and within one event.

    Digestion points are chosen so the batcher can't tell the difference:

    * a *wake* fires exactly at the next tick that changes batcher
      behavior — the tick that takes pending from zero (arming the flush
      timer at the tick-true time) or the tick that fills a microblock
      (emitting at the tick-true time);
    * the batcher itself pulls ticks strictly before its flush deadline
      (:meth:`settle_before`) so a partial flush covers the same
      transactions it would have covered under per-tick delivery;
    * crash/restart hooks digest the boundary exactly: ticks before the
      crash instant were delivered while the replica was up, ticks in
      the outage window are digested without delivery (clients lose
      them, as the tick mode's gated ``on_client_batch`` does).
    """

    __slots__ = (
        "_sim", "_replica", "_per_tick", "_payload", "_tick", "_carry",
        "_next_tick", "_emitted", "_timer", "_batcher",
    )

    def __init__(
        self,
        sim: Scheduler,
        replica: _Receiver,
        per_tick_txs: float,
        tx_payload: int,
        tick: float,
        first_tick: float,
    ) -> None:
        self._sim = sim
        self._replica = replica
        self._per_tick = per_tick_txs
        self._payload = tx_payload
        self._tick = tick
        self._carry = 0.0
        self._next_tick = first_tick
        self._emitted = 0
        self._timer: Optional[TimerHandle] = None
        self._batcher = None

    def bind(self, batcher) -> None:
        """Called by ``MicroBlockBatcher.attach_arrivals`` (back-pointer)."""
        self._batcher = batcher

    # -- digestion -------------------------------------------------------

    def _advance(self, limit: float, inclusive: bool, deliver: bool) -> None:
        """Digest ticks with time < ``limit`` (<= when ``inclusive``)."""
        next_tick = self._next_tick
        carry = self._carry
        per_tick = self._per_tick
        tick = self._tick
        payload = self._payload
        replica = self._replica
        emitted = 0
        while next_tick <= limit if inclusive else next_tick < limit:
            carry += per_tick
            count = int(carry)
            if count > 0:
                carry -= count
                emitted += count
                if deliver:
                    replica.on_client_batch(TxBatch(
                        count=count,
                        payload_bytes=payload,
                        mean_arrival=next_tick - tick / 2.0,
                    ))
            next_tick += tick
        self._next_tick = next_tick
        self._carry = carry
        self._emitted += emitted

    def settle_before(self, time: float) -> None:
        """Deliver ticks strictly before ``time`` (flush-pull path)."""
        self._advance(time, False, True)

    # -- lifecycle hooks (forwarded by the batcher) ----------------------

    def on_crash(self) -> None:
        """The replica is about to crash: ticks before this instant
        reached it while it was still up; digest them now, before the
        gate closes. The tick at exactly the crash time is *not*
        digested — the injector's crash event precedes it, so the tick
        mode drops it too."""
        self._advance(self._sim.now, False, True)

    def on_restart(self) -> None:
        """The replica restarted: the outage window's ticks were lost
        (a dead server accepts nothing), so digest them without
        delivery, then resume waking against the live batcher state."""
        self._advance(self._sim.now, False, False)
        self.reschedule()

    # -- wake scheduling -------------------------------------------------

    def _wake(self) -> None:
        self._timer = None
        self._advance(self._sim.now, True, True)
        self.reschedule()

    def reschedule(self) -> None:
        """Arm a wake at the next tick that changes batcher behavior.

        Simulates the carry recurrence forward (without mutating it) to
        find the first tick that either arms the flush timer (pending
        leaves zero) or fills a microblock. While a flush is armed, the
        scan stops at the deadline: the flush itself pulls the backlog
        (``settle_before``) and calls back here afterwards.
        """
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        if self._per_tick <= 0.0:
            return
        batcher = self._batcher
        full = batcher.capacity
        pending = batcher.pending_tx_count
        deadline = batcher.flush_deadline
        carry = self._carry
        t = self._next_tick
        tick = self._tick
        per_tick = self._per_tick
        while deadline is None or t < deadline:
            carry += per_tick
            count = int(carry)
            if count > 0:
                if deadline is None or pending + count >= full:
                    self._timer = self._sim.schedule_at(t, self._wake)
                    return
                carry -= count
                pending += count
            t += tick

    # -- accounting ------------------------------------------------------

    @property
    def emitted_tx_count(self) -> int:
        """Transactions offered so far (including undigested ticks).

        Replays the recurrence through ``now`` without mutating stream
        state, so mid-run reads match the tick mode's running counter.
        """
        extra = 0
        carry = self._carry
        t = self._next_tick
        now = self._sim.now
        per_tick = self._per_tick
        tick = self._tick
        while t <= now:
            carry += per_tick
            count = int(carry)
            if count > 0:
                carry -= count
                extra += count
            t += tick
        return self._emitted + extra


class WorkloadGenerator:
    """Drives client transactions into replicas at a target rate."""

    def __init__(
        self,
        sim: Scheduler,
        replicas: Sequence[_Receiver],
        rate_tps: float,
        tx_payload: int,
        selector: _Selector,
        tick: float = 0.01,
        mode: str = "ticks",
        offered_clients: Optional[int] = None,
    ) -> None:
        if rate_tps < 0:
            raise ValueError(f"rate must be >= 0, got {rate_tps}")
        if tick <= 0:
            raise ValueError(f"tick must be positive, got {tick}")
        if mode not in WORKLOAD_MODES:
            raise ValueError(
                f"mode must be one of {WORKLOAD_MODES}, got {mode!r}"
            )
        if offered_clients is not None and offered_clients <= 0:
            raise ValueError(
                f"offered_clients must be positive, got {offered_clients}"
            )
        shares = selector.shares()
        if len(shares) != len(replicas):
            raise ValueError(
                f"selector covers {len(shares)} replicas, "
                f"but {len(replicas)} are registered"
            )
        self._sim = sim
        self._replicas = list(replicas)
        self._rate = rate_tps
        self._payload = tx_payload
        self._shares = shares
        self._tick = tick
        self._mode = mode
        #: Size of the client population the offered rate stands for.
        #: Purely descriptive: arrivals are modeled in aggregate, which
        #: is exactly why a million offered clients cost no more to
        #: simulate than a hundred (see DESIGN.md "Simulator scale-out").
        self.offered_clients = offered_clients
        self._carry = [0.0] * len(replicas)
        self._emitted = 0
        self._timer: Optional[TimerHandle] = None
        self._streams: list[ArrivalStream] = []
        self._stopped = False

    @property
    def emitted_tx_count(self) -> int:
        if self._mode == "aggregate":
            return sum(s.emitted_tx_count for s in self._streams)
        return self._emitted

    def start(self) -> None:
        if self._timer is not None or self._streams:
            raise RuntimeError("generator already started")
        if self._mode == "aggregate":
            self._start_aggregate()
        else:
            self._timer = self._sim.schedule(self._tick, self._on_tick)

    def stop(self) -> None:
        """End the tick timer chain (the live client driver's shutdown);
        aggregate streams run to the horizon."""
        self._stopped = True
        if self._timer is not None:
            self._timer.cancel()

    # -- tick mode -------------------------------------------------------

    def _on_tick(self) -> None:
        if self._stopped:
            return
        now = self._sim.now
        for index, replica in enumerate(self._replicas):
            self._carry[index] += self._rate * self._shares[index] * self._tick
            count = int(self._carry[index])
            if count <= 0:
                continue
            self._carry[index] -= count
            self._emitted += count
            batch = TxBatch(
                count=count,
                payload_bytes=self._payload,
                mean_arrival=now - self._tick / 2.0,
            )
            replica.on_client_batch(batch)
        self._timer = self._sim.schedule(self._tick, self._on_tick)

    # -- aggregate mode --------------------------------------------------

    def _start_aggregate(self) -> None:
        first_tick = self._sim.now + self._tick
        for index, replica in enumerate(self._replicas):
            mempool = getattr(replica, "mempool", None)
            batcher = mempool.batcher if mempool is not None else None
            if batcher is None:
                raise ValueError(
                    "aggregate workload mode requires every replica's "
                    "mempool to expose a microblock batcher; "
                    f"replica {index} has none (use workload_mode='ticks')"
                )
            # The same per-tick expression the tick loop evaluates, so
            # the carry recurrence produces bit-identical floats.
            per_tick = self._rate * self._shares[index] * self._tick
            stream = ArrivalStream(
                self._sim, replica, per_tick, self._payload,
                self._tick, first_tick,
            )
            batcher.attach_arrivals(stream)
            self._streams.append(stream)
        for stream in self._streams:
            stream.reschedule()
