"""Transaction batching into microblocks.

Transactions accumulate per replica until a microblock's worth of payload
bytes is reached (``batch_bytes``) or a flush timeout fires, amortizing
dissemination and verification cost exactly as Section III-D describes.
"""

from __future__ import annotations

from typing import Callable, Optional, TYPE_CHECKING

from repro.config import ProtocolConfig
from repro.sim.engine import Timer
from repro.types import TxBatch
from repro.types.microblock import MicroBlock, make_microblock_id

if TYPE_CHECKING:  # pragma: no cover
    from repro.replica.node import Replica

OnMicroBlock = Callable[[MicroBlock], None]


class MicroBlockBatcher:
    """Accumulates client transactions and emits microblocks."""

    def __init__(
        self,
        host: "Replica",
        config: ProtocolConfig,
        on_microblock: OnMicroBlock,
    ) -> None:
        self._host = host
        self._config = config
        self._emit = on_microblock
        self._pending_count = 0
        self._pending_sum_arrival = 0.0
        self._counter = 0
        self._base = 0
        self._flush_timer: Optional[Timer] = None
        self._arrivals = None

    @property
    def pending_tx_count(self) -> int:
        return self._pending_count

    @property
    def microblocks_emitted(self) -> int:
        return self._counter - self._base

    @property
    def capacity(self) -> int:
        """Transactions per full microblock (arrival-stream planning)."""
        return self._config.txs_per_microblock

    @property
    def flush_deadline(self) -> Optional[float]:
        """When the armed flush timer fires, or None when disarmed."""
        timer = self._flush_timer
        return timer.deadline if timer is not None else None

    def attach_arrivals(self, arrivals) -> None:
        """Wire an aggregate-mode arrival stream to pull from (two-way).

        With a stream attached the batcher *pulls* the tick backlog just
        before flushing, so a partial flush covers exactly the ticks the
        per-tick delivery path would have delivered by then.
        """
        self._arrivals = arrivals
        arrivals.bind(self)

    def on_crash(self) -> None:
        """Host is crashing: let the stream digest pre-crash ticks."""
        if self._arrivals is not None:
            self._arrivals.on_crash()

    def on_restart(self) -> None:
        """Host restarted: the stream drops the outage window's ticks."""
        if self._arrivals is not None:
            self._arrivals.on_restart()

    def rebase(self, base: int) -> None:
        """Start ids at ``base`` (see ``Mempool.rebase_microblock_ids``)."""
        if self.microblocks_emitted:
            raise RuntimeError("cannot rebase after emitting microblocks")
        self._counter = self._base = base

    def add(self, batch: TxBatch) -> None:
        """Absorb a client batch; emit microblocks as they fill."""
        if batch.payload_bytes != self._config.tx_payload:
            raise ValueError(
                f"batch payload {batch.payload_bytes} differs from "
                f"configured tx_payload {self._config.tx_payload}"
            )
        self._pending_count += batch.count
        self._pending_sum_arrival += batch.sum_arrival
        full_size = self._config.txs_per_microblock
        while self._pending_count >= full_size:
            self._emit_microblock(full_size)
        if self._pending_count > 0 and self._flush_timer is None:
            self._flush_timer = self._host.sim.schedule(
                self._config.batch_timeout, self._flush
            )

    def flush(self) -> None:
        """Emit whatever is pending as a (possibly partial) microblock."""
        if self._pending_count > 0:
            self._emit_microblock(self._pending_count)

    def _flush(self) -> None:
        sim = self._host.sim
        if self._host.crashed:
            # A dead process cuts nothing (it would push to nobody, for
            # good): what it held waits for a deadline after the restart.
            delay = self._config.batch_timeout
            self._flush_timer = sim.schedule(delay, self._flush)
            return
        arrivals = self._arrivals
        if arrivals is not None:
            # Pull ticks strictly before the deadline while the timer is
            # still armed (so add() doesn't re-arm it); per-tick delivery
            # would have landed them all before this event fired.
            arrivals.settle_before(sim.now)
        self._flush_timer = None
        self.flush()
        if arrivals is not None:
            arrivals.reschedule()

    def _emit_microblock(self, tx_count: int) -> None:
        mean_arrival = self._pending_sum_arrival / self._pending_count
        microblock = MicroBlock(
            id=make_microblock_id(self._host.node_id, self._counter),
            origin=self._host.node_id,
            tx_count=tx_count,
            tx_payload=self._config.tx_payload,
            created_at=self._host.sim.now,
            sum_arrival=mean_arrival * tx_count,
        )
        self._counter += 1
        self._pending_count -= tx_count
        self._pending_sum_arrival -= mean_arrival * tx_count
        if self._pending_count <= 0:
            self._pending_count = 0
            self._pending_sum_arrival = 0.0
            if self._flush_timer is not None:
                self._flush_timer.cancel()
                self._flush_timer = None
        self._host.notify_microblock(microblock)
        self._emit(microblock)
