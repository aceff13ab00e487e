"""Native mempool: the leader ships full transaction data (N-HS, N-SL).

This models the classic LBFT proposing phase of Appendix A-A: every
pending transaction is embedded in the proposal, so the leader serializes
``(n - 1) * K`` bytes per block through its own uplink. To isolate that
dissemination bottleneck (and be maximally generous to the baseline), the
pending pool is shared: transactions are available to whichever replica
is leader at no transfer cost, exactly as in the paper's model where
client-to-replica traffic is excluded.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.config import ProtocolConfig
from repro.mempool.base import Mempool, OnFull
from repro.types import TxBatch
from repro.types.microblock import MicroBlock, make_microblock_id
from repro.types.proposal import Block, Payload, Proposal

if TYPE_CHECKING:  # pragma: no cover
    from repro.replica.node import Replica


class SharedPendingPool:
    """Experiment-wide pending transaction pool for native protocols."""

    def __init__(self, tx_payload: int) -> None:
        self.tx_payload = tx_payload
        self._count = 0
        self._sum_arrival = 0.0
        #: Mempools whose leader is parked on an empty pool, by node id.
        self.parked: dict[int, Mempool] = {}

    @property
    def pending(self) -> int:
        return self._count

    def add(self, batch: TxBatch) -> None:
        if batch.payload_bytes != self.tx_payload:
            raise ValueError(
                f"payload {batch.payload_bytes} != pool payload {self.tx_payload}"
            )
        self.refund(batch.count, batch.sum_arrival)

    def draw(self, max_bytes: int) -> tuple[int, float]:
        """Remove up to ``max_bytes`` worth of txs; returns (count, sum_arrival)."""
        if self._count == 0:
            return 0, 0.0
        take = min(self._count, max(1, max_bytes // self.tx_payload))
        mean = self._sum_arrival / self._count
        self._count -= take
        self._sum_arrival -= mean * take
        return take, mean * take

    def refund(self, count: int, sum_arrival: float) -> None:
        """Return transactions to the pool (from a client batch, or from
        an abandoned proposal) and wake every parked leader."""
        if count <= 0:
            return
        self._count += count
        self._sum_arrival += sum_arrival
        if self.parked:
            for mempool in self.parked.values():
                mempool._unpark()
            self.parked.clear()


class NativeMempool(Mempool):
    """Traditional mempool: ``MakeProposal`` embeds full transaction data."""

    name = "native"

    def __init__(
        self,
        host: "Replica",
        config: ProtocolConfig,
        pool: SharedPendingPool,
    ) -> None:
        super().__init__(host, config)
        self._pool = pool
        self._counter = 0

    def on_client_batch(self, batch: TxBatch) -> None:
        self._pool.add(batch)

    def rebase_microblock_ids(self, base: int) -> None:
        self._counter = base

    def park(self, wake) -> None:
        super().park(wake)
        self._pool.parked[self.node_id] = self

    def make_payload(self) -> Payload:
        count, sum_arrival = self._pool.draw(self.config.native_block_bytes)
        if count == 0:
            return Payload()
        microblock = MicroBlock(
            id=make_microblock_id(self.node_id, self._counter),
            origin=self.node_id,
            tx_count=count,
            tx_payload=self.config.tx_payload,
            created_at=self.host.sim.now,
            sum_arrival=sum_arrival,
        )
        self._counter += 1
        self.host.notify_microblock(microblock)
        return Payload(embedded=(microblock,))

    def resolve(self, proposal: Proposal, on_full: OnFull) -> None:
        block = Block(proposal=proposal)
        for microblock in proposal.payload.embedded:
            block.microblocks[microblock.id] = microblock
        block.filled_at = self.host.sim.now
        on_full(block)

    def on_abandoned(self, proposal: Proposal) -> None:
        """Return the transactions of an uncommitted fork to the pool.

        Only the proposer refunds — every replica observes the abandoned
        fork, but the pool must be credited exactly once.
        """
        if proposal.proposer != self.node_id:
            return
        for microblock in proposal.payload.embedded:
            self._pool.refund(microblock.tx_count, microblock.sum_arrival)
