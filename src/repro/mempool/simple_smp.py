"""Simple shared mempool: best-effort broadcast + fetch-from-leader.

This is the straw-man SMP the paper calls SMP-HS: microblocks are
broadcast best-effort, the leader proposes ids of whatever it has seen,
and replicas that are missing a referenced microblock must fetch it from
the proposer *before* they can vote (Problem-I). Under network asynchrony
or censoring Byzantine senders this congests the leader and triggers
view-change storms — the failure mode Figures 7 and 8 measure.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING

from repro.config import ProtocolConfig
from repro.mempool.base import (
    Mempool,
    MessageKinds,
    OnFull,
    OnReady,
    ReferenceCounts,
)
from repro.mempool.batching import MicroBlockBatcher
from repro.mempool.fetching import FetchManager, single_target
from repro.mempool.store import MicroBlockStore
from repro.sim.network import Envelope
from repro.types import TxBatch
from repro.types.microblock import MicroBlock, MicroBlockId
from repro.types.proposal import Block, Payload, PayloadEntry, Proposal

if TYPE_CHECKING:  # pragma: no cover
    from repro.replica.node import Replica


class SimpleSharedMempool(Mempool):
    """SMP with best-effort broadcast (SMP-HS / SMP-SL)."""

    name = "simple"

    def __init__(self, host: "Replica", config: ProtocolConfig) -> None:
        super().__init__(host, config)
        self.store = MicroBlockStore()
        self.fetcher = FetchManager(host, config, self.store)
        self._batcher = MicroBlockBatcher(host, config, self._on_new_microblock)
        self._proposable: deque[MicroBlockId] = deque()
        self._referenced = ReferenceCounts()
        self._committed: set[MicroBlockId] = set()

    # -- client / dissemination -------------------------------------------

    @property
    def batcher(self) -> MicroBlockBatcher:
        return self._batcher

    def on_client_batch(self, batch: TxBatch) -> None:
        self._batcher.add(batch)

    def rebase_microblock_ids(self, base: int) -> None:
        self._batcher.rebase(base)

    def _on_new_microblock(self, microblock: MicroBlock) -> None:
        """ShareTx: broadcast a freshly batched microblock best-effort."""
        self.store.add(microblock)
        self._enqueue_proposable(microblock.id)
        targets = self.host.behavior.share_targets(
            self.host, self._default_targets()
        )
        self.broadcast(
            MessageKinds.MICROBLOCK,
            microblock.size_bytes,
            microblock,
            recipients=targets,
        )

    def _default_targets(self) -> list[int]:
        return [node for node in range(self.config.n) if node != self.node_id]

    def _enqueue_proposable(self, mb_id: MicroBlockId) -> None:
        if mb_id not in self._referenced and mb_id not in self._committed:
            self._proposable.append(mb_id)

    # -- leader side ---------------------------------------------------

    def make_payload(self) -> Payload:
        entries: list[PayloadEntry] = []
        limit = self.config.proposal_max_microblocks
        while self._proposable:
            if limit and len(entries) >= limit:
                break
            mb_id = self._proposable.popleft()
            if mb_id in self._referenced or mb_id in self._committed:
                continue
            self._referenced[mb_id] = 0
            entries.append(PayloadEntry(mb_id=mb_id))
        return Payload(entries=tuple(entries))

    # -- follower side -----------------------------------------------------

    def on_proposal(self, proposal: Proposal) -> None:
        self._referenced.acquire(proposal.payload.microblock_ids)

    def prepare(self, proposal: Proposal, on_ready: OnReady) -> None:
        """Voting requires the full data: fetch missing from the proposer."""
        missing = [
            entry.mb_id
            for entry in proposal.payload.entries
            if entry.mb_id not in self.store
        ]
        if not missing:
            on_ready()
            return
        remaining = {"count": len(missing)}

        def one_arrived(_mb: MicroBlock) -> None:
            remaining["count"] -= 1
            if remaining["count"] == 0:
                on_ready()

        delay = self.config.effective_recovery_delay
        for mb_id in missing:
            self.store.on_delivery(mb_id, one_arrived)
            self.fetcher.request(
                mb_id, single_target(proposal.proposer), delay=delay
            )

    def resolve(self, proposal: Proposal, on_full: OnFull) -> None:
        block = Block(proposal=proposal)
        ids = proposal.payload.microblock_ids
        if not ids:
            block.filled_at = self.host.sim.now
            on_full(block)
            return
        remaining = {"count": len(ids)}

        def collect(microblock: MicroBlock) -> None:
            block.microblocks[microblock.id] = microblock
            remaining["count"] -= 1
            if remaining["count"] == 0:
                block.filled_at = self.host.sim.now
                on_full(block)

        delay = self.config.effective_recovery_delay
        for mb_id in ids:
            self.store.on_delivery(mb_id, collect)
            if mb_id not in self.store:
                self.fetcher.request(
                    mb_id, single_target(proposal.proposer), delay=delay
                )

    def mark_committed(self, proposal: Proposal) -> None:
        ids = proposal.payload.microblock_ids
        if ids:
            self._committed.update(ids)
            self._referenced.drop(ids)

    def garbage_collect(self, proposal: Proposal) -> None:
        ids = list(proposal.payload.microblock_ids)
        retention = self.config.gc_retention
        if retention > 0:
            self.host.sim.schedule(
                retention,
                lambda: [self.store.discard(mb_id) for mb_id in ids],
            )

    def on_abandoned(self, proposal: Proposal) -> None:
        """Re-queue ids from a lost fork so they are proposed again."""
        for mb_id in self._referenced.release(
            proposal.payload.microblock_ids
        ):
            if mb_id in self.store and mb_id not in self._committed:
                self._proposable.append(mb_id)

    # -- network -----------------------------------------------------------

    def on_message(self, envelope: Envelope) -> None:
        if envelope.kind in (
            MessageKinds.MICROBLOCK,
            MessageKinds.MICROBLOCK_FETCH,
        ):
            microblock = envelope.payload
            if self.store.add(microblock):
                self._enqueue_proposable(microblock.id)
        elif envelope.kind == MessageKinds.FETCH_REQUEST:
            self.fetcher.handle_request(envelope.src, envelope.payload)
