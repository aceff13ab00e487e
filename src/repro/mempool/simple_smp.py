"""Simple shared mempool: best-effort broadcast + fetch-from-leader.

This is the straw-man SMP the paper calls SMP-HS: microblocks are
broadcast best-effort, the leader proposes ids of whatever it has seen,
and replicas that are missing a referenced microblock must fetch it from
the proposer *before* they can vote (Problem-I). Under network asynchrony
or censoring Byzantine senders this congests the leader and triggers
view-change storms — the failure mode Figures 7 and 8 measure.
"""

from __future__ import annotations

from repro.mempool.base import MessageKinds, OnReady
from repro.mempool.fetching import single_target
from repro.mempool.id_mempool import IdMempool
from repro.sim.interfaces import Envelope, Handler
from repro.types.microblock import MicroBlock, MicroBlockId
from repro.types.proposal import PayloadEntry, Proposal


class SimpleSharedMempool(IdMempool):
    """SMP with best-effort broadcast (SMP-HS / SMP-SL)."""

    name = "simple"

    def _on_new_microblock(self, microblock: MicroBlock) -> None:
        """ShareTx: broadcast a freshly batched microblock best-effort."""
        self.store.add(microblock)
        self._enqueue(microblock.id)
        self._broadcast_body(microblock)

    def prepare(self, proposal: Proposal, on_ready: OnReady) -> None:
        """Voting requires the full data: fetch missing from the proposer."""
        self.resolve(proposal, lambda _block: on_ready())

    def _fetch_missing(self, entry: PayloadEntry, proposal: Proposal) -> None:
        """Only the proposer is known to hold what it proposed."""
        self.fetcher.request(
            entry.mb_id, single_target(proposal.proposer), grace=True
        )

    def _requeue(self, mb_id: MicroBlockId) -> None:
        if mb_id in self.store:
            self._enqueue(mb_id)

    # -- network -----------------------------------------------------------

    def routes(self) -> dict[str, Handler]:
        return {
            **super().routes(),
            MessageKinds.MICROBLOCK: self._on_body,
            MessageKinds.MICROBLOCK_FETCH: self._on_body,
        }

    def _on_body(self, envelope: Envelope) -> None:
        microblock = envelope.payload
        if self.store.add(microblock):
            self._enqueue(microblock.id)
