"""What every id-referencing shared mempool does with a microblock id.

Simple, gossip, Narwhal and Stratus differ in how a body is shared,
what evidence an entry carries and when a replica may vote. Between
those decisions an id is in exactly one state at a replica —
``proposable -> referenced -> committed``, with
:meth:`IdMempool.on_abandoned` the only way back — and that lives here
(DESIGN.md, "One proposal lifecycle").
"""

from __future__ import annotations

import abc
from collections import deque
from typing import TYPE_CHECKING

from repro.config import ProtocolConfig
from repro.mempool.base import Mempool, MessageKinds, OnFull
from repro.mempool.batching import MicroBlockBatcher
from repro.mempool.fetching import FetchManager
from repro.mempool.store import MicroBlockStore
from repro.sim.interfaces import DeadlineQueue, Envelope, Handler
from repro.types import TxBatch
from repro.types.microblock import MicroBlock, MicroBlockId
from repro.types.proposal import Block, Payload, PayloadEntry, Proposal

if TYPE_CHECKING:  # pragma: no cover
    from repro.replica.node import Replica

#: Seconds a committed microblock's body and proof are retained before
#: they are discarded (Section VIII): time for straggling replicas to
#: finish their background fills. 0 disables GC.
GC_RETENTION = 30.0


class IdMempool(Mempool):
    """Store, fetcher and batcher wiring plus the id lifecycle; a
    subclass supplies ShareTx, the vote gate (``prepare``) and the
    abstract hooks below."""

    def __init__(self, host: "Replica", config: ProtocolConfig) -> None:
        super().__init__(host, config)
        self.store = MicroBlockStore()  # mbMap
        self.fetcher = FetchManager(host, config, self.store)
        self.batcher = MicroBlockBatcher(host, config, self._on_new_microblock)
        self._proposable: deque[MicroBlockId] = deque()  # avaQue
        #: Ids in the queue, which none enters twice (Stratus hears of one
        #: id from a push's own completion and the proof broadcast); the
        #: drain removes every id it pops, taken or skipped.
        self._queued: set[MicroBlockId] = set()
        #: ``id -> stored, unresolved proposals that carry it``. A key's
        #: presence is what keeps an id out of the next payload; the count
        #: is what makes ``on_abandoned`` safe. Two stored proposals can
        #: carry one id (a leader cut off by loss proposes it on a fork
        #: nobody saw, a later leader proposes it again on the chain that
        #: wins); when the fork is abandoned the id must stay referenced,
        #: or this replica proposes it a third time on top of the block
        #: that is about to commit it. ``make_payload`` enters an id at 0
        #: — held by this replica's own payload until that is stored.
        self._referenced: dict[MicroBlockId, int] = {}
        self._committed: set[MicroBlockId] = set()
        #: Id tuples of resolved proposals, each due for ``_discard`` a
        #: retention window after it resolved.
        self._retained = DeadlineQueue(host.sim, self._discard)

    # -- client side -------------------------------------------------------

    def on_client_batch(self, batch: TxBatch) -> None:
        self.batcher.add(batch)

    def rebase_microblock_ids(self, base: int) -> None:
        self.batcher.rebase(base)

    @abc.abstractmethod
    def _on_new_microblock(self, microblock: MicroBlock) -> None:
        """``ShareTx``: disseminate a microblock the batcher just cut."""

    def _broadcast_body(self, microblock: MicroBlock) -> None:
        """Best-effort push of a body to every other replica, unless the
        host's behaviour censors some of them (Fig. 8)."""
        targets = self.host.behavior.share_targets(self.host, [
            node for node in range(self.config.n) if node != self.node_id
        ])
        self.host.network.broadcast(
            self.node_id, MessageKinds.MICROBLOCK, microblock.size_bytes,
            microblock, recipients=targets,
        )

    def _enqueue(self, mb_id: MicroBlockId) -> None:
        """``mb_id`` became proposable here, unless a proposal got to it
        first: queue it once and wake a parked leader. Every id enters
        the queue here."""
        if (
            mb_id not in self._queued
            and mb_id not in self._referenced
            and mb_id not in self._committed
        ):
            self._queued.add(mb_id)
            self._proposable.append(mb_id)
            if self._wake is not None:
                self._unpark()

    # -- leader side -------------------------------------------------------

    def make_payload(self) -> Payload:
        """``MakeProposal``: drain the queue into a payload."""
        entries: list[PayloadEntry] = []
        limit = self.config.proposal_max_microblocks
        queue = self._proposable
        while queue:
            if limit and len(entries) >= limit:
                break
            mb_id = queue.popleft()
            self._queued.discard(mb_id)
            if mb_id in self._referenced or mb_id in self._committed:
                continue
            self._referenced[mb_id] = 0
            entries.append(self._entry(mb_id))
        return Payload(entries=tuple(entries))

    def _entry(self, mb_id: MicroBlockId) -> PayloadEntry:
        """What a proposal says about ``mb_id``: the bare id."""
        return PayloadEntry(mb_id=mb_id)

    # -- follower side -----------------------------------------------------

    def on_proposal(self, proposal: Proposal) -> None:
        """One more stored proposal carries each of its ids."""
        refs = self._referenced
        for mb_id in proposal.payload.microblock_ids:
            refs[mb_id] = refs.get(mb_id, 0) + 1

    def mark_committed(self, proposal: Proposal) -> None:
        """Whoever carried these ids, it is over."""
        ids = proposal.payload.microblock_ids
        if ids:
            self._committed.update(ids)
            refs = self._referenced
            for mb_id in ids:
                if mb_id in refs:
                    del refs[mb_id]

    def on_abandoned(self, proposal: Proposal) -> None:
        """One proposal fewer carries each of its ids; re-queue those no
        stored proposal carries any more (SMP-Inclusion)."""
        refs = self._referenced
        for mb_id in proposal.payload.microblock_ids:
            left = refs.get(mb_id, 0) - 1
            if left > 0:
                refs[mb_id] = left
                continue
            refs.pop(mb_id, None)
            if mb_id not in self._committed:
                self._requeue(mb_id)

    @abc.abstractmethod
    def _requeue(self, mb_id: MicroBlockId) -> None:
        """No stored proposal carries ``mb_id`` any more and it is not
        committed: queue it again if this replica could still propose it
        (body held, certified, proven — the subclass's rule)."""

    def _resolvable(self, entries):
        """Entries this replica materializes bodies for: all of them."""
        return entries

    def resolve(self, proposal: Proposal, on_full: OnFull) -> None:
        """Held bodies fill in one pass; each missing one is fetched."""
        block = Block(proposal=proposal)
        microblocks = block.microblocks
        entries = proposal.payload.entries
        if entries:
            entries = self._resolvable(entries)
        held = self.store.blocks
        missing = []
        for entry in entries:
            body = held.get(entry.mb_id)
            if body is None:
                missing.append(entry)
            else:
                microblocks[entry.mb_id] = body
        if not missing:
            block.filled_at = self.host.sim.now
            on_full(block)
            return
        remaining = len(missing)

        def collect(microblock: MicroBlock) -> None:
            nonlocal remaining
            microblocks[microblock.id] = microblock
            remaining -= 1
            if not remaining:
                block.filled_at = self.host.sim.now
                on_full(block)

        for entry in missing:
            if not self.store.on_delivery(entry.mb_id, collect):
                self._fetch_missing(entry, proposal)

    @abc.abstractmethod
    def _fetch_missing(self, entry: PayloadEntry, proposal: Proposal) -> None:
        """Start fetching the body ``entry`` references from whoever
        this mempool knows to hold it."""

    # -- network -----------------------------------------------------------

    def routes(self) -> dict[str, Handler]:
        return {MessageKinds.FETCH_REQUEST: self._serve_fetch}

    def _serve_fetch(self, envelope: Envelope) -> None:
        self.fetcher.handle_request(envelope.src, envelope.payload)

    def garbage_collect(self, proposal: Proposal) -> None:
        """Retire a resolved proposal's microblocks after the retention
        window, so straggling replicas can still fetch them meanwhile. An
        empty block holds nothing and defers nothing."""
        ids = proposal.payload.microblock_ids
        if ids and GC_RETENTION > 0:
            self._retained.defer(GC_RETENTION, ids)

    def _discard(self, ids) -> None:
        """Retention is over: free what is held per id, fetches too."""
        for mb_id in ids:
            self.store.discard(mb_id)
            self.fetcher.cancel(mb_id)
