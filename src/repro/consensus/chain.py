"""The block tree every chained engine keeps, written once.

HotStuff (both commit rules) and Streamlet differ in how a block
gets certified and when a certified block commits. What happens to a
proposal around those two decisions is the same — ``stored ->
unresolved -> committed | abandoned``, orphans parked until chain sync
delivers their parent — and lives here (DESIGN.md, "One proposal
lifecycle").

Inheritance, not a delegate: ``routes`` and ``_handle_proposal`` stay
in the subclasses and reach this state through ``self`` with no extra
call per message.
"""

from __future__ import annotations

import abc
from typing import Iterator, Optional, TYPE_CHECKING

from repro.config import ProtocolConfig
from repro.consensus.base import ConsensusEngine
from repro.crypto import GENESIS_QC, QuorumCert
from repro.mempool.base import MessageKinds
from repro.sim.engine import Timer
from repro.sim.interfaces import Envelope
from repro.types import sizes
from repro.types.proposal import Payload, Proposal, make_block_id

if TYPE_CHECKING:  # pragma: no cover
    from repro.mempool.base import Mempool
    from repro.replica.node import Replica

GENESIS_ID = 0

#: Most blocks one sync answer carries, so one small request cannot make a
#: peer stream its whole chain. A short answer's oldest block parks as an
#: orphan and ``_park_orphan`` asks for its parent, so the next answer
#: continues the walk down to the same height. The ledger's crash cell
#: needs 14 after a 2 s crash.
SYNC_SEGMENT_BLOCKS = 32


class ChainedEngine(ConsensusEngine):
    """Block tree, chain sync and the commit walk of a chained engine.

    ``sync_period`` is how long to wait for a requested block before
    asking the next holder (HotStuff's view timeout, Streamlet's epoch).
    """

    def __init__(
        self,
        host: "Replica",
        mempool: "Mempool",
        config: ProtocolConfig,
        sync_period: float,
    ) -> None:
        super().__init__(host, mempool, config)
        self._sync_period = sync_period
        genesis = Proposal(
            block_id=GENESIS_ID, view=0, height=0, proposer=-1,
            parent_id=GENESIS_ID, justify=GENESIS_QC, payload=Payload(),
        )
        self.proposals: dict[int, Proposal] = {GENESIS_ID: genesis}
        self.committed: set[int] = {GENESIS_ID}
        self.committed_height = 0
        # Proposals neither committed nor abandoned yet, in insertion
        # order. The abandonment sweep walks this instead of the full
        # proposal store, which otherwise makes every commit O(all
        # proposals ever seen).
        self._unresolved: dict[int, Proposal] = {}
        self._block_counter = 0
        #: The engine's one self-scheduled clock (view timer, epoch
        #: clock); cancelled while the replica is crashed.
        self._timer: Optional[Timer] = None
        # Large parent proposals can still be in flight (or lost) when
        # their children arrive; children park here until the parent
        # lands, so one dropped proposal cannot hide the rest of the
        # chain forever.
        self._orphans: dict[int, list[Proposal]] = {}
        # Block ids sitting in ``_orphans`` — already received, only
        # waiting on ancestry, so sync must not re-request them.
        self._orphaned: set[int] = set()
        self._sync_requested: set[int] = set()
        # Parked children still to hand back, one iterator per released
        # parent, newest on top (see _release_orphans).
        self._releasing: list[Iterator[Proposal]] = []

    @abc.abstractmethod
    def _handle_proposal(self, proposal: Proposal) -> None:
        """Store ``proposal`` if its parent is known (then report it to
        the mempool, vote, and :meth:`_release_orphans`), else
        :meth:`_park_orphan` it. Re-entered for each released orphan."""

    def suspend(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def rebase_block_ids(self, base: int) -> None:
        if self._block_counter:
            raise RuntimeError("cannot rebase after proposing blocks")
        self._block_counter = base

    def _propose_block(
        self, parent: Proposal, view: int, justify: QuorumCert,
        payload: Payload,
    ) -> Proposal:
        """Mint this replica's next block — a child of ``parent`` for
        ``view`` — broadcast it, deliver it to ourselves, and return it."""
        node = self.node_id
        proposal = Proposal(
            block_id=make_block_id(node, self._block_counter),
            view=view,
            height=parent.height + 1,
            proposer=node,
            parent_id=parent.block_id,
            justify=justify,
            payload=payload,
            created_at=self.host.sim.now,
        )
        self._block_counter += 1
        self.broadcast(MessageKinds.PROPOSAL, proposal.size_bytes, proposal)
        self._handle_proposal(proposal)
        return proposal

    # -- orphans and chain sync --------------------------------------------

    def _park_orphan(self, proposal: Proposal) -> None:
        """Hold ``proposal`` until its parent arrives, and ask its
        proposer (who must hold the whole ancestry it extended) for a
        retransmission in case the parent was actually lost. A block
        delivered again while parked stays parked once."""
        if proposal.block_id not in self._orphaned:
            self._orphans.setdefault(proposal.parent_id, []).append(proposal)
            self._orphaned.add(proposal.block_id)
        self._request_sync(proposal.parent_id, proposal.proposer)

    def _release_orphans(self, proposal: Proposal) -> None:
        """``proposal`` was stored: hand its parked descendants back to
        the subclass, depth first, siblings in arrival order. Skipped
        while ``_orphans`` is empty.

        A loop, not a recursion: a long parked chain would otherwise
        nest one ``_handle_proposal`` per block. A call made while a
        release is running (the subclass storing a released child)
        pushes that child's children and returns; the running loop
        hands them back as soon as the child's handler returns.
        """
        children = self._orphans.pop(proposal.block_id, None)
        if children is None:
            return
        stack = self._releasing
        stack.append(iter(children))
        if len(stack) > 1:
            return
        while stack:
            orphan = next(stack[-1], None)
            if orphan is None:
                stack.pop()
                continue
            self._orphaned.discard(orphan.block_id)
            self._handle_proposal(orphan)

    def _request_sync(self, block_id: int, holder: int) -> None:
        """Ask ``holder`` (who extended the block) to retransmit it.

        Chain sync: broadcast delivers proposals exactly once, so a
        dropped copy would otherwise leave this replica parked on an
        orphan forever. Requests repeat every ``sync_period`` against
        rotating holders until the block arrives.
        """
        if block_id in self.proposals or self.host.behavior.silent:
            return
        if block_id in self._sync_requested or block_id in self._orphaned:
            return
        self._sync_requested.add(block_id)
        if holder == self.node_id:
            # A respawned replica walking back through its lost chain
            # hits blocks it proposed in a previous incarnation; asking
            # itself wastes a whole retry round per ancestor and turns
            # catch-up from O(RTT) into O(sync_period) per block.
            holder = self._next_sync_holder(holder)
        self._send_sync_round(block_id, holder, rounds_left=10)

    def _next_sync_holder(self, holder: int) -> int:
        """Next replica to ask for a retransmission — never ourselves."""
        leaders = self.host.leader_set
        index = leaders.index(holder) if holder in leaders else -1
        for step in range(1, len(leaders) + 1):
            candidate = leaders[(index + step) % len(leaders)]
            if candidate != self.node_id:
                return candidate
        return holder

    def _send_sync_round(
        self, block_id: int, holder: int, rounds_left: int
    ) -> None:
        if (block_id in self.proposals or block_id in self._orphaned
                or rounds_left <= 0):
            self._sync_requested.discard(block_id)
            return
        self.send(holder, MessageKinds.SYNC_REQUEST, sizes.FETCH_REQUEST,
                  (block_id, self.committed_height))
        self.host.sim.schedule(
            self._sync_period,
            lambda: self._send_sync_round(
                block_id, self._next_sync_holder(holder), rounds_left - 1
            ),
        )

    def _serve_sync(self, envelope: Envelope) -> None:
        """Answer ``(block_id, requester's committed height)`` with the
        block and its stored ancestors above that height, oldest first:
        one round trip for the missing segment instead of one per
        ancestor. A malformed request is dropped and counted."""
        request = envelope.payload
        if (type(request) is not tuple or len(request) != 2
                or not all(type(field) is int for field in request)):
            self.host.network.stats.messages_dropped += 1
            return
        if self.host.behavior.silent:
            return
        block_id, height = request
        segment: list[Proposal] = []
        proposal = self.proposals.get(block_id)
        while proposal is not None and len(segment) < SYNC_SEGMENT_BLOCKS:
            segment.append(proposal)
            above = proposal.height > height + 1  # its parent is too
            proposal = self.proposals.get(proposal.parent_id) if above else None
        for proposal in reversed(segment):
            self.send(envelope.src, MessageKinds.PROPOSAL,
                      proposal.size_bytes, proposal)

    # -- commit and abandonment --------------------------------------------

    def _commit_chain(self, tip: Proposal) -> None:
        """Commit ``tip`` and its uncommitted ancestors, oldest first,
        then abandon each unresolved proposal the new height rules out,
        once, in insertion order (part of the event schedule)."""
        chain: list[Proposal] = []
        cursor: Optional[Proposal] = tip
        while cursor is not None and cursor.block_id not in self.committed:
            chain.append(cursor)
            cursor = self.proposals.get(cursor.parent_id)
        unresolved = self._unresolved
        sim, on_commit = self.host.sim, self.mempool.on_commit
        for proposal in reversed(chain):
            self.committed.add(proposal.block_id)
            if proposal.height > self.committed_height:
                self.committed_height = proposal.height
            unresolved.pop(proposal.block_id, None)
            on_commit(proposal, sim.now)
        height = self.committed_height
        for proposal in unresolved.values():
            if proposal.height <= height:
                break  # a fork was ruled out
        else:
            return
        for proposal in [p for p in unresolved.values() if p.height <= height]:
            del unresolved[proposal.block_id]
            self.mempool.on_abandoned(proposal)
