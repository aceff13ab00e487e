"""Streamlet (Chan & Shi, AFT 2020): epoch-based textbook consensus.

Epochs of fixed duration advance by (synchronized) local clocks. The
epoch's leader proposes a block extending the tip of a longest notarized
chain; every replica broadcasts its vote to everyone (the all-to-all
pattern that gives Streamlet its ``O(n^2)`` vote complexity); a block is
*notarized* at ``2f + 1`` votes; three notarized blocks in consecutive
epochs finalize the middle one and its prefix.

With a native mempool this is N-SL; with Stratus it is S-SL.
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

from repro.config import ProtocolConfig
from repro.consensus.base import ConsensusEngine
from repro.crypto import (
    GENESIS_QC,
    QuorumCert,
    Signature,
    verify_quorum_cert,
    vote_signature,
)
from repro.mempool.base import MessageKinds
from repro.sim.network import Envelope
from repro.types import sizes
from repro.types.proposal import Payload, Proposal, make_block_id

if TYPE_CHECKING:  # pragma: no cover
    from repro.mempool.base import Mempool
    from repro.replica.node import Replica

GENESIS_ID = 0


class Streamlet(ConsensusEngine):
    """Streamlet engine for one replica."""

    name = "streamlet"

    def __init__(
        self, host: "Replica", mempool: "Mempool", config: ProtocolConfig
    ) -> None:
        super().__init__(host, mempool, config)
        genesis = Proposal(
            block_id=GENESIS_ID, view=0, height=0, proposer=-1,
            parent_id=GENESIS_ID, justify=GENESIS_QC, payload=Payload(),
        )
        self.proposals: dict[int, Proposal] = {GENESIS_ID: genesis}
        self.epoch = 0
        self.notarized: set[int] = {GENESIS_ID}
        self.finalized: set[int] = {GENESIS_ID}
        self._finalized_height = 0
        self._votes: dict[int, set[int]] = {}
        self._voted_epochs: set[int] = set()
        self._abandoned: set[int] = set()
        # Proposals neither finalized nor abandoned yet, in insertion
        # order — same incremental sweep structure as HotStuff's.
        self._unresolved: dict[int, Proposal] = {}
        self._block_counter = 0
        self._epoch_timer = None
        # Proposals whose parent has not arrived yet (lost or still in
        # flight) park here; chain sync asks for a retransmission so one
        # dropped proposal cannot hide the rest of the chain forever.
        self._orphans: dict[int, list[Proposal]] = {}
        # Block ids sitting in ``_orphans`` — already received, only
        # waiting on ancestry, so sync must not re-request them.
        self._orphaned: set[int] = set()
        self._sync_requested: set[int] = set()
        # Notarization certificates, piggybacked on proposals through the
        # ``justify`` field (implicit echoing): a replica whose vote copies
        # were lost still learns the parent is notarized from any child
        # extending it, so vote loss cannot split the notarized views.
        self._certs: dict[int, QuorumCert] = {GENESIS_ID: GENESIS_QC}

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        self._next_epoch()

    def current_leader(self) -> int:
        return self.leader_of(max(self.epoch, 1))

    def suspend(self) -> None:
        if self._epoch_timer is not None:
            self._epoch_timer.cancel()
            self._epoch_timer = None

    def resume(self) -> None:
        # Epochs advance by synchronized local clocks, so a restarted
        # replica rejoins at the wall-clock epoch, not where it left off.
        period = self.config.streamlet_epoch
        now = self.host.sim.now
        self.epoch = max(self.epoch, int(now / period) + 1)
        self._epoch_timer = self.host.sim.schedule_at(
            max(self.epoch * period, now), self._next_epoch
        )

    def rebase_block_ids(self, base: int) -> None:
        if self._block_counter:
            raise RuntimeError("cannot rebase after proposing blocks")
        self._block_counter = base

    # -- epochs ------------------------------------------------------------

    def _next_epoch(self) -> None:
        self.epoch += 1
        self._epoch_timer = self.host.sim.schedule(
            self.config.streamlet_epoch, self._next_epoch
        )
        if (
            self.leader_of(self.epoch) == self.node_id
            and not self.host.behavior.silent
        ):
            self._propose(self.epoch)

    def _propose(self, epoch: int) -> None:
        tip = self._longest_notarized_tip()
        payload = self.mempool.make_payload()
        proposal = Proposal(
            block_id=make_block_id(self.node_id, self._block_counter),
            view=epoch,
            height=tip.height + 1,
            proposer=self.node_id,
            parent_id=tip.block_id,
            justify=self._certs.get(tip.block_id, GENESIS_QC),
            payload=payload,
            created_at=self.host.sim.now,
        )
        self._block_counter += 1
        self.broadcast(MessageKinds.PROPOSAL, proposal.size_bytes, proposal)
        self._handle_proposal(proposal)

    def _longest_notarized_tip(self) -> Proposal:
        tip = self.proposals[GENESIS_ID]
        for block_id in self.notarized:
            proposal = self.proposals[block_id]
            if (proposal.height, proposal.view) > (tip.height, tip.view):
                tip = proposal
        return tip

    # -- message handling ----------------------------------------------

    def on_message(self, envelope: Envelope) -> None:
        kind = envelope.kind
        if kind == MessageKinds.PROPOSAL:
            self._handle_proposal(envelope.payload)
        elif kind == MessageKinds.VOTE:
            block_id, signature = envelope.payload
            self._handle_vote(block_id, signature)
        elif kind == MessageKinds.SYNC_REQUEST:
            self._serve_sync(envelope.src, envelope.payload)

    def _handle_proposal(self, proposal: Proposal) -> None:
        if proposal.block_id in self.proposals:
            return
        parent = self.proposals.get(proposal.parent_id)
        if parent is None:
            # Parent lost or still in flight: park and ask the proposer
            # (who must hold the whole ancestry it extended) for a
            # retransmission, else this hole hides all descendants.
            self._orphans.setdefault(proposal.parent_id, []).append(proposal)
            self._orphaned.add(proposal.block_id)
            self._request_sync(proposal.parent_id, proposal.proposer)
            return
        self._orphaned.discard(proposal.block_id)
        self.proposals[proposal.block_id] = proposal
        # Stored whether or not a vote follows (the epoch may be over):
        # the mempool must still see its ids as referenced. An invalid
        # payload gets no votes and is not tracked for abandonment.
        payload = proposal.payload
        payload_valid = self.mempool.verify_payload(payload)
        if payload_valid:
            if payload.entries:
                self.mempool.on_proposal(proposal)
            self._unresolved[proposal.block_id] = proposal
        self._adopt_cert(proposal.justify)
        self._release_orphans(proposal)
        # Votes can outrun the proposal under loss-induced reordering;
        # a quorum that already accumulated notarizes immediately.
        self._try_notarize(proposal.block_id)
        if self.host.behavior.silent:
            return
        if proposal.view != self.epoch or proposal.view in self._voted_epochs:
            return
        if proposal.proposer != self.leader_of(proposal.view):
            return
        # Streamlet voting rule: the proposal must extend a longest
        # notarized chain the voter has seen.
        longest = self._longest_notarized_tip()
        if parent.block_id not in self.notarized and parent.block_id != GENESIS_ID:
            return
        if parent.height < longest.height:
            return
        if not payload_valid:
            return
        self._voted_epochs.add(proposal.view)

        def cast_vote() -> None:
            signature = vote_signature(
                self.node_id, proposal.block_id, proposal.view
            )
            self.broadcast(
                MessageKinds.VOTE, sizes.VOTE, (proposal.block_id, signature)
            )
            self._handle_vote(proposal.block_id, signature)

        self.mempool.prepare(proposal, cast_vote)

    def _handle_vote(self, block_id: int, signature: Signature) -> None:
        if signature.forged or block_id in self.notarized:
            return
        voters = self._votes.setdefault(block_id, set())
        voters.add(signature.signer)
        self._try_notarize(block_id)

    def _try_notarize(self, block_id: int) -> None:
        """Notarize once both the quorum and the proposal body are here."""
        if block_id in self.notarized:
            return
        voters = self._votes.get(block_id)
        if voters is None or len(voters) < self.config.consensus_quorum:
            return
        if block_id not in self.proposals:
            return
        proposal = self.proposals[block_id]
        self.notarized.add(block_id)
        self._certs[block_id] = QuorumCert(
            block_id=block_id, view=proposal.view,
            signers=tuple(sorted(voters)),
        )
        self._votes.pop(block_id, None)
        self._check_finalization(proposal)

    def _adopt_cert(self, qc: QuorumCert) -> None:
        """Notarize from a piggybacked certificate instead of votes."""
        if qc.block_id == GENESIS_ID or qc.block_id in self.notarized:
            return
        if qc.block_id not in self.proposals:
            return
        if not verify_quorum_cert(
            qc, self.config.consensus_quorum, self.config.n
        ):
            return
        self._certs[qc.block_id] = qc
        self.notarized.add(qc.block_id)
        self._votes.pop(qc.block_id, None)
        self._check_finalization(self.proposals[qc.block_id])

    # -- chain sync ----------------------------------------------------

    def _release_orphans(self, proposal: Proposal) -> None:
        for orphan in self._orphans.pop(proposal.block_id, []):
            self._handle_proposal(orphan)

    def _request_sync(self, block_id: int, holder: int) -> None:
        """Ask ``holder`` to retransmit a missing ancestor.

        Requests repeat on an epoch cadence against rotating holders
        until the block arrives, bounding the damage of one lost or
        crashed holder.
        """
        if block_id in self.proposals or self.host.behavior.silent:
            return
        if block_id in self._sync_requested or block_id in self._orphaned:
            return
        self._sync_requested.add(block_id)
        if holder == self.node_id:
            # Never ask ourselves (a respawned replica's own pre-crash
            # blocks name it as proposer): it stalls catch-up for a full
            # retry round per ancestor.
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
                  block_id)
        self.host.sim.schedule(
            self.config.streamlet_epoch,
            lambda: self._send_sync_round(
                block_id, self._next_sync_holder(holder), rounds_left - 1
            ),
        )

    def _serve_sync(self, requester: int, block_id: int) -> None:
        proposal = self.proposals.get(block_id)
        if proposal is None or self.host.behavior.silent:
            return
        self.send(requester, MessageKinds.PROPOSAL, proposal.size_bytes,
                  proposal)

    # -- finalization --------------------------------------------------

    def _check_finalization(self, newest: Proposal) -> None:
        """Three adjacent-epoch notarized blocks finalize the middle one."""
        middle = self.proposals.get(newest.parent_id)
        if middle is None or middle.block_id == GENESIS_ID:
            return
        oldest = self.proposals.get(middle.parent_id)
        if oldest is None:
            return
        # Genesis sits at epoch 0, so it participates in the adjacency
        # check like any other block (epochs 0,1,2 form a valid 3-chain).
        adjacent = (
            newest.view == middle.view + 1
            and middle.view == oldest.view + 1
        )
        if not adjacent:
            return
        if middle.block_id not in self.notarized:
            return
        if oldest.block_id != GENESIS_ID and oldest.block_id not in self.notarized:
            return
        if middle.block_id not in self.finalized:
            self._finalize_chain(middle)

    def _finalize_chain(self, tip: Proposal) -> None:
        chain: list[Proposal] = []
        cursor: Optional[Proposal] = tip
        while cursor is not None and cursor.block_id not in self.finalized:
            chain.append(cursor)
            cursor = self.proposals.get(cursor.parent_id)
        for proposal in reversed(chain):
            self.finalized.add(proposal.block_id)
            self._finalized_height = max(
                self._finalized_height, proposal.height
            )
            self._unresolved.pop(proposal.block_id, None)
            self.handle_commit(proposal)
        self._sweep_abandoned()

    def _sweep_abandoned(self) -> None:
        abandoned = [
            proposal for proposal in self._unresolved.values()
            if proposal.height <= self._finalized_height
        ]
        for proposal in abandoned:
            del self._unresolved[proposal.block_id]
            self._abandoned.add(proposal.block_id)
            self.mempool.on_abandoned(proposal)
