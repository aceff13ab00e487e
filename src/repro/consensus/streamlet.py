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

from typing import TYPE_CHECKING

from repro.config import ProtocolConfig
from repro.consensus.chain import GENESIS_ID, ChainedEngine
from repro.crypto import (
    GENESIS_QC,
    QuorumCert,
    Signature,
    verify_quorum_cert,
    vote_signature,
)
from repro.mempool.base import MessageKinds
from repro.sim.interfaces import Handler
from repro.types import sizes
from repro.types.proposal import Proposal

if TYPE_CHECKING:  # pragma: no cover
    from repro.mempool.base import Mempool
    from repro.replica.node import Replica


class Streamlet(ChainedEngine):
    """Streamlet for one replica: epochs, notarization and the
    finalization rule (finalized = :class:`ChainedEngine`'s ``committed``)."""

    name = "streamlet"

    def __init__(
        self, host: "Replica", mempool: "Mempool", config: ProtocolConfig
    ) -> None:
        super().__init__(host, mempool, config, config.streamlet_epoch)
        self.epoch = 0
        self.notarized: set[int] = {GENESIS_ID}
        self._votes: dict[int, set[int]] = {}
        self._voted_epochs: set[int] = set()
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

    def resume(self) -> None:
        # Epochs advance by synchronized local clocks, so a restarted
        # replica rejoins at the wall-clock epoch, not where it left off.
        period = self.config.streamlet_epoch
        now = self.host.sim.now
        self.epoch = max(self.epoch, int(now / period) + 1)
        self._timer = self.host.sim.schedule_at(
            max(self.epoch * period, now), self._next_epoch
        )

    # -- epochs ------------------------------------------------------------

    def _next_epoch(self) -> None:
        self.epoch += 1
        self._timer = self.host.sim.schedule(
            self.config.streamlet_epoch, self._next_epoch
        )
        if (
            self.leader_of(self.epoch) == self.node_id
            and not self.host.behavior.silent
        ):
            self._propose(self.epoch)

    def _propose(self, epoch: int) -> None:
        tip = self._longest_notarized_tip()
        self._propose_block(
            tip, epoch, self._certs.get(tip.block_id, GENESIS_QC),
            self.mempool.make_payload(),
        )

    def _longest_notarized_tip(self) -> Proposal:
        tip = self.proposals[GENESIS_ID]
        for block_id in self.notarized:
            proposal = self.proposals[block_id]
            if (proposal.height, proposal.view) > (tip.height, tip.view):
                tip = proposal
        return tip

    # -- message handling ----------------------------------------------

    def routes(self) -> dict[str, Handler]:
        return {
            MessageKinds.PROPOSAL: lambda env: self._handle_proposal(env.payload),
            MessageKinds.VOTE: lambda env: self._handle_vote(*env.payload),
            MessageKinds.SYNC_REQUEST: self._serve_sync,
        }

    def _handle_proposal(self, proposal: Proposal) -> None:
        if proposal.block_id in self.proposals:
            return
        parent = self.proposals.get(proposal.parent_id)
        if parent is None:
            self._park_orphan(proposal)
            return
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
        if self._orphans:
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
        if middle.block_id not in self.committed:
            self._commit_chain(middle)
