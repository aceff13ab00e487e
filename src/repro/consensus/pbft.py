"""PBFT normal-case protocol (pre-prepare / prepare / commit).

Used by the Appendix-A benches to cross-check the analytic throughput
model: the fixed leader broadcasts full proposals (pre-prepare), and all
replicas exchange all-to-all prepare and commit votes — ``O(n^2)``
message complexity per slot. Slots are pipelined up to a window, each a
block of :class:`ChainedEngine`'s tree extending the previous slot. View
changes are out of scope (the analysis and the benches that use PBFT
are normal-case only).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.config import ProtocolConfig
from repro.consensus.chain import GENESIS_ID, ChainedEngine
from repro.crypto import GENESIS_QC
from repro.mempool.base import MessageKinds
from repro.sim.interfaces import Handler
from repro.types import sizes
from repro.types.proposal import Proposal

if TYPE_CHECKING:  # pragma: no cover
    from repro.mempool.base import Mempool
    from repro.replica.node import Replica

#: Slots the leader keeps in flight beyond the last commit.
PBFT_WINDOW = 8


class Pbft(ChainedEngine):
    """PBFT engine for one replica (normal case, pipelined window)."""

    name = "pbft"

    def __init__(
        self, host: "Replica", mempool: "Mempool", config: ProtocolConfig
    ) -> None:
        super().__init__(host, mempool, config, config.view_timeout)
        #: The leader's newest slot; the next one extends it.
        self._tip = self.proposals[GENESIS_ID]
        # Voters per block id, and the blocks we voted for, per round.
        self._prepares: dict[int, set[int]] = {}
        self._commits: dict[int, set[int]] = {}
        self._prepare_sent: set[int] = set()
        self._commit_sent: set[int] = set()
        self._pump_scheduled = False

    def start(self) -> None:
        self.resume()

    def current_leader(self) -> int:
        return self.leader_of(0)

    def resume(self) -> None:
        # The pump chain dies while the replica is silent (crashed); the
        # leader must restart it or the pipeline stalls forever.
        if self.current_leader() == self.node_id:
            self._pump()
            self._arm_retransmit()

    # -- leader ----------------------------------------------------------

    def _pump(self) -> None:
        """Propose while the pipeline window has room and data is pending."""
        self._pump_scheduled = False
        if self.host.behavior.silent:
            return
        while self._tip.height - self.committed_height < PBFT_WINDOW:
            payload = self.mempool.make_payload()
            if payload.is_empty:
                break
            self._tip = self._propose_block(self._tip, 0, GENESIS_QC, payload)
        self._schedule_pump()

    def _schedule_pump(self) -> None:
        if self._pump_scheduled:
            return
        self._pump_scheduled = True
        self.host.sim.schedule(self.config.empty_view_delay, self._pump)

    def _arm_retransmit(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
        self._timer = self.host.sim.schedule(
            self.config.view_timeout, self._retransmit
        )

    def _retransmit(self) -> None:
        """Rebroadcast every uncommitted slot, with our votes for it.

        The normal case has no view change, so a pre-prepare or vote lost
        to a partition would jam the pipelined window forever. The leader
        periodically re-broadcasts its unresolved proposals; replicas
        answer duplicates by re-sending their own votes, repairing the
        quorums. A slot the leader already committed reaches a follower
        that missed it through chain sync instead.
        """
        self._timer = None
        if self.host.behavior.silent:
            return
        for proposal in self._unresolved.values():
            self.broadcast(
                MessageKinds.PROPOSAL, proposal.size_bytes, proposal
            )
            self._resend_votes(proposal.block_id)
        self._arm_retransmit()

    def _resend_votes(self, block_id: int) -> None:
        if block_id in self._prepare_sent:
            self._vote(MessageKinds.PBFT_PREPARE, block_id)
        if block_id in self._commit_sent:
            self._vote(MessageKinds.PBFT_COMMIT, block_id)

    def _vote(self, kind: str, block_id: int) -> None:
        self.broadcast(kind, sizes.VOTE, (block_id, self.node_id))

    # -- message handling ----------------------------------------------

    def routes(self) -> dict[str, Handler]:
        # Both vote rounds carry ``(block_id, voter)``.
        prepare, commit = self._on_prepare, self._on_commit_vote
        return {
            MessageKinds.PROPOSAL: lambda env: self._handle_proposal(env.payload),
            MessageKinds.PBFT_PREPARE: lambda env: prepare(*env.payload),
            MessageKinds.PBFT_COMMIT: lambda env: commit(*env.payload),
            MessageKinds.SYNC_REQUEST: self._serve_sync,
        }

    def _handle_proposal(self, proposal: Proposal) -> None:
        """Pre-prepare: store the slot once its parent is, then prepare."""
        block_id = proposal.block_id
        silent = self.host.behavior.silent
        if block_id in self.proposals:
            # Leader retransmission: our earlier votes may be the ones
            # that were lost, so answer the duplicate by re-sending them.
            if block_id not in self.committed and not silent:
                self._resend_votes(block_id)
            return
        if proposal.parent_id not in self.proposals:
            self._park_orphan(proposal)
            return
        payload = proposal.payload
        if not self.mempool.verify_payload(payload):
            return
        if payload.entries:
            self.mempool.on_proposal(proposal)
        self.proposals[block_id] = proposal
        self._unresolved[block_id] = proposal
        if not silent:

            def send_prepare() -> None:
                self._prepare_sent.add(block_id)
                self._vote(MessageKinds.PBFT_PREPARE, block_id)
                self._on_prepare(block_id, self.node_id)

            self.mempool.prepare(proposal, send_prepare)
        if self._orphans:
            self._release_orphans(proposal)

    def _on_prepare(self, block_id: int, voter: int) -> None:
        prepares = self._prepares.setdefault(block_id, set())
        prepares.add(voter)
        if (
            block_id in self._commit_sent
            or block_id not in self.proposals
            or len(prepares) < self.config.consensus_quorum
            or self.host.behavior.silent
        ):
            return
        self._commit_sent.add(block_id)
        self._vote(MessageKinds.PBFT_COMMIT, block_id)
        self._on_commit_vote(block_id, self.node_id)

    def _on_commit_vote(self, block_id: int, voter: int) -> None:
        """A commit quorum commits the slot and its stored ancestors —
        safe because a slot is stored, and so prepared, only after its
        parent, and the fixed leader is never Byzantine."""
        commits = self._commits.setdefault(block_id, set())
        commits.add(voter)
        if (
            block_id in self.committed
            or block_id not in self.proposals
            or len(commits) < self.config.consensus_quorum
        ):
            return
        self._commit_chain(self.proposals[block_id])
        if self.current_leader() == self.node_id:
            self._pump()
