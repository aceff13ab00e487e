"""PBFT normal-case protocol (pre-prepare / prepare / commit).

Used by the Appendix-A benches to cross-check the analytic throughput
model: the fixed leader broadcasts full proposals (pre-prepare), and all
replicas exchange all-to-all prepare and commit votes — ``O(n^2)``
message complexity per slot. Instances are pipelined up to a
configurable window. View changes are out of scope (the analysis and the
benches that use PBFT are normal-case only).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.config import ProtocolConfig
from repro.consensus.base import ConsensusEngine
from repro.crypto import GENESIS_QC
from repro.mempool.base import MessageKinds
from repro.sim.interfaces import Handler
from repro.types import sizes
from repro.types.proposal import Proposal, make_block_id

if TYPE_CHECKING:  # pragma: no cover
    from repro.mempool.base import Mempool
    from repro.replica.node import Replica

#: Sequence numbers the leader keeps in flight beyond the last commit.
PBFT_WINDOW = 8


class _SlotState:
    """Prepare/commit vote accumulation for one sequence number."""

    __slots__ = (
        "proposal", "prepares", "commits",
        "prepare_sent", "prepared", "committed",
    )

    def __init__(self) -> None:
        self.proposal = None
        self.prepares: set[int] = set()
        self.commits: set[int] = set()
        self.prepare_sent = False
        self.prepared = False
        self.committed = False


class Pbft(ConsensusEngine):
    """PBFT engine for one replica (normal case, pipelined window)."""

    name = "pbft"

    def __init__(
        self, host: "Replica", mempool: "Mempool", config: ProtocolConfig
    ) -> None:
        super().__init__(host, mempool, config)
        self._slots: dict[int, _SlotState] = {}
        self._next_seq = 0
        self._last_committed = -1
        self._pump_scheduled = False
        self._retransmit_timer = None

    def start(self) -> None:
        if self.current_leader() == self.node_id:
            self._pump()
            self._arm_retransmit()

    def current_leader(self) -> int:
        return self.leader_of(0)

    def suspend(self) -> None:
        if self._retransmit_timer is not None:
            self._retransmit_timer.cancel()
            self._retransmit_timer = None

    def resume(self) -> None:
        # The pump chain dies while the replica is silent (crashed); the
        # leader must restart it or the pipeline stalls forever.
        if self.current_leader() == self.node_id:
            self._pump()
            self._arm_retransmit()

    def rebase_block_ids(self, base: int) -> None:
        # PBFT block ids embed the sequence number — protocol state, not
        # a locally-minted counter. Offsetting them would skip slots, so
        # respawn id-disambiguation is a no-op here (a respawned leader
        # re-proposing committed slots is rejected by the seq window).
        pass

    # -- leader ----------------------------------------------------------

    def _pump(self) -> None:
        """Propose while the pipeline window has room and data is pending."""
        self._pump_scheduled = False
        if self.host.behavior.silent:
            return
        while self._next_seq - self._last_committed <= PBFT_WINDOW:
            payload = self.mempool.make_payload()
            if payload.is_empty:
                break
            seq = self._next_seq
            self._next_seq += 1
            proposal = Proposal(
                block_id=make_block_id(self.node_id, seq),
                view=0,
                height=seq + 1,  # heights are 1-based (genesis is 0)
                proposer=self.node_id,
                parent_id=0,
                justify=GENESIS_QC,
                payload=payload,
                created_at=self.host.sim.now,
            )
            self.broadcast(
                MessageKinds.PROPOSAL, proposal.size_bytes, (seq, proposal)
            )
            self._on_pre_prepare(seq, proposal)
        self._schedule_pump()

    def _schedule_pump(self) -> None:
        if self._pump_scheduled:
            return
        self._pump_scheduled = True
        self.host.sim.schedule(self.config.empty_view_delay, self._pump)

    def _arm_retransmit(self) -> None:
        if self._retransmit_timer is not None:
            self._retransmit_timer.cancel()
        self._retransmit_timer = self.host.sim.schedule(
            self.config.view_timeout, self._retransmit
        )

    def _retransmit(self) -> None:
        """Rebroadcast pre-prepares for slots stuck in the window.

        The normal case has no view change, so a pre-prepare or vote lost
        to a partition would jam the pipelined window forever: the window
        check ``_next_seq - _last_committed <= PBFT_WINDOW`` never opens
        again. The leader periodically re-broadcasts every uncommitted
        in-window proposal; replicas answer duplicates by re-sending their
        own votes (see :meth:`_on_pre_prepare`), repairing the quorums.
        """
        self._retransmit_timer = None
        if self.host.behavior.silent:
            return
        for seq in range(self._last_committed + 1, self._next_seq):
            slot = self._slots.get(seq)
            if slot is None or slot.committed or slot.proposal is None:
                continue
            self.broadcast(
                MessageKinds.PROPOSAL, slot.proposal.size_bytes,
                (seq, slot.proposal),
            )
            self._resend_votes(seq, slot)
        self._arm_retransmit()

    def _resend_votes(self, seq: int, slot: _SlotState) -> None:
        if slot.prepare_sent:
            self.broadcast(
                MessageKinds.PBFT_PREPARE, sizes.VOTE, (seq, self.node_id)
            )
        if slot.prepared:
            self.broadcast(
                MessageKinds.PBFT_COMMIT, sizes.VOTE, (seq, self.node_id)
            )

    # -- message handling ----------------------------------------------

    def routes(self) -> dict[str, Handler]:
        # Every payload is ``(seq, proposal)`` or ``(seq, voter)``.
        pre_prepare, prepare, commit = (
            self._on_pre_prepare, self._on_prepare, self._on_commit_vote,
        )
        return {
            MessageKinds.PROPOSAL: lambda env: pre_prepare(*env.payload),
            MessageKinds.PBFT_PREPARE: lambda env: prepare(*env.payload),
            MessageKinds.PBFT_COMMIT: lambda env: commit(*env.payload),
        }

    def _slot(self, seq: int) -> _SlotState:
        if seq not in self._slots:
            self._slots[seq] = _SlotState()
        return self._slots[seq]

    def _on_pre_prepare(self, seq: int, proposal: Proposal) -> None:
        slot = self._slot(seq)
        if slot.proposal is not None:
            # Leader retransmission: our earlier votes may be the ones
            # that were lost, so answer the duplicate by re-sending them.
            if not slot.committed and not self.host.behavior.silent:
                self._resend_votes(seq, slot)
            return
        payload = proposal.payload
        if not self.mempool.verify_payload(payload):
            return
        if payload.entries:
            self.mempool.on_proposal(proposal)
        slot.proposal = proposal
        if self.host.behavior.silent:
            return

        def send_prepare() -> None:
            slot.prepare_sent = True
            self.broadcast(
                MessageKinds.PBFT_PREPARE, sizes.VOTE, (seq, self.node_id)
            )
            self._on_prepare(seq, self.node_id)

        self.mempool.prepare(proposal, send_prepare)

    def _on_prepare(self, seq: int, voter: int) -> None:
        slot = self._slot(seq)
        slot.prepares.add(voter)
        if (
            slot.prepared
            or slot.proposal is None
            or len(slot.prepares) < self.config.consensus_quorum
            or self.host.behavior.silent
        ):
            return
        slot.prepared = True
        self.broadcast(
            MessageKinds.PBFT_COMMIT, sizes.VOTE, (seq, self.node_id)
        )
        self._on_commit_vote(seq, self.node_id)

    def _on_commit_vote(self, seq: int, voter: int) -> None:
        slot = self._slot(seq)
        slot.commits.add(voter)
        if (
            slot.committed
            or slot.proposal is None
            or len(slot.commits) < self.config.consensus_quorum
        ):
            return
        slot.committed = True
        self._last_committed = max(self._last_committed, seq)
        self.handle_commit(slot.proposal)
        if self.current_leader() == self.node_id:
            self._pump()
