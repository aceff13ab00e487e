"""Chained HotStuff (three-chain commit rule) with a round-robin pacemaker.

The implementation follows the chained variant the paper integrates with
(via Bamboo): one proposal per view, votes sent to the next leader, a
quorum certificate formed from ``2f + 1`` votes justifies the next
proposal, and a block commits when it heads a three-chain of
consecutive-view certified blocks. View changes use timeout (new-view)
messages carrying the sender's highest QC.

The mempool seam (:class:`ConsensusEngine`) is crossed in
``_try_propose``, ``_handle_proposal`` — where a payload that fails
``verify_payload`` (bad availability proof) triggers a view-change
against the leader — ``_maybe_vote`` and the base's commit walk.
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

from repro.config import ProtocolConfig
from repro.consensus.chain import GENESIS_ID, ChainedEngine
from repro.crypto import (
    GENESIS_QC,
    QuorumCert,
    Signature,
    make_quorum_cert,
    verify_quorum_cert,
)
from repro.mempool.base import MessageKinds, Mempool
from repro.sim.interfaces import Channel, Envelope, Handler, TimerHandle
from repro.types import sizes
from repro.types.proposal import Proposal, block_proposer

if TYPE_CHECKING:  # pragma: no cover
    from repro.replica.node import Replica


class HotStuff(ChainedEngine):
    """Chained HotStuff for one replica: pacemaker, votes and QCs, and
    the commit rule, over :class:`ChainedEngine`'s block tree."""

    name = "hotstuff"
    #: Consecutive-view links from a certified block down to the block
    #: its QC commits: 2 is the three-chain rule (b0 <- b1 <- b2).
    commit_links = 2

    def __init__(
        self, host: "Replica", mempool: "Mempool", config: ProtocolConfig
    ) -> None:
        super().__init__(host, mempool, config, config.view_timeout)
        self.cur_view = 0
        self.voted_view = 0
        self.high_qc: QuorumCert = GENESIS_QC
        self.locked_view = 0
        self._votes: dict[tuple[int, int], dict[int, Signature]] = {}
        self._qc_done: set[tuple[int, int]] = set()
        self._new_views: dict[int, dict[int, QuorumCert]] = {}
        self._proposed_views: set[int] = set()
        self._pacing_view: Optional[int] = None
        #: The paced or parked view's retry, cancelled at any proposal.
        self._retry: Optional[TimerHandle] = None
        # Votes can outrun the (large) proposal they certify, or a leader
        # was down when it was proposed (then it is fetched): the QC's
        # view is proposed for once the certified block lands.
        self._deferred_propose: dict[int, tuple[int, QuorumCert]] = {}
        # Highest view each peer has announced via NEW_VIEW. When f + 1
        # distinct peers claim a higher view, at least one honest replica
        # is there, so jumping is safe — without this, a long fault can
        # leave the cluster split into view cohorts more than one timeout
        # apart, where every new-view quorum completes just after its
        # leader moved on (a permanent pacemaker livelock).
        self._view_claims: dict[int, int] = {}
        #: When the current view times out: entering a view only moves
        #: this, and a ``_timer`` that fires before it re-arms itself here.
        self._deadline = 0.0
        #: The mempool's ``prepare`` is the default, which calls back at
        #: once: vote without handing it a callback.
        self._votes_at_once = type(mempool).prepare is Mempool.prepare
        self._qc_key = (config.consensus_quorum, config.n)

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        self._enter_view(1, justify=GENESIS_QC)

    def current_leader(self) -> int:
        return self.leader_of(max(self.cur_view, 1))

    def resume(self) -> None:
        if self.cur_view > 0:
            sim = self.host.sim
            self._deadline = sim.now + self.config.view_timeout
            if self._timer is None:
                self._timer = sim.schedule_at(self._deadline, self._view_timer)

    # -- view management -----------------------------------------------

    def _view_timer(self) -> None:
        sim = self.host.sim
        if sim.now < self._deadline:
            # Views moved on since this was armed; theirs is the deadline.
            self._timer = sim.schedule_at(self._deadline, self._view_timer)
            return
        self._timer = None
        self._on_timeout()

    def _enter_view(self, view: int, justify: Optional[QuorumCert] = None) -> None:
        if view <= self.cur_view:
            return
        self.cur_view = view
        # Restart the view timer (as resume does) and look up the leader,
        # spelled out: every replica enters every view.
        host = self.host
        sim = host.sim
        self._deadline = sim.now + self.config.view_timeout
        if self._timer is None:
            self._timer = sim.schedule_at(self._deadline, self._view_timer)
        leaders = host.leader_set
        if (
            leaders[view % len(leaders)] == self.node_id
            and not host.behavior.silent
        ):
            if justify is not None:
                self._try_propose(view, justify)
            elif view == 1:
                self._try_propose(view, GENESIS_QC)

    def _on_timeout(self) -> None:
        view = self.cur_view
        self.host.metrics.record_view_change(self.node_id, view)
        next_view = view + 1
        if not self.host.behavior.silent:
            # Broadcast (DiemBFT-style timeout messages) rather than
            # sending to the next leader alone: every replica sees the
            # view claim, so cohorts split by a long fault re-synchronize
            # via _maybe_catch_up instead of livelocking one view apart.
            message = (next_view, self.high_qc)
            self.broadcast(
                MessageKinds.NEW_VIEW, sizes.NEW_VIEW, message
            )
            self._record_new_view(next_view, self.node_id, self.high_qc)
        self._enter_view(next_view)

    # -- proposing -----------------------------------------------------

    def _try_propose(self, view: int, justify: QuorumCert) -> None:
        # Before the pull: a paced retry that fires after the view moved
        # must leave the queue as it found it.
        stale = view in self._proposed_views or self.cur_view > view
        if stale or self.host.behavior.silent:
            return
        if justify.block_id not in self.proposals:
            # The certified block has not arrived yet (votes outran the
            # proposal body, or this replica was down); propose as soon as
            # it does.
            self._deferred_propose[justify.block_id] = (view, justify)
            return
        payload = self.mempool.make_payload()
        if payload.is_empty and self._pacing_view != view:
            self._pacing_view = view
            retry = lambda: self._try_propose(view, justify)
            if self._commits_payload(justify):
                # The QC still commits payload at the followers: pace the
                # empty view briefly (Bamboo regulates proposal frequency
                # similarly) rather than spin at wire speed.
                delay = self.config.empty_view_delay
            else:
                # Nothing to commit: park until the mempool reports a
                # proposable id, or propose empty after a quarter view
                # timeout. A leader's own view spans its park, the next
                # leader's park and the round trips, so each park must
                # stay under half a view timeout.
                delay = self.config.view_timeout / 4
                self.mempool.park(retry)
            self._retry = self.host.sim.schedule(delay, retry)
            return
        # Firing after this, the park's timer or its wake is a no-op:
        # cancel the one, drop the other (a park that ran out left it).
        if self._retry is not None:
            self._retry.cancel()
        self.mempool._wake = None
        self._proposed_views.add(view)
        self._propose_block(
            self.proposals[justify.block_id], view, justify, payload
        )

    def _commits_payload(self, justify: QuorumCert) -> bool:
        """Whether a proposal carrying ``justify`` commits payload at the
        followers: one of the ``commit_links + 1`` blocks from the
        certified one down carries some."""
        proposals = self.proposals
        block = proposals[justify.block_id]
        for _ in range(self.commit_links + 1):
            if block is None:
                return False
            if not block.payload.is_empty:
                return True
            block = proposals.get(block.parent_id)
        return False

    # -- message handling ----------------------------------------------

    def routes(self) -> dict[str, Handler]:
        return {
            MessageKinds.PROPOSAL: lambda env: self._handle_proposal(env.payload),
            MessageKinds.VOTE: lambda env: self._handle_vote(*env.payload),
            MessageKinds.NEW_VIEW: self._on_new_view,
            MessageKinds.SYNC_REQUEST: self._serve_sync,
        }

    def _on_new_view(self, envelope: Envelope) -> None:
        view, qc = envelope.payload
        self._record_new_view(view, envelope.src, qc)

    def _handle_proposal(self, proposal: Proposal) -> None:
        if proposal.block_id in self.proposals:
            return
        # verify_quorum_cert's memo, read here: one QC serves every receiver.
        justify, key = proposal.justify, self._qc_key
        if justify._verified_key != key and not verify_quorum_cert(justify, *key):
            return
        if proposal.parent_id not in self.proposals:
            self._park_orphan(proposal)
            return
        self.proposals[proposal.block_id] = proposal
        self._process_qc(proposal.justify)
        if proposal.view > self.cur_view:
            self._enter_view(proposal.view)
        payload = proposal.payload
        if not self.mempool.verify_payload(payload):
            # Invalid availability proof: blame the leader, change view
            # (CE-VIEWCHANGE in Algorithm 3). _on_timeout records the
            # view-change metric. The block can never gather a quorum
            # and the mempool never saw its ids, so it is not tracked
            # for abandonment either.
            self._on_timeout()
            self._release_dependents(proposal)
            return
        if payload.entries:
            self.mempool.on_proposal(proposal)
        self._unresolved[proposal.block_id] = proposal
        self._maybe_vote(proposal)
        if self._deferred_propose or self._orphans:
            self._release_dependents(proposal)

    def _maybe_vote(self, proposal: Proposal) -> None:
        if self.host.behavior.silent:
            return
        if proposal.view != self.cur_view or self.voted_view >= proposal.view:
            return
        if proposal.justify.view < self.locked_view:
            return  # safety rule: never contradict the lock
        self.voted_view = proposal.view
        if self._votes_at_once:
            self._cast_vote(proposal)
        else:
            self.mempool.prepare(proposal, lambda: self._cast_vote(proposal))

    def _cast_vote(self, proposal: Proposal) -> None:
        """Sign (``vote_signature``, spelled out) and hand the vote to the
        next leader."""
        block_id, view = proposal.block_id, proposal.view
        leaders = self.host.leader_set
        next_leader = leaders[(view + 1) % len(leaders)]
        signature = Signature(self.node_id, (block_id << 24) ^ view)
        if next_leader == self.node_id:
            self._handle_vote(block_id, view, signature)
        else:
            self.host.network.send(
                self.node_id, next_leader, MessageKinds.VOTE, sizes.VOTE,
                (block_id, view, signature), Channel.CONSENSUS,
            )

    def _release_dependents(self, proposal: Proposal) -> None:
        """Process work that was blocked on this proposal's arrival."""
        if self._deferred_propose:
            deferred = self._deferred_propose.pop(proposal.block_id, None)
            if deferred is not None:
                view, justify = deferred
                if view >= self.cur_view:
                    self._enter_view(view)
                    self._try_propose(view, justify)
        if self._orphans:
            self._release_orphans(proposal)

    def _handle_vote(
        self, block_id: int, view: int, signature: Signature
    ) -> None:
        key = (block_id, view)
        if key in self._qc_done:
            return
        votes = self._votes.setdefault(key, {})
        votes[signature.signer] = signature
        if len(votes) < self.config.consensus_quorum:
            return
        self._qc_done.add(key)
        qc = make_quorum_cert(
            block_id, view, list(votes.values()),
            self.config.consensus_quorum, self.config.n,
        )
        del self._votes[key]
        self._process_qc(qc)
        next_view = view + 1
        leaders = self.host.leader_set
        if (
            leaders[next_view % len(leaders)] == self.node_id
            and next_view >= self.cur_view
        ):
            self._enter_view(next_view)
            self._try_propose(next_view, qc)

    def _record_new_view(self, view: int, src: int, qc: QuorumCert) -> None:
        if not verify_quorum_cert(qc, self.config.consensus_quorum, self.config.n):
            return
        self._process_qc(qc)
        if view > self._view_claims.get(src, 0):
            self._view_claims[src] = view
            self._maybe_catch_up()
        if self.leader_of(view) != self.node_id or view in self._proposed_views:
            return
        entries = self._new_views.setdefault(view, {})
        entries[src] = qc
        if len(entries) >= self.config.consensus_quorum:
            best = max(entries.values(), key=lambda cert: cert.view)
            self._enter_view(view)
            if self.cur_view == view:
                self._try_propose(view, best)
                self._sync_certified(best)

    def _sync_certified(self, qc: QuorumCert) -> None:
        """Fetch the certified block a deferred proposal waits on."""
        self._request_sync(qc.block_id, block_proposer(qc.block_id))

    def _maybe_catch_up(self) -> None:
        """Jump forward once f + 1 peers have announced a higher view."""
        needed = self.config.n - self.config.consensus_quorum + 1
        claims = sorted(self._view_claims.values(), reverse=True)
        if len(claims) < needed:
            return
        target = claims[needed - 1]
        if target > self.cur_view:
            self._enter_view(target)

    # -- chain logic -------------------------------------------------------

    def _process_qc(self, qc: QuorumCert) -> None:
        if qc.view > self.high_qc.view:
            self.high_qc = qc
        block = self.proposals.get(qc.block_id)
        if block is None or block.block_id == GENESIS_ID:
            return
        # Down the consecutive-view chain under the certified block: lock
        # one link above the block that commits, commit at the bottom.
        links = self.commit_links
        for depth in range(links):
            if depth == links - 1 and block.view > self.locked_view:
                self.locked_view = block.view
            parent = self.proposals.get(block.parent_id)
            if parent is None or block.view != parent.view + 1:
                return
            block = parent
        if block.block_id not in self.committed:
            self._commit_chain(block)
