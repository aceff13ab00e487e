"""The shared-mempool abstraction (Section III).

Every mempool implements the four primitives from the paper —
``ReceiveTx`` (:meth:`Mempool.on_client_batch`), ``ShareTx`` (internal to
the implementation), ``MakeProposal`` (:meth:`Mempool.make_payload`), and
``FillProposal`` (:meth:`Mempool.resolve`) — plus three hooks the
consensus engine needs:

* :meth:`Mempool.verify_payload` — can this payload be trusted? Stratus
  verifies availability certificates here; an invalid payload triggers a
  view-change in the engine.
* :meth:`Mempool.on_proposal` — consensus stored a valid proposal, voted
  on or not: its ids are referenced from now on, so this replica never
  proposes them a second time.
* :meth:`Mempool.prepare` — may the replica vote yet? Native and simple
  SMP require the full data before the commit phase; Stratus only needs
  valid certificates, so it reports readiness immediately (the heart of
  Solution-I).

Mempools that propose microblocks by id (all but native) share one
implementation of what happens to an id between those calls:
:class:`repro.mempool.id_mempool.IdMempool`.
"""

from __future__ import annotations

import abc
from typing import Callable, TYPE_CHECKING

from repro.config import ProtocolConfig
from repro.sim.interfaces import Routed
from repro.types import TxBatch
from repro.types.proposal import Block, Payload, Proposal

if TYPE_CHECKING:  # pragma: no cover
    from repro.replica.node import Replica


class MessageKinds:
    """Wire message kinds; the prefix groups them for bandwidth accounting.

    Table III groups leader/non-leader traffic into Proposals,
    Microblocks, Votes, and Acks; kinds starting with ``mb`` count as
    microblock traffic, ``pab.ack`` as acks, and so on.
    """

    MICROBLOCK = "mb"
    MICROBLOCK_GOSSIP = "mb.gossip"
    MICROBLOCK_FETCH = "mb.fetch"
    MICROBLOCK_FORWARD = "mb.forward"
    ACK = "pab.ack"
    PROOF = "pab.proof"
    FETCH_REQUEST = "fetch.req"
    RB_ECHO = "rb.echo"
    RB_READY = "rb.ready"
    LB_QUERY = "lb.query"
    LB_INFO = "lb.info"
    PROPOSAL = "ce.proposal"
    VOTE = "ce.vote"
    NEW_VIEW = "ce.newview"
    SYNC_REQUEST = "ce.sync"
    # State-transfer kinds are routed to the replica itself (not the
    # mempool or consensus engine); see Replica.routes.
    STATE_SNAPSHOT_REQ = "state.snap_req"
    STATE_SNAPSHOT = "state.snap"
    # A live client's transactions (``Replica.routes``). In the
    # simulator the workload generator calls the replica directly.
    CLIENT_BATCH = "client.batch"

    MICROBLOCK_KINDS = (
        MICROBLOCK,
        MICROBLOCK_GOSSIP,
        MICROBLOCK_FETCH,
        MICROBLOCK_FORWARD,
    )


OnReady = Callable[[], None]
OnFull = Callable[[Block], None]


class Mempool(Routed, abc.ABC):
    """Abstract mempool bound to one replica."""

    name = "abstract"

    def __init__(self, host: "Replica", config: ProtocolConfig) -> None:
        self.host = host
        self.config = config
        #: The host replica's id, which never changes.
        self.node_id: int = host.node_id

    # -- client side ---------------------------------------------------

    @abc.abstractmethod
    def on_client_batch(self, batch: TxBatch) -> None:
        """``ReceiveTx``: accept transactions from a client."""

    def rebase_microblock_ids(self, base: int) -> None:
        """Start this replica's local microblock counter at ``base``.

        The repo's integer microblock ids stand in for the paper's
        content hashes: ``(origin, counter)`` is unique only while the
        counter survives. A restarted live replica boots a fresh
        interpreter whose counter would re-issue pre-crash ids for
        *different* transactions — an id collision real content-hash ids
        cannot have. The live runtime calls this with a per-incarnation
        base (``generation << 32``) to keep each incarnation's ids
        disjoint. Must be called before the first microblock is cut.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support id rebasing"
        )

    # -- leader side -----------------------------------------------------

    @abc.abstractmethod
    def make_payload(self) -> Payload:
        """``MakeProposal``: pull pending content into a payload.

        Called by the consensus engine when this replica proposes. The
        payload may be empty (the chain still advances to commit earlier
        blocks).
        """

    #: A parked leader's one-shot retry (:meth:`park`), or None.
    _wake = None

    def park(self, wake: OnReady) -> None:
        """The leader found nothing to propose: run ``wake`` once, the
        next time something becomes proposable here."""
        self._wake = wake

    def _unpark(self) -> None:
        """Schedule the parked retry as an event of its own, never inline:
        the enqueue site may be inside a client batch still being cut."""
        wake, self._wake = self._wake, None
        if wake is not None:
            self.host.sim.schedule(0.0, wake)

    # -- follower side ---------------------------------------------------

    def verify_payload(self, payload: Payload) -> bool:
        """Validate an incoming payload; ``False`` triggers a view-change."""
        return True

    def on_proposal(self, proposal: Proposal) -> None:
        """Consensus stored ``proposal`` and its payload verified.

        Called once per stored proposal that references microblocks by
        id (``payload.entries``), whether or not this replica votes on
        it (a replica that already left the proposal's view stores it
        without voting), so its ids are marked as referenced here and
        nowhere else."""

    def prepare(self, proposal: Proposal, on_ready: OnReady) -> None:
        """Gate voting: call ``on_ready`` once the proposal may enter
        the commit phase at this replica. By default at once, for a
        payload that carries its own evidence (certificates, or the data
        itself); an engine may then vote without a callback."""
        on_ready()

    @abc.abstractmethod
    def resolve(self, proposal: Proposal, on_full: OnFull) -> None:
        """``FillProposal``: assemble the full block, fetching missing
        microblocks if needed, then call ``on_full``."""

    #: Report a committed block at commit, from its entries' certificates,
    #: instead of from its bodies once it fills: a Stratus replica outside
    #: some shard may never hold that shard's bodies.
    certificate_only = False

    def on_commit(self, proposal: Proposal, commit_time: float) -> None:
        """Commit hook, for every block the engine commits: tell the
        observer tap, report metrics once the block is full, then GC.

        The tap fires at the *consensus* commit, before missing bodies
        are resolved — the moment the safety and availability oracles
        reason about. The metrics hub keeps a block's first (earliest)
        report, so only a replica that finds the block unrecorded builds
        one. Committed ids are marked *before* resolution: resolution can
        lag behind the commit (missing bodies still being fetched), and a
        fork abandoned in the same commit sweep must not re-queue ids the
        canonical chain just committed.
        """
        host = self.host
        if host.observer is not None:
            host.observer.on_local_commit(host, proposal)
        self.mark_committed(proposal)
        if (
            self.certificate_only
            and proposal.block_id not in host.metrics.recorded
        ):
            self._report(
                proposal.block_id,
                [entry.cert for entry in proposal.payload.entries],
                commit_time,
            )

        def report(block: Block) -> None:
            if proposal.block_id not in host.metrics.recorded:
                self._report(
                    proposal.block_id, block.microblocks.values(), commit_time
                )
            block.committed_at = commit_time
            if host.observer is not None:
                host.observer.on_block_resolved(host, block)
            if host.executor is not None:
                host.on_block_executed(block)
            self.garbage_collect(proposal)

        self.resolve(proposal, report)

    def _report(self, block_id: int, parts, commit_time: float) -> None:
        """Record one block at the hub from its microblocks or their
        certificates (both carry ``tx_count`` and ``mean_arrival``)."""
        latencies = []
        tx_total = 0
        for part in parts:
            tx_total += part.tx_count
            latencies.append(
                (commit_time - part.mean_arrival, float(part.tx_count))
            )
        self.host.metrics.record_commit(
            block_id=block_id,
            tx_count=tx_total,
            microblock_count=len(parts),
            latencies=latencies,
            commit_time=commit_time,
        )

    def mark_committed(self, proposal: Proposal) -> None:
        """Record the proposal's content as committed, synchronously.

        Runs at commit time, before the (possibly slow) block resolution
        that precedes :meth:`garbage_collect`."""

    def garbage_collect(self, proposal: Proposal) -> None:
        """Drop per-microblock bookkeeping for a committed proposal."""

    def on_abandoned(self, proposal: Proposal) -> None:
        """A fork containing ``proposal`` lost; re-queue its content.

        Called once per replica when a commit reveals that a block
        reported through :meth:`on_proposal` is not on the canonical
        chain. Implementations re-queue payload they own so the content
        is eventually proposed again (SMP-Inclusion)."""

    #: The mempool's :class:`MicroBlockBatcher`, or None. Batching
    #: mempools set it; the aggregate workload mode needs it to wire
    #: per-replica arrival streams, and the crash / restart hooks below
    #: forward through it.
    batcher = None

    def on_crash(self) -> None:
        """The host replica is about to crash (gate still open).

        Called by ``Replica.crash`` *before* the crashed flag is set, so
        an attached arrival stream can digest the ticks that reached the
        replica while it was still up."""
        if self.batcher is not None:
            self.batcher.on_crash()

    def on_restart(self) -> None:
        """The host replica restarted after a crash.

        Implementations resume work that was in flight when the crash
        flushed the network queues — e.g. Stratus re-pushes microblocks
        whose availability certificates never formed because the acks were
        dropped. Overrides must call ``super().on_restart()`` so an
        attached arrival stream resumes too."""
        if self.batcher is not None:
            self.batcher.on_restart()
