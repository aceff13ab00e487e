"""Replica: one node assembling network, mempool, consensus, executor."""

from __future__ import annotations

import random
from typing import Optional, TYPE_CHECKING

from repro.config import ProtocolConfig
from repro.mempool.base import MessageKinds
from repro.metrics import MetricsHub
from repro.replica.behavior import Behavior, HonestBehavior, SilentReplica
from repro.sim.interfaces import (
    Channel, Envelope, Handler, Scheduler, Transport,
)
from repro.types import TxBatch
from repro.types.proposal import Block

#: Estimated wire size of a snapshot-request control message.
_SNAP_REQ_BYTES = 64
#: Fixed overhead of a snapshot reply on top of its key/value entries.
_SNAP_ENTRY_BYTES = 16

if TYPE_CHECKING:  # pragma: no cover
    from repro.consensus.base import ConsensusEngine
    from repro.kvstore import KVStore
    from repro.mempool.base import Mempool


class _RouteTable(dict):
    """``kind -> handler`` for one replica, a hit one C-level subscript.
    A kind's first arrival resolves it to the handler in the ``routes()``
    of the mempool (which has most kinds), the consensus engine or the
    replica (an ``on_message`` set on a layer's instance, such as a spy
    or a timing wrapper, takes that layer's kinds). A kind none routes
    goes to the mempool's ``on_message``, which drops it: a live peer
    may send any registered kind."""

    def __init__(self, replica: "Replica") -> None:
        self.replica = replica

    def __missing__(self, kind: str) -> Handler:
        replica = self.replica
        for layer in (replica.mempool, replica.consensus, replica):
            route = layer.routes().get(kind)
            if route is not None:
                handler = vars(layer).get("on_message", route)
                break
        else:
            handler = replica.mempool.on_message
        self[kind] = handler
        return handler


class Replica:
    """A single BFT replica.

    Construction is two-phase: the replica registers with the network
    first, then :meth:`attach` wires in the mempool and consensus engine
    (which need a reference back to the replica).
    """

    def __init__(
        self,
        node_id: int,
        config: ProtocolConfig,
        sim: Scheduler,
        network: Transport,
        rng: random.Random,
        metrics: MetricsHub,
        behavior: Optional[Behavior] = None,
        leader_set: Optional[tuple[int, ...]] = None,
    ) -> None:
        self.node_id = node_id
        self.config = config
        self.sim = sim
        self.network = network
        self.rng = rng
        self.metrics = metrics
        self.behavior = behavior if behavior is not None else HonestBehavior()
        self.leader_set = (
            leader_set if leader_set is not None else tuple(range(config.n))
        )
        self.mempool: Optional["Mempool"] = None
        self.consensus: Optional["ConsensusEngine"] = None
        self.executor: Optional["KVStore"] = None
        #: Optional invariant observer (see :mod:`repro.verification`):
        #: receives consensus commits, microblock creations, and resolved
        #: blocks. One attribute test at each site when unset.
        self.observer = None
        #: Crash-recovery lifecycle (see :meth:`crash` / :meth:`restart`).
        self.crashed = False
        self.restart_count = 0
        self._pre_crash_behavior: Optional[Behavior] = None
        self._exec_buffer: dict[int, Block] = {}
        self._exec_height = 0
        #: Snapshots sent to peers behind us (durable executors only).
        self.snapshots_served = 0
        network.register(node_id, self.handle)

    def attach(
        self,
        mempool: "Mempool",
        consensus: "ConsensusEngine",
        executor: Optional["KVStore"] = None,
    ) -> None:
        self.mempool = mempool
        self.consensus = consensus
        self.executor = executor
        self._routes = _RouteTable(self)  # the layers' kinds, as they arrive
        if executor is not None:
            # A durable executor may already hold recovered state; resume
            # execution where its WAL/checkpoint cursor left off.
            self._exec_height = getattr(executor, "last_height", 0)

    # -- event entry points --------------------------------------------

    def start(self) -> None:
        if self.consensus is None:
            raise RuntimeError("attach() must be called before start()")
        self.consensus.start()

    def crash(self) -> None:
        """Crash the replica (crash-recovery model, durable state).

        The network endpoint goes down and its egress/ingress queues are
        flushed, the behavior is swapped to silent so stray timer
        callbacks contribute nothing, and consensus timers are suspended.
        Protocol state (votes, locks, stored microblocks) survives, which
        matches a process whose consensus-critical state is persisted —
        safety never depends on forgetting.
        """
        if self.crashed:
            return
        if self.mempool is not None:
            # Before the gate closes: an attached arrival stream digests
            # the ticks that reached this replica while it was still up.
            self.mempool.on_crash()
        self.crashed = True
        self._pre_crash_behavior = self.behavior
        self.behavior = SilentReplica()
        self.network.set_node_down(self.node_id)
        if self.consensus is not None:
            self.consensus.suspend()

    def restart(self) -> None:
        """Bring a crashed replica back: re-register with the network,
        restore the pre-crash behavior, and re-arm consensus timers.

        No state is transferred here — the replica catches up through the
        ordinary recovery paths (chain sync for missed proposals,
        PAB-fetch for missing microblock bodies)."""
        if not self.crashed:
            return
        self.crashed = False
        self.restart_count += 1
        self.behavior = self._pre_crash_behavior or HonestBehavior()
        self._pre_crash_behavior = None
        self.network.set_node_up(self.node_id)
        if self.consensus is not None:
            self.consensus.resume()
        if self.mempool is not None:
            self.mempool.on_restart()
        if self.executor is not None and hasattr(self.executor, "reopen"):
            self._recover_executor()

    def _recover_executor(self) -> None:
        """Durable restart: the in-memory executor state is lost with the
        process; recover a fresh store from the same data directory
        (checkpoint + WAL tail), then ask peers for a snapshot in case
        the cluster's commit frontier moved on while we were down."""
        self.executor = self.executor.reopen()
        self._exec_height = self.executor.last_height
        # The pre-crash buffer lived in the dead process's memory.
        self._exec_buffer.clear()
        recovery = self.executor.recovery
        self.metrics.record_recovery(self.node_id, recovery.to_dict())
        self.request_state_snapshot()

    def handle(self, envelope: Envelope) -> None:
        """Network delivery: one subscript of the route table, then the
        layer's own handler; an unrouted kind is dropped, not raised."""
        if self.crashed:
            return  # defence in depth; the network drops these already
        self._routes[envelope.kind](envelope)

    def on_client_batch(self, batch: TxBatch) -> None:
        """ReceiveTx entry point for the workload generator."""
        if self.crashed:
            return  # a dead server accepts nothing; clients lose the txs
        self.mempool.on_client_batch(batch)

    def on_block_executed(self, block: Block) -> None:
        """A committed block became full: apply it in height order.

        Blocks can become full out of order (Stratus fills missing bodies
        in the background), so execution buffers until the chain prefix
        is contiguous — committed ids may be executed only once their
        content is available (Section IV-B).
        """
        if self.executor is None:
            return
        height = block.proposal.height
        if height <= self._exec_height:
            return  # already covered by recovered/snapshot state
        self._exec_buffer[height] = block
        self._drain_exec_buffer()

    def _drain_exec_buffer(self) -> None:
        while self._exec_height + 1 in self._exec_buffer:
            self._exec_height += 1
            self.executor.apply_block(self._exec_buffer.pop(self._exec_height))

    # -- snapshot state transfer ---------------------------------------

    def request_state_snapshot(self) -> None:
        """Broadcast ``state.snap_req`` carrying our applied height; any
        peer that is ahead replies with a full snapshot."""
        executor = self.executor
        if executor is None or not hasattr(executor, "snapshot_payload"):
            return
        self.network.broadcast(
            self.node_id,
            MessageKinds.STATE_SNAPSHOT_REQ,
            _SNAP_REQ_BYTES,
            executor.last_height,
            Channel.CONTROL,
        )

    def routes(self) -> dict[str, Handler]:
        """The replica's own kinds: a live client's batches, and snapshot
        state transfer, which only a durable executor serves and
        installs."""
        routes = {MessageKinds.CLIENT_BATCH: self._on_client_frame}
        if hasattr(self.executor, "snapshot_payload"):
            routes[MessageKinds.STATE_SNAPSHOT_REQ] = self._serve_snapshot
            routes[MessageKinds.STATE_SNAPSHOT] = self._install_snapshot
        return routes

    def _on_client_frame(self, envelope: Envelope) -> None:
        self.on_client_batch(envelope.payload)

    def _serve_snapshot(self, envelope: Envelope) -> None:
        """A peer behind us asked: send it our whole state."""
        if self.executor.last_height <= int(envelope.payload):
            return  # nothing to offer
        payload = self.executor.snapshot_payload()
        size = _SNAP_REQ_BYTES + _SNAP_ENTRY_BYTES * len(payload[5])
        self.network.send(
            self.node_id, envelope.src, MessageKinds.STATE_SNAPSHOT,
            size, payload, Channel.DATA,
        )
        self.snapshots_served += 1

    def _install_snapshot(self, envelope: Envelope) -> None:
        if not self.executor.install_snapshot(envelope.payload):
            return
        self._exec_height = height = self.executor.last_height
        # Buffered blocks at or below the snapshot height are superseded.
        self._exec_buffer = {
            h: b for h, b in self._exec_buffer.items() if h > height
        }
        self._drain_exec_buffer()

    # -- verification taps ---------------------------------------------

    def notify_microblock(self, microblock) -> None:
        """This replica batched a new microblock (oracle tap point)."""
        if self.observer is not None:
            self.observer.on_microblock_created(self, microblock)
