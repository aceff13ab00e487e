"""Provably available broadcast (PAB) — Algorithms 1 and 2.

**Push phase.** The pusher broadcasts the microblock body; every receiver
stores it and returns a signed ack. Once ``q`` distinct acks accumulate
(the pusher's own counts), the pusher aggregates them into an
availability proof and reports it via ``on_available``. With
``q >= f + 1`` at least one ack came from a correct replica, so the body
is retrievable forever. A proof ends the push phase for everyone who
sees it: a receiver that already holds a verified proof stores a late
body without acking (the proof rides the control channel and overtakes
bodies still serialising), and a pusher that receives one for a
microblock it is still pushing stops and reports that proof.

**Recovery phase.** Whoever owns the PAB instance broadcasts the proof;
replicas that verify a proof for a body they lack fetch it from a random
sample of the proof's signers, retrying every ``delta`` seconds
(:class:`repro.mempool.fetching.FetchManager`). Recovery traffic stays
off the consensus critical path: requests ride the control channel and
the returned bodies ride the data channel.

**Scope.** The protocol is one loop; *whom* it runs over is a
:class:`repro.sharding.ShardScope`: the push peers, the ack quorum, how
a proof (a :class:`~repro.sharding.ShardCertificate`) is minted and
verified, and whether a replica that learns of a proof for a body it
lacks fetches right away. At one shard that is all ``n`` replicas and
``pab_quorum`` (else f + 1) acks, as in the paper.
"""

from __future__ import annotations

from typing import Callable, Optional, TYPE_CHECKING

from repro.config import ProtocolConfig
from repro.crypto import Signature, sign
from repro.mempool.base import MessageKinds
from repro.mempool.fetching import (
    FetchManager,
    RETRY_STABLE_TIME_FACTOR,
    adaptive_retry_delay,
)
from repro.mempool.store import MicroBlockStore
from repro.sharding import CertificateError, ShardCertificate, ShardScope
from repro.sim.interfaces import Channel, Envelope, Handler
from repro.types import sizes
from repro.types.microblock import MicroBlock, MicroBlockId

if TYPE_CHECKING:  # pragma: no cover
    from repro.replica.node import Replica

#: Callback taking ``(microblock id, its certificate)``.
OnProof = Callable[[MicroBlockId, ShardCertificate], None]

#: EWMA smoothing weight for the push->first-remote-ack RTT sample.
RTT_EWMA_ALPHA = 0.2

__all__ = ["PabEngine", "RETRY_STABLE_TIME_FACTOR"]


class _PushState:
    """Ack bookkeeping for one PAB instance at its pusher."""

    __slots__ = (
        "microblock", "acks", "signers", "started_at", "on_available",
        "done", "targets", "timer", "rounds",
    )

    def __init__(
        self,
        microblock: MicroBlock,
        started_at: float,
        on_available: OnProof,
        targets,
    ) -> None:
        self.microblock = microblock
        self.acks: list[Signature] = []
        #: Distinct ack signers, maintained incrementally — the quorum
        #: check is O(1) per ack instead of rebuilding a set every time.
        self.signers: set[int] = set()
        self.started_at = started_at
        self.on_available = on_available
        self.done = False
        self.targets = targets
        self.timer = None
        self.rounds = 1


class PabEngine:
    """One replica's PAB endpoint (pusher, witness, and recoverer roles)."""

    def __init__(
        self,
        host: "Replica",
        config: ProtocolConfig,
        scope: ShardScope,
        store: MicroBlockStore,
        fetcher: FetchManager,
        on_proof: OnProof,
        on_stable: Optional[Callable[[MicroBlockId, float], None]] = None,
        retry_floor: Optional[Callable[[], Optional[float]]] = None,
    ) -> None:
        self._host = host
        self._config = config
        self._store = store
        #: The store's id -> body dict, read directly on the per-proof path.
        self._held = store.blocks
        self._fetcher = fetcher
        self._on_proof = on_proof
        self._on_stable = on_stable
        #: Current stable-time estimate in seconds (None = no data yet);
        #: scales the retransmission interval under congestion.
        self._retry_floor = retry_floor
        #: EWMA of the push->first-remote-ack interval: an RTT-like
        #: congestion signal that warms up within one push, long before
        #: the stable-time estimator has a full window.
        self._ack_rtt: Optional[float] = None
        self._pushes: dict[MicroBlockId, _PushState] = {}
        self._proofs: dict[MicroBlockId, ShardCertificate] = {}
        # Everything the scope decides, bound once: the handlers below
        # run per ack, body and proof message, where an indirection
        # through the scope object would be paid n times a microblock.
        #: Default push fan-out (the scope's other replicas).
        self.peers: tuple[int, ...] = scope.peers
        self._peer_set = frozenset(scope.peers)
        self._quorum: int = scope.quorum
        self._make = scope.make
        self._verify = scope.verify
        self._fetches_eagerly = scope.fetches_eagerly

    # -- pusher role -------------------------------------------------------

    def push(
        self,
        microblock: MicroBlock,
        on_available: OnProof,
        targets: Optional[list[int]] = None,
    ) -> None:
        """Start the push phase for ``microblock``.

        ``targets`` defaults to the scope's peers; Byzantine senders
        restrict it to mount the censoring attack of Fig. 8. The pusher's
        own ack is counted immediately (Algorithm 1, quorum includes the
        sender — under sharding every origin is a member of its shard).
        A body already proven (a DLB forward that lost the race with the
        proof of an earlier proxy) is not pushed at all: no witness
        would ack it.
        """
        self._store.add(microblock)
        proof = self._proofs.get(microblock.id)
        if proof is not None:
            on_available(microblock.id, proof)
            return
        state = _PushState(
            microblock, self._host.sim.now, on_available,
            self.peers if targets is None else targets,
        )
        self._pushes[microblock.id] = state
        state.acks.append(sign(self._host.node_id, microblock.id))
        state.signers.add(self._host.node_id)
        self._host.network.broadcast(
            self._host.node_id, MessageKinds.MICROBLOCK, microblock.size_bytes,
            microblock, recipients=list(state.targets),
        )
        self._arm_retry(state)
        self._maybe_complete(state)

    def push_own(
        self, microblock: MicroBlock, on_available: OnProof
    ) -> None:
        """Push a microblock this replica cut itself.

        The host's behaviour picks the recipients: everyone for an
        honest sender, a subset for the Byzantine senders of Fig. 8.
        Picks outside the scope's peers are dropped — a censor's
        favoured leader need not be a member of its shard, and only
        members witness.
        """
        targets = self._host.behavior.share_targets(
            self._host, list(self.peers)
        )
        peers = self._peer_set
        self.push(
            microblock, on_available,
            [node for node in targets if node in peers],
        )

    def repush_pending(self) -> int:
        """Immediately retransmit pushes that never reached a quorum.

        Hardened recovery path for crash-restart: acks sent while the
        pusher was down were dropped with its ingress queue, so without a
        nudge a stalled instance waits a full backoff period after the
        restart. Returns the number of instances retransmitted.
        """
        stalled = [
            state for state in self._pushes.values() if not state.done
        ]
        for state in stalled:
            if state.timer is not None:
                state.timer.cancel()
                state.timer = None
            self._retry_push(state)
        return len(stalled)

    def _arm_retry(self, state: _PushState) -> None:
        stable = self._retry_floor() if self._retry_floor else None
        pending = len(state.targets) - (len(state.signers) - 1)
        delay = adaptive_retry_delay(
            self._config, state.rounds, self._host,
            state.microblock.size_bytes, max(1, pending),
            stable_estimate=stable, rtt_estimate=self._ack_rtt,
        )
        state.timer = self._host.sim.schedule(
            delay, lambda: self._retry_push(state)
        )

    def _retry_push(self, state: _PushState) -> None:
        """Retransmit the body to targets that have not acked yet.

        The prototype gets push-phase reliability from TCP; the simulated
        network drops messages permanently (loss windows, partitions,
        crashed receivers), so without retransmission a push below quorum
        stalls forever and its transactions are never proposable.
        """
        if state.done or state.microblock.id not in self._pushes:
            return
        state.rounds += 1
        acked = state.signers
        missing = [node for node in state.targets if node not in acked]
        if missing:
            self._host.network.broadcast(
                self._host.node_id, MessageKinds.MICROBLOCK,
                state.microblock.size_bytes, state.microblock,
                recipients=missing,
            )
        self._arm_retry(state)

    def broadcast_proof(self, mb_id: MicroBlockId, proof) -> None:
        """Start the recovery phase: disseminate the availability proof."""
        self._proofs[mb_id] = proof
        self._host.network.broadcast(
            self._host.node_id, MessageKinds.PROOF, proof.size_bytes,
            (mb_id, proof), Channel.CONTROL,
        )

    def proof_for(self, mb_id: MicroBlockId):
        return self._proofs.get(mb_id)

    def discard(self, mb_id: MicroBlockId) -> None:
        """Garbage-collect proof state for a committed microblock.

        Any outstanding recovery fetch is cancelled too — once the body
        is discarded everywhere, its retry timer would otherwise keep
        polling peers (and leak the pending entry) until the run ends.
        """
        self._proofs.pop(mb_id, None)
        state = self._pushes.pop(mb_id, None)
        if state is not None and state.timer is not None:
            state.timer.cancel()
        self._fetcher.cancel(mb_id)

    # -- message handling ----------------------------------------------

    def routes(self) -> dict[str, Handler]:
        return {
            MessageKinds.MICROBLOCK: self._on_body,
            MessageKinds.MICROBLOCK_FETCH: self._on_fetched_body,
            MessageKinds.ACK: self._on_ack,
            MessageKinds.PROOF: self._on_proof_message,
        }

    def _on_body(self, envelope: Envelope) -> None:
        microblock: MicroBlock = envelope.payload
        self._store.add(microblock)
        if (
            microblock.id not in self._proofs
            and self._host.behavior.acks_microblocks
        ):
            # Witness: ack back to the pusher, even for duplicates — a
            # proxy re-pushing an already-seen body needs its own quorum
            # — unless the quorum is known to exist: once a verified
            # proof is held, one more ack proves nothing.
            self._host.network.send(
                self._host.node_id, envelope.src, MessageKinds.ACK, sizes.ACK,
                sign(self._host.node_id, microblock.id), Channel.CONTROL,
            )

    def _on_fetched_body(self, envelope: Envelope) -> None:
        """A body a fetch asked for: stored, never acked."""
        self._store.add(envelope.payload)

    def _on_ack(self, envelope: Envelope) -> None:
        ack: Signature = envelope.payload
        state = self._pushes.get(ack.digest)
        if state is None or state.done:
            return
        if len(state.signers) == 1 and state.rounds == 1:
            # First remote ack of an un-retried push: a clean RTT sample.
            sample = self._host.sim.now - state.started_at
            if self._ack_rtt is None:
                self._ack_rtt = sample
            else:
                self._ack_rtt += RTT_EWMA_ALPHA * (sample - self._ack_rtt)
        state.acks.append(ack)
        state.signers.add(ack.signer)
        self._maybe_complete(state)

    def _maybe_complete(self, state: _PushState) -> None:
        if len(state.signers) < self._quorum:
            return
        try:
            proof = self._make(state.microblock, state.acks)
        except CertificateError:
            return
        self._finish(state)
        elapsed = self._host.sim.now - state.started_at
        if self._on_stable is not None:
            self._on_stable(state.microblock.id, elapsed)
        del self._pushes[state.microblock.id]
        state.on_available(state.microblock.id, proof)

    @staticmethod
    def _finish(state: _PushState) -> None:
        """The push phase is over: no more acks counted, no more retries."""
        state.done = True
        if state.timer is not None:
            state.timer.cancel()
            state.timer = None

    def _on_proof_message(self, envelope: Envelope) -> None:
        mb_id, proof = envelope.payload
        if not self._verify(proof, mb_id):
            return
        first_time = mb_id not in self._proofs
        self._proofs[mb_id] = proof
        if mb_id in self._pushes:
            state = self._pushes.pop(mb_id)
            # Someone else's push of this body reached a quorum first
            # (DLB: the proxy finished after the origin took the push
            # back, or an earlier proxy after a later one started).
            # Witnesses that hold the proof no longer ack, so this push
            # would retransmit to "missing" peers forever: it is over,
            # and the proof in hand is what it set out to obtain.
            self._finish(state)
            state.on_available(mb_id, proof)
        eager = self._fetches_eagerly
        if mb_id not in self._held and (eager is None or eager(proof)):
            # PAB-Fetch, after a grace: the body is likely in flight.
            self._fetcher.request(mb_id, proof.signers, grace=True)
        if first_time:
            self._on_proof(mb_id, proof)
