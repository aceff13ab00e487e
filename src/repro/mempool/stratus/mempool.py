"""The Stratus shared mempool (Algorithm 3).

Bookkeeping mirrors the paper: ``mbMap`` is the microblock store,
``pMap`` maps microblock ids to availability proofs, and ``avaQue``
(:class:`IdMempool`'s proposable queue) holds provably-available ids
for proposal. A proposal carries each referenced id *with its proof*; a
replica that verifies those proofs can vote immediately — missing
bodies are fetched from proof signers over the data channel without
blocking consensus (Solution-I). Load balancing (Solution-II) is
delegated to :class:`repro.mempool.stratus.dlb.LoadBalancer`.

Which replicas a microblock is pushed to, and what its proof looks like,
is the PAB scope's business (:meth:`StratusMempool._scope`); everything
here works on "the scope's proof" and is shared with the sharded
variant (:class:`repro.mempool.sharded.ShardedStratusMempool`).
"""

from __future__ import annotations

from operator import attrgetter
from typing import Optional, TYPE_CHECKING

from repro.config import ProtocolConfig
from repro.mempool.base import OnReady
from repro.mempool.id_mempool import IdMempool
from repro.mempool.stratus.dlb import LoadBalancer
from repro.mempool.stratus.estimator import StableTimeEstimator
from repro.mempool.stratus.pab import NetworkScope, PabEngine
from repro.sim.interfaces import Handler
from repro.types.microblock import MicroBlock, MicroBlockId
from repro.types.proposal import Payload, PayloadEntry, Proposal

if TYPE_CHECKING:  # pragma: no cover
    from repro.replica.node import Replica


class StratusMempool(IdMempool):
    """Shared mempool with PAB availability proofs and DLB (S-HS, S-SL)."""

    name = "stratus"

    def __init__(self, host: "Replica", config: ProtocolConfig) -> None:
        super().__init__(host, config)
        self.estimator = StableTimeEstimator()
        scope = self._scope()
        self.pab = PabEngine(
            host, config, scope, self.store, self.fetcher,
            # Without DLB there is no forward for a proof to settle.
            on_proof=(
                self._on_remote_proof if config.load_balancing
                else self._add_available
            ),
            on_stable=self._on_stable,
            retry_floor=self.estimator.estimate,
        )
        # Bound once, like the engine's copies: verify_payload runs per
        # entry of every proposal at every replica.
        self._verify = scope.verify
        self._slot: str = scope.slot
        self._proof_of = attrgetter(scope.slot)
        #: DLB endpoint, or None with load balancing off — which it
        #: always is under sharding (ProtocolConfig rejects the pair).
        self.balancer: Optional[LoadBalancer] = LoadBalancer(
            host, config, self.estimator, self.pab,
            on_available=self._on_self_available,
        ) if config.load_balancing else None
        self._proofs: dict[MicroBlockId, object] = {}  # pMap

    def _scope(self):
        """The PAB scope: all ``n`` replicas, ``stability_quorum`` acks."""
        return NetworkScope(
            self.host.node_id, self.config.n, self.config.stability_quorum
        )

    # -- client / dissemination -------------------------------------------

    def _on_new_microblock(self, microblock: MicroBlock) -> None:
        if self.balancer is not None:
            self.balancer.handle_new_microblock(microblock)
        else:
            self.pab.push_own(microblock, self._on_self_available)

    def _on_stable(self, mb_id: MicroBlockId, elapsed: float) -> None:
        self.estimator.record(elapsed)
        self.host.metrics.record_stable_time(elapsed)

    def _add_available(self, mb_id: MicroBlockId, proof) -> None:
        """Record ``(id, proof)`` in pMap and push the id onto avaQue.

        ``IdMempool._enqueue`` spelled out (this runs per microblock at
        every replica), plus at-most-once: one id can be announced by a
        push's completion and again by the proof broadcast.
        """
        self._proofs[mb_id] = proof
        if (
            mb_id not in self._queued
            and mb_id not in self._referenced
            and mb_id not in self._committed
        ):
            self._queued.add(mb_id)
            self._proposable.append(mb_id)

    def _on_self_available(self, mb_id: MicroBlockId, proof) -> None:
        """A PAB instance this replica owns became available.

        Covers both a completed self-push and a settled forward (where the
        origin takes over recovery): broadcast the proof, then queue.
        A proof-withholding attacker (Section VIII) suppresses this step,
        wasting the bandwidth its body broadcast consumed — its own
        clients' transactions simply never become proposable.
        """
        if self.host.behavior.withholds_proofs:
            return
        self.pab.broadcast_proof(mb_id, proof)
        self._add_available(mb_id, proof)

    def on_restart(self) -> None:
        super().on_restart()
        self.pab.repush_pending()

    def _on_remote_proof(self, mb_id: MicroBlockId, proof) -> None:
        """A verified PAB-Proof message arrived and DLB is on."""
        if mb_id in self.balancer.forwards:  # the balancer settles it
            self.balancer.on_proof_received(mb_id, proof)
        else:
            self._add_available(mb_id, proof)

    def _entry(self, mb_id: MicroBlockId) -> PayloadEntry:
        """MakeProposal pulls proven ids from avaQue *with* their proofs."""
        return PayloadEntry(mb_id, **{self._slot: self._proofs[mb_id]})

    # -- follower side -----------------------------------------------------

    def verify_payload(self, payload: Payload) -> bool:
        """threshold-verify every proof; failure triggers a view-change."""
        verify = self._verify
        proof_of = self._proof_of
        for entry in payload.entries:
            proof = proof_of(entry)
            if proof is None or not verify(proof, entry.mb_id):
                return False
        return True

    def on_proposal(self, proposal: Proposal) -> None:
        """Mark the ids referenced and keep their (verified) proofs."""
        # IdMempool.on_proposal, in the one pass over the entries that
        # the proofs need anyway: this runs per entry of every proposal
        # at every replica.
        refs, proofs = self._referenced, self._proofs
        proof_of = self._proof_of
        for entry in proposal.payload.entries:
            mb_id = entry.mb_id
            refs[mb_id] = refs[mb_id] + 1 if mb_id in refs else 1
            if mb_id not in proofs:
                proof = proof_of(entry)
                if proof is not None:
                    proofs[mb_id] = proof

    def prepare(self, proposal: Proposal, on_ready: OnReady) -> None:
        """Valid proofs guarantee availability: enter the commit phase now.

        Missing bodies are fetched from proof signers in the background
        (FillProposal runs on a thread independent of consensus in the
        prototype; here, on the data channel via ``resolve``).
        """
        on_ready()

    def _fetch_missing(self, entry: PayloadEntry, proposal: Proposal) -> None:
        """The proof's signers hold the body (``PAB-Fetch``)."""
        proof = self._proof_of(entry)
        if proof is not None:
            self.fetcher.request(entry.mb_id, proof.signers, grace=True)

    def _discard(self, ids) -> None:
        """Bodies, proofs and PAB state go together."""
        for mb_id in ids:
            self.store.discard(mb_id)
            self._proofs.pop(mb_id, None)
            self.pab.discard(mb_id)

    def _requeue(self, mb_id: MicroBlockId) -> None:
        if mb_id in self._proofs:
            self._add_available(mb_id, self._proofs[mb_id])

    # -- network -----------------------------------------------------------

    def routes(self) -> dict[str, Handler]:
        routes = {**super().routes(), **self.pab.routes()}
        if self.balancer is not None:
            routes.update(self.balancer.routes())
        return routes
