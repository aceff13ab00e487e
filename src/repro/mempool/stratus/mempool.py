"""The Stratus shared mempool (Algorithm 3).

Bookkeeping mirrors the paper: ``mbMap`` is the microblock store,
``pMap`` maps microblock ids to availability proofs, and ``avaQue``
(:class:`IdMempool`'s proposable queue) holds provably-available ids
for proposal. A proposal carries each referenced id *with its proof*; a
replica that verifies those proofs can vote immediately — missing
bodies are fetched from proof signers over the data channel without
blocking consensus (Solution-I). Load balancing (Solution-II) is
delegated to :class:`repro.mempool.stratus.dlb.LoadBalancer`.

Which replicas a microblock is pushed to is the PAB scope's business
(:meth:`StratusMempool._scope`), over the run's
:class:`~repro.sharding.ShardMap`: ``ProtocolConfig.sharding``, or one
shard of every replica. A proof is a
:class:`~repro.sharding.ShardCertificate` at every shard count. What a
shard count changes at a replica follows from its membership alone
(DESIGN.md, "Sharding"):

* a member of every shard — every replica at one shard — resolves every
  body and reports a block when it fills, like every other backend;
* any other replica is *certificate-only*: it resolves the bodies of its
  own shards (all of them with an executor attached) and reports a
  block at commit, from the certificates' ``tx_count`` and
  ``mean_arrival``, since it may never see a foreign body.
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

from repro.config import ProtocolConfig
from repro.mempool.id_mempool import IdMempool
from repro.mempool.stratus.dlb import LoadBalancer
from repro.mempool.stratus.estimator import StableTimeEstimator
from repro.mempool.stratus.pab import PabEngine
from repro.sharding import ShardCertificate, ShardMap, ShardScope
from repro.sim.interfaces import Handler
from repro.types.microblock import MicroBlock, MicroBlockId
from repro.types.proposal import Payload, PayloadEntry, Proposal

if TYPE_CHECKING:  # pragma: no cover
    from repro.replica.node import Replica


class StratusMempool(IdMempool):
    """Shared mempool with PAB availability certificates and DLB (S-HS,
    S-SL), sharded when the configuration says so (SS-HS)."""

    name = "stratus"

    def __init__(self, host: "Replica", config: ProtocolConfig) -> None:
        super().__init__(host, config)
        self.estimator = StableTimeEstimator()
        self.shard_map = ShardMap.of(config)
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
        self.certificate_only = not scope.resolves_all
        #: Shards whose bodies a certificate-only replica resolves.
        self._member_of = scope.member_of
        #: DLB endpoint, or None with load balancing off — which it
        #: always is over several shards (ProtocolConfig rejects the pair).
        self.balancer: Optional[LoadBalancer] = LoadBalancer(
            host, config, self.estimator, self.pab,
            on_available=self._on_self_available,
        ) if config.load_balancing else None
        self._proofs: dict[MicroBlockId, ShardCertificate] = {}  # pMap

    def _scope(self) -> ShardScope:
        """The PAB scope: this replica's own shard."""
        return ShardScope(self.host.node_id, self.shard_map)

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
        """Record ``(id, proof)`` in pMap and push the id onto avaQue."""
        self._proofs[mb_id] = proof
        self._enqueue(mb_id)

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
        return PayloadEntry(mb_id, self._proofs[mb_id])

    # -- follower side -----------------------------------------------------

    def verify_payload(self, payload: Payload) -> bool:
        """threshold-verify every proof; failure triggers a view-change."""
        verify = self._verify
        for entry in payload.entries:
            cert = entry.cert
            if cert is None or not verify(cert, entry.mb_id):
                return False
        return True

    def on_proposal(self, proposal: Proposal) -> None:
        """Mark the ids referenced and keep their (verified) proofs."""
        # IdMempool.on_proposal, in the one pass over the entries that
        # the proofs need anyway: this runs per entry of every proposal
        # at every replica.
        refs, proofs = self._referenced, self._proofs
        for entry in proposal.payload.entries:
            mb_id = entry.mb_id
            refs[mb_id] = refs[mb_id] + 1 if mb_id in refs else 1
            if mb_id not in proofs and entry.cert is not None:
                proofs[mb_id] = entry.cert

    def _resolvable(self, entries) -> list[PayloadEntry]:
        """Entries this replica materializes bodies for.

        All of them at a member of every shard or with an executor
        (state must be applied in full); otherwise those of its own
        shards, plus any body that happens to be held already. The rest
        commit as certificates, which is the whole bandwidth story.
        """
        if not self.certificate_only or self.host.executor is not None:
            return entries
        shard_of = self.shard_map.shard_of_microblock
        member_of, held = self._member_of, self.store.blocks
        return [
            entry for entry in entries
            if shard_of(entry.mb_id) in member_of or entry.mb_id in held
        ]

    def _fetch_missing(self, entry: PayloadEntry, proposal: Proposal) -> None:
        """The certificate's signers hold the body (``PAB-Fetch``)."""
        if entry.cert is not None:
            self.fetcher.request(entry.mb_id, entry.cert.signers, grace=True)

    def _discard(self, ids) -> None:
        """Bodies, proofs and PAB state go together."""
        for mb_id in ids:
            self.store.discard(mb_id)
            self._proofs.pop(mb_id, None)
            self.pab.discard(mb_id)

    def _requeue(self, mb_id: MicroBlockId) -> None:
        if mb_id in self._proofs:
            self._enqueue(mb_id)

    # -- network -----------------------------------------------------------

    def routes(self) -> dict[str, Handler]:
        routes = {**super().routes(), **self.pab.routes()}
        if self.balancer is not None:
            routes.update(self.balancer.routes())
        return routes
