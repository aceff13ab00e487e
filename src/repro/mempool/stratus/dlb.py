"""Distributed load balancing (DLB) — Algorithm 4.

A busy replica forwards newly generated microblocks to *proxies* chosen
with power-of-d-choices: it queries ``d`` random replicas for their load
status, forwards the microblock body to the least-loaded responder, and
waits for that proxy to complete the PAB push phase (evidenced by the
availability proof arriving back). Proxies that fail to produce a proof
in time stay on the ``banList`` and the microblock is re-forwarded
elsewhere, which is what defeats lying Byzantine proxies.

One deliberate addition over the paper's pseudocode: a busy replica still
pushes every ``lb_probe_interval``-th microblock itself. The ST estimator
only learns from the replica's *own* pushes, so a replica that forwarded
everything would never observe its own recovery and would stay "busy"
forever; the probe keeps the estimate live at a bounded cost. (Recorded
in DESIGN.md as a substitution-level decision.)
"""

from __future__ import annotations

from typing import Callable, Optional, TYPE_CHECKING

from repro.config import ProtocolConfig
from repro.mempool.base import MessageKinds
from repro.mempool.stratus.estimator import StableTimeEstimator
from repro.mempool.stratus.pab import PabEngine
from repro.sharding import ShardCertificate
from repro.sim.engine import Timer
from repro.sim.interfaces import Channel, Envelope, Handler
from repro.types import sizes
from repro.types.microblock import MicroBlock, MicroBlockId

if TYPE_CHECKING:  # pragma: no cover
    from repro.replica.node import Replica

OnAvailable = Callable[[MicroBlockId, ShardCertificate], None]


class _ForwardState:
    """Progress of one forwarded microblock at its origin."""

    __slots__ = (
        "microblock", "replies", "proxy", "query_timer", "forward_timer",
        "settled", "attempts",
    )

    def __init__(self, microblock: MicroBlock) -> None:
        self.microblock = microblock
        self.replies: dict[int, Optional[float]] = {}
        self.proxy: Optional[int] = None
        self.query_timer: Optional[Timer] = None
        self.forward_timer: Optional[Timer] = None
        self.settled = False
        self.attempts = 0


class LoadBalancer:
    """DLB endpoint at one replica (both origin and proxy roles)."""

    def __init__(
        self,
        host: "Replica",
        config: ProtocolConfig,
        estimator: StableTimeEstimator,
        pab: PabEngine,
        on_available: OnAvailable,
    ) -> None:
        self._host = host
        self._config = config
        self._estimator = estimator
        self._pab = pab
        self._on_available = on_available
        #: Unsettled forwards by id: a proof for one of them settles it.
        self.forwards: dict[MicroBlockId, _ForwardState] = {}
        self.ban_list: set[int] = set()
        self._since_probe = 0

    # -- origin role ---------------------------------------------------

    def handle_new_microblock(self, microblock: MicroBlock) -> None:
        """Entry point for freshly batched microblocks (NEWMB event)."""
        if not self._estimator.is_busy():
            self._push_self(microblock)
            return
        self._since_probe += 1
        if self._since_probe >= self._config.lb_probe_interval:
            self._since_probe = 0
            self._push_self(microblock)
            return
        self._forward(microblock)

    def _push_self(self, microblock: MicroBlock) -> None:
        self._pab.push_own(microblock, self._on_available)

    def _forward(self, microblock: MicroBlock) -> None:
        """LB-ForwardLoad: sample d candidates and query their load."""
        state = self.forwards.get(microblock.id)
        if state is None:
            state = _ForwardState(microblock)
            self.forwards[microblock.id] = state
        state.attempts += 1
        state.replies = {}
        state.proxy = None
        candidates = [
            node for node in self._pab.peers if node not in self.ban_list
        ]
        if not candidates:
            self._settle(state)
            self._push_self(microblock)
            return
        d = min(self._config.lb_samples, len(candidates))
        sampled = self._host.rng.sample(candidates, d)
        for target in sampled:
            state.replies[target] = None
            self._host.network.send(
                self._host.node_id, target,
                MessageKinds.LB_QUERY, sizes.LB_QUERY, microblock.id,
                Channel.CONTROL,
            )
        state.query_timer = self._host.sim.schedule(
            self._config.lb_query_timeout, lambda: self._pick_proxy(state)
        )

    def _pick_proxy(self, state: _ForwardState) -> None:
        """All replies in (or timeout): forward to the least-loaded proxy."""
        if state.settled or state.proxy is not None:
            return
        if state.query_timer is not None:
            state.query_timer.cancel()
            state.query_timer = None
        loaded = [
            (status, node)
            for node, status in state.replies.items()
            if status is not None
        ]
        if not loaded:
            self._settle(state)
            self._push_self(state.microblock)
            return
        _, proxy = min(loaded)
        state.proxy = proxy
        self.ban_list.add(proxy)
        self._host.metrics.record_forward()
        self._host.network.send(
            self._host.node_id, proxy,
            MessageKinds.MICROBLOCK_FORWARD,
            state.microblock.size_bytes,
            state.microblock,
        )
        state.forward_timer = self._host.sim.schedule(
            self._config.lb_forward_timeout,
            lambda: self._forward_timed_out(state),
        )

    def _forward_timed_out(self, state: _ForwardState) -> None:
        """No proof from the proxy in time: it stays banned; retry.

        The retry re-evaluates busyness: if this replica has recovered in
        the meantime it pushes the microblock itself instead of bouncing
        it to yet another proxy.
        """
        if state.settled:
            return
        state.forward_timer = None
        if not self._estimator.is_busy():
            self._settle(state)
            self._push_self(state.microblock)
            return
        self._forward(state.microblock)

    def on_proof_received(
        self, mb_id: MicroBlockId, proof: ShardCertificate
    ) -> None:
        """A proof for the unsettled forward ``mb_id`` arrived: settle it.

        The origin takes over the recovery phase (Algorithm 4 line 30:
        trigger PAB-AVA): the ``on_available`` callback broadcasts the
        proof.
        """
        state = self.forwards[mb_id]
        self._settle(state)
        if state.proxy is not None:
            self.ban_list.discard(state.proxy)
        self._on_available(mb_id, proof)

    def _settle(self, state: _ForwardState) -> None:
        state.settled = True
        if state.query_timer is not None:
            state.query_timer.cancel()
        if state.forward_timer is not None:
            state.forward_timer.cancel()
        self.forwards.pop(state.microblock.id, None)

    # -- proxy / sampled role ------------------------------------------

    def routes(self) -> dict[str, Handler]:
        return {
            MessageKinds.LB_QUERY: self._answer_query,
            MessageKinds.LB_INFO: self._record_reply,
            MessageKinds.MICROBLOCK_FORWARD: self._act_as_proxy,
        }

    def _answer_query(self, envelope: Envelope) -> None:
        status = self._host.behavior.load_status(self._estimator.load_status())
        if status is None:
            return  # busy replicas do not advertise (GetLoadStatus = NULL)
        self._host.network.send(
            self._host.node_id, envelope.src,
            MessageKinds.LB_INFO, sizes.LB_INFO,
            (envelope.payload, status),
            Channel.CONTROL,
        )

    def _record_reply(self, envelope: Envelope) -> None:
        mb_id, status = envelope.payload
        state = self.forwards.get(mb_id)
        if state is None or state.settled or state.proxy is not None:
            return
        if envelope.src in state.replies:
            state.replies[envelope.src] = status
            if all(reply is not None for reply in state.replies.values()):
                self._pick_proxy(state)

    def _act_as_proxy(self, envelope: Envelope) -> None:
        """LB-Forward received: run the push phase for the origin."""
        if not self._host.behavior.handles_forwards:
            return  # Byzantine proxy censors the microblock
        microblock: MicroBlock = envelope.payload
        origin = envelope.src

        def hand_back(mb_id: MicroBlockId, proof: ShardCertificate) -> None:
            self._host.network.send(
                self._host.node_id, origin,
                MessageKinds.PROOF, proof.size_bytes, (mb_id, proof),
                Channel.CONTROL,
            )

        self._pab.push(microblock, hand_back)
