"""Narwhal-style shared mempool: reliable broadcast with certificates.

Models the comparison baseline of Table I / Fig. 6: microblock bodies are
disseminated with a Bracha-style reliable broadcast (echo + ready rounds,
``O(n^2)`` small messages per microblock), and only *certified*
microblocks — ones that completed the ready quorum — are proposed.
Certification guarantees availability (like Stratus' PAB), so consensus
never blocks on missing bodies; the price is the quadratic message
complexity that limits scalability when mempool and consensus share
machines (Section II-B).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.config import ProtocolConfig
from repro.mempool.base import MessageKinds
from repro.mempool.id_mempool import IdMempool
from repro.sim.interfaces import Channel, Envelope, Handler
from repro.types import sizes
from repro.types.microblock import MicroBlock, MicroBlockId
from repro.types.proposal import PayloadEntry, Proposal

if TYPE_CHECKING:  # pragma: no cover
    from repro.replica.node import Replica


class _RBState:
    """Per-microblock reliable-broadcast progress at one replica."""

    __slots__ = ("echoes", "readies", "echo_sent", "ready_sent", "certified")

    def __init__(self) -> None:
        self.echoes: set[int] = set()
        self.readies: set[int] = set()
        self.echo_sent = False
        self.ready_sent = False
        self.certified = False


class NarwhalMempool(IdMempool):
    """Reliable-broadcast mempool (Narwhal comparison baseline)."""

    name = "narwhal"

    def __init__(self, host: "Replica", config: ProtocolConfig) -> None:
        super().__init__(host, config)
        self._states: dict[MicroBlockId, _RBState] = {}

    # -- dissemination -------------------------------------------------

    def _on_new_microblock(self, microblock: MicroBlock) -> None:
        self.store.add(microblock)
        self._broadcast_body(microblock)
        self._send_echo(microblock.id)

    def _state(self, mb_id: MicroBlockId) -> _RBState:
        if mb_id not in self._states:
            self._states[mb_id] = _RBState()
        return self._states[mb_id]

    def _send_echo(self, mb_id: MicroBlockId) -> None:
        state = self._state(mb_id)
        if state.echo_sent:
            return
        state.echo_sent = True
        state.echoes.add(self.node_id)
        self.host.network.broadcast(self.node_id, MessageKinds.RB_ECHO,
                                    sizes.ACK, mb_id, Channel.CONTROL)
        self._check_quorums(mb_id)

    def _send_ready(self, mb_id: MicroBlockId) -> None:
        state = self._state(mb_id)
        if state.ready_sent:
            return
        state.ready_sent = True
        state.readies.add(self.node_id)
        self.host.network.broadcast(self.node_id, MessageKinds.RB_READY,
                                    sizes.ACK, mb_id, Channel.CONTROL)
        self._check_quorums(mb_id)

    def _check_quorums(self, mb_id: MicroBlockId) -> None:
        state = self._state(mb_id)
        f = self.config.f
        if len(state.echoes) >= 2 * f + 1 and not state.ready_sent:
            self._send_ready(mb_id)
        if len(state.readies) >= f + 1 and not state.ready_sent:
            self._send_ready(mb_id)  # Bracha amplification
        if len(state.readies) >= 2 * f + 1 and not state.certified:
            state.certified = True
            self._on_certified(mb_id)

    def _on_certified(self, mb_id: MicroBlockId) -> None:
        """A ready quorum certifies availability; the id becomes proposable."""
        self._enqueue(mb_id)
        if mb_id not in self.store:
            self._fetch_from_readies(mb_id)

    def _fetch_from_readies(self, mb_id: MicroBlockId) -> None:
        """Whoever sent a ready holds the body: ask them, one at a time."""
        holders = tuple(sorted(self._state(mb_id).readies - {self.node_id}))
        if not holders:
            return
        rng = self.host.rng

        def provider(requested: set[int]) -> list[int]:
            candidates = [h for h in holders if h not in requested]
            if not candidates:
                return []
            return [rng.choice(candidates)]

        self.fetcher.request(mb_id, provider)

    # -- follower side -----------------------------------------------------

    def _fetch_missing(self, entry: PayloadEntry, proposal: Proposal) -> None:
        self._fetch_from_readies(entry.mb_id)

    def _requeue(self, mb_id: MicroBlockId) -> None:
        state = self._states.get(mb_id)
        if state is not None and state.certified:
            self._enqueue(mb_id)

    # -- network -----------------------------------------------------------

    def routes(self) -> dict[str, Handler]:
        return {
            **super().routes(),
            MessageKinds.MICROBLOCK: self._on_body,
            MessageKinds.MICROBLOCK_FETCH: self._on_body,
            MessageKinds.RB_ECHO: self._on_echo,
            MessageKinds.RB_READY: self._on_ready,
        }

    def _on_body(self, envelope: Envelope) -> None:
        microblock = envelope.payload
        if self.store.add(microblock):
            self._send_echo(microblock.id)

    def _on_echo(self, envelope: Envelope) -> None:
        self._state(envelope.payload).echoes.add(envelope.src)
        self._check_quorums(envelope.payload)

    def _on_ready(self, envelope: Envelope) -> None:
        self._state(envelope.payload).readies.add(envelope.src)
        self._check_quorums(envelope.payload)
