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

from collections import deque
from typing import TYPE_CHECKING

from repro.config import ProtocolConfig
from repro.mempool.base import (
    Mempool,
    MessageKinds,
    OnFull,
    OnReady,
    ReferenceCounts,
)
from repro.mempool.batching import MicroBlockBatcher
from repro.mempool.fetching import FetchManager
from repro.mempool.store import MicroBlockStore
from repro.sim.network import Channel, Envelope
from repro.types import TxBatch, sizes
from repro.types.microblock import MicroBlock, MicroBlockId
from repro.types.proposal import Block, Payload, PayloadEntry, Proposal

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


class NarwhalMempool(Mempool):
    """Reliable-broadcast mempool (Narwhal comparison baseline)."""

    name = "narwhal"

    def __init__(self, host: "Replica", config: ProtocolConfig) -> None:
        super().__init__(host, config)
        self.store = MicroBlockStore()
        self.fetcher = FetchManager(host, config, self.store)
        self._batcher = MicroBlockBatcher(host, config, self._on_new_microblock)
        self._states: dict[MicroBlockId, _RBState] = {}
        self._proposable: deque[MicroBlockId] = deque()
        self._referenced = ReferenceCounts()
        self._committed: set[MicroBlockId] = set()

    # -- dissemination -------------------------------------------------

    @property
    def batcher(self) -> MicroBlockBatcher:
        return self._batcher

    def on_client_batch(self, batch: TxBatch) -> None:
        self._batcher.add(batch)

    def rebase_microblock_ids(self, base: int) -> None:
        self._batcher.rebase(base)

    def _on_new_microblock(self, microblock: MicroBlock) -> None:
        self.store.add(microblock)
        targets = self.host.behavior.share_targets(
            self.host, self._all_others()
        )
        self.broadcast(
            MessageKinds.MICROBLOCK,
            microblock.size_bytes,
            microblock,
            recipients=targets,
        )
        self._send_echo(microblock.id)

    def _all_others(self) -> list[int]:
        return [node for node in range(self.config.n) if node != self.node_id]

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
        self.broadcast(MessageKinds.RB_ECHO, sizes.ACK, mb_id,
                       channel=Channel.CONTROL)
        self._check_quorums(mb_id)

    def _send_ready(self, mb_id: MicroBlockId) -> None:
        state = self._state(mb_id)
        if state.ready_sent:
            return
        state.ready_sent = True
        state.readies.add(self.node_id)
        self.broadcast(MessageKinds.RB_READY, sizes.ACK, mb_id,
                       channel=Channel.CONTROL)
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
        if mb_id not in self._referenced and mb_id not in self._committed:
            self._proposable.append(mb_id)
        if mb_id not in self.store:
            state = self._states[mb_id]
            holders = tuple(sorted(state.readies - {self.node_id}))
            self._fetch_from(mb_id, holders)

    def _fetch_from(self, mb_id: MicroBlockId, holders: tuple[int, ...]) -> None:
        rng = self.host.rng

        def provider(requested: set[int]) -> list[int]:
            candidates = [h for h in holders if h not in requested]
            if not candidates:
                return []
            return [rng.choice(candidates)]

        self.fetcher.request(mb_id, provider)

    # -- leader side -----------------------------------------------------

    def make_payload(self) -> Payload:
        entries: list[PayloadEntry] = []
        limit = self.config.proposal_max_microblocks
        while self._proposable:
            if limit and len(entries) >= limit:
                break
            mb_id = self._proposable.popleft()
            if mb_id in self._referenced or mb_id in self._committed:
                continue
            self._referenced[mb_id] = 0
            entries.append(PayloadEntry(mb_id=mb_id))
        return Payload(entries=tuple(entries))

    # -- follower side -----------------------------------------------------

    def on_proposal(self, proposal: Proposal) -> None:
        self._referenced.acquire(proposal.payload.microblock_ids)

    def prepare(self, proposal: Proposal, on_ready: OnReady) -> None:
        """Certified ids are provably available: vote without the bodies."""
        on_ready()

    def resolve(self, proposal: Proposal, on_full: OnFull) -> None:
        block = Block(proposal=proposal)
        ids = proposal.payload.microblock_ids
        if not ids:
            block.filled_at = self.host.sim.now
            on_full(block)
            return
        remaining = {"count": len(ids)}

        def collect(microblock: MicroBlock) -> None:
            block.microblocks[microblock.id] = microblock
            remaining["count"] -= 1
            if remaining["count"] == 0:
                block.filled_at = self.host.sim.now
                on_full(block)

        for mb_id in ids:
            self.store.on_delivery(mb_id, collect)
            if mb_id not in self.store:
                state = self._state(mb_id)
                holders = tuple(sorted(state.readies - {self.node_id}))
                if holders:
                    self._fetch_from(mb_id, holders)

    def mark_committed(self, proposal: Proposal) -> None:
        ids = proposal.payload.microblock_ids
        if ids:
            self._committed.update(ids)
            self._referenced.drop(ids)

    def on_abandoned(self, proposal: Proposal) -> None:
        for mb_id in self._referenced.release(
            proposal.payload.microblock_ids
        ):
            state = self._states.get(mb_id)
            if (
                state is not None
                and state.certified
                and mb_id not in self._committed
            ):
                self._proposable.append(mb_id)

    # -- network -----------------------------------------------------------

    def on_message(self, envelope: Envelope) -> None:
        kind = envelope.kind
        if kind in (MessageKinds.MICROBLOCK, MessageKinds.MICROBLOCK_FETCH):
            microblock = envelope.payload
            if self.store.add(microblock):
                self._send_echo(microblock.id)
        elif kind == MessageKinds.RB_ECHO:
            state = self._state(envelope.payload)
            state.echoes.add(envelope.src)
            self._check_quorums(envelope.payload)
        elif kind == MessageKinds.RB_READY:
            state = self._state(envelope.payload)
            state.readies.add(envelope.src)
            self._check_quorums(envelope.payload)
        elif kind == MessageKinds.FETCH_REQUEST:
            self.fetcher.handle_request(envelope.src, envelope.payload)
