"""Shared consensus-engine interface and helpers."""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING

from repro.config import ProtocolConfig
from repro.sim.interfaces import Channel, Handler, Routed

if TYPE_CHECKING:  # pragma: no cover
    from repro.mempool.base import Mempool
    from repro.replica.node import Replica


class ConsensusEngine(Routed, abc.ABC):
    """One replica's consensus endpoint.

    The engine drives views/epochs, asks the mempool for payloads when
    this replica leads, reports every valid proposal it stores through
    :meth:`Mempool.on_proposal` (voted on or not: a leader that entered
    the next view before the proposal landed stores it without voting,
    and must still not propose its ids again), gates votes through
    :meth:`Mempool.prepare`, and reports commits back through
    :meth:`Mempool.on_commit`.
    """

    name = "abstract"

    def __init__(
        self,
        host: "Replica",
        mempool: "Mempool",
        config: ProtocolConfig,
    ) -> None:
        self.host = host
        self.mempool = mempool
        self.config = config
        #: The host replica's id, which never changes.
        self.node_id: int = host.node_id

    @abc.abstractmethod
    def start(self) -> None:
        """Begin participating (enter the first view/epoch)."""

    @abc.abstractmethod
    def routes(self) -> dict[str, Handler]:
        """Every consensus kind and its handler (:class:`Routed`)."""

    @abc.abstractmethod
    def current_leader(self) -> int:
        """Leader of the current view/epoch (used by attackers too)."""

    def suspend(self) -> None:
        """Freeze local timers; the replica crashed.

        Message delivery is already cut off by the network's down state;
        this hook only stops the engine's self-scheduled clocks (view
        timers, epoch clocks, proposal pumps) so a dead replica neither
        records view-changes nor proposes into the void."""

    def resume(self) -> None:
        """Re-arm the timers cancelled by :meth:`suspend` (restart).

        The engine rejoins at its pre-crash view/epoch; catching up to the
        rest of the network happens through ordinary message handling
        (newer proposals, chain sync)."""

    def rebase_block_ids(self, base: int) -> None:
        """Start this replica's local block counter at ``base``.

        Live crash/restart support, mirroring
        :meth:`repro.mempool.base.Mempool.rebase_microblock_ids`: a
        respawned interpreter forgets how many blocks its predecessor
        minted, and ``(proposer, counter)`` block ids must stay unique
        across incarnations — peers silently drop a proposal whose id they
        have already accepted, so a colliding id wedges every view the
        respawned replica leads. All three engines in this package
        inherit :class:`~repro.consensus.chain.ChainedEngine`'s; an
        engine written outside it may leave this unsupported.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support block-id rebasing"
        )

    # -- helpers -----------------------------------------------------------

    def leader_of(self, view: int) -> int:
        """Round-robin leader rotation over the configured leader set."""
        leaders = self.host.leader_set
        return leaders[view % len(leaders)]

    def send(self, dst: int, kind: str, size_bytes: float, payload: object) -> None:
        self.host.network.send(
            self.node_id, dst, kind, size_bytes, payload, Channel.CONSENSUS
        )

    def broadcast(self, kind: str, size_bytes: float, payload: object) -> None:
        self.host.network.broadcast(
            self.node_id, kind, size_bytes, payload, Channel.CONSENSUS
        )
