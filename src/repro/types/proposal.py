"""Proposals and blocks (Section III-D).

A *proposal* is what the leader broadcasts: consensus metadata plus a
payload. The payload comes in three flavors matching the evaluated
protocol families:

* **embedded** — full transaction data inside the proposal (native
  mempool: N-HS, N-SL);
* **id list** — microblock ids only (simple/gossip/Narwhal SMP);
* **certified id list** — microblock ids each carrying an availability
  certificate (Stratus).

A *block* is a proposal whose referenced microblocks have all been
resolved locally ("full block"); until then it is a partial block.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, TYPE_CHECKING

from repro.types import sizes
from repro.types.microblock import MicroBlock, MicroBlockId

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.crypto.certificates import QuorumCert
    from repro.sharding.certificate import ShardCertificate


@dataclass(frozen=True)
class PayloadEntry:
    """One microblock reference inside a proposal, optionally carrying
    the evidence consensus votes on: an availability certificate
    (Stratus)."""

    mb_id: MicroBlockId
    cert: Optional["ShardCertificate"] = None

    @property
    def size_bytes(self) -> int:
        if self.cert is None:
            return sizes.MICROBLOCK_ID
        return sizes.MICROBLOCK_ID + self.cert.size_bytes


@dataclass
class Payload:
    """Proposal payload: referenced entries and/or embedded microblocks.

    ``entries``/``embedded`` are never mutated after construction (code
    that needs a different payload builds a new one), so the derived
    ``size_bytes`` and ``microblock_ids`` are computed on first read and
    then are plain instance attributes: the simulator shares one payload
    among every receiver of the proposal. They stay lazy, not fields: the
    binary codec writes ``fields(cls)`` positionally, and a decoded
    payload pays only for what its receiver reads.
    """

    entries: tuple[PayloadEntry, ...] = ()
    embedded: tuple[MicroBlock, ...] = ()

    @cached_property
    def size_bytes(self) -> int:
        referenced = sum(entry.size_bytes for entry in self.entries)
        return referenced + sum(mb.size_bytes for mb in self.embedded)

    @cached_property
    def microblock_ids(self) -> tuple[MicroBlockId, ...]:
        if self.embedded:
            return tuple(mb.id for mb in self.embedded)
        return tuple(entry.mb_id for entry in self.entries)

    @property
    def is_empty(self) -> bool:
        return not self.entries and not self.embedded


def make_block_id(proposer: int, counter: int) -> int:
    """Deterministic unique block id, offset to avoid genesis (0)."""
    return ((proposer + 1) << 40) | counter


def block_proposer(block_id: int) -> int:
    """Recover the proposing replica from a block id."""
    return (block_id >> 40) - 1


@dataclass
class Proposal:
    """Leader's proposal for one consensus slot."""

    block_id: int
    view: int
    height: int
    proposer: int
    parent_id: int
    justify: "QuorumCert"
    payload: Payload
    created_at: float = 0.0

    @property
    def size_bytes(self) -> float:
        return (
            sizes.PROPOSAL_HEADER
            + self.justify.size_bytes
            + self.payload.size_bytes
        )


@dataclass
class Block:
    """A proposal plus resolved microblocks; ``is_full`` gates execution."""

    proposal: Proposal
    microblocks: dict[MicroBlockId, MicroBlock] = field(default_factory=dict)
    committed_at: Optional[float] = None
    filled_at: Optional[float] = None

    @property
    def block_id(self) -> int:
        return self.proposal.block_id

    @property
    def is_full(self) -> bool:
        return all(
            mb_id in self.microblocks
            for mb_id in self.proposal.payload.microblock_ids
        )
