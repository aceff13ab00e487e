"""Local microblock store with delivery waiters.

``mbMap`` in Algorithm 3: maps microblock ids to bodies, and lets other
components (proposal fill, fetch manager) register callbacks that fire
when a missing microblock finally arrives.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.types.microblock import MicroBlock, MicroBlockId

Waiter = Callable[[MicroBlock], None]


class MicroBlockStore:
    """Id-addressable microblock storage for one replica."""

    def __init__(self) -> None:
        #: id -> body. Read-only outside this class: the per-message
        #: paths test membership here without a call.
        self.blocks: dict[MicroBlockId, MicroBlock] = {}
        self._waiters: dict[MicroBlockId, list[Waiter]] = {}

    def __contains__(self, mb_id: MicroBlockId) -> bool:
        return mb_id in self.blocks

    def __len__(self) -> int:
        return len(self.blocks)

    def add(self, microblock: MicroBlock) -> bool:
        """Store a microblock; returns True on first delivery.

        First delivery fires any registered waiters, which is how blocked
        fill operations resume.
        """
        if microblock.id in self.blocks:
            return False
        self.blocks[microblock.id] = microblock
        if microblock.id in self._waiters:
            for waiter in self._waiters.pop(microblock.id):
                waiter(microblock)
        return True

    def get(self, mb_id: MicroBlockId) -> Optional[MicroBlock]:
        return self.blocks.get(mb_id)

    def on_delivery(self, mb_id: MicroBlockId, waiter: Waiter) -> bool:
        """Run ``waiter`` when ``mb_id`` arrives: now, and True, if present."""
        existing = self.blocks.get(mb_id)
        if existing is not None:
            waiter(existing)
            return True
        self._waiters.setdefault(mb_id, []).append(waiter)
        return False

    def discard(self, mb_id: MicroBlockId) -> None:
        """Garbage-collect one microblock (committed and executed)."""
        self.blocks.pop(mb_id, None)

    @property
    def ids(self) -> list[MicroBlockId]:
        return list(self.blocks)
