"""In-memory key-value store (the Bamboo benchmark state machine).

Committed full blocks are applied in commit order. Transactions in the
simulation are counted rather than materialized, so the applied
operations are synthesized deterministically from the block identity:
transaction ``i`` of microblock ``mb_id`` increments key
``(mb_id * 1_000_003 + i) % key_space``. That is one contiguous run of
keys per microblock (whole laps of the key space, then a run that wraps
at most once), counted by one C-level ``Counter.update`` per run. Two
replicas applying the same block sequence end in the same state, which
the integration tests assert.
"""

from __future__ import annotations

from collections import Counter
from hashlib import sha256

from repro.types.proposal import Block


def kv_digest(data: dict[int, int]) -> str:
    """Order-independent sha256-based digest of a key/value map.

    Each ``key:value`` pair hashes independently and the 32-byte digests
    XOR together, so insertion order is irrelevant and the result is
    stable across processes and restarts (unlike the builtin ``hash``,
    which is salted per process). This is the checkpoint integrity key:
    a checkpoint whose stored digest does not match the recomputed
    digest of its payload is rejected at recovery.
    """
    acc = 0
    for key, value in data.items():
        acc ^= int.from_bytes(sha256(b"%d:%d" % (key, value)).digest(), "big")
    return acc.to_bytes(32, "big").hex()


class KVStore:
    """Deterministic KV state machine."""

    def __init__(self, key_space: int = 10_000) -> None:
        if key_space <= 0:
            raise ValueError(f"key_space must be positive, got {key_space}")
        self._key_space = key_space
        self._data: Counter[int] = Counter()
        self._tx_applied = 0
        self._blocks_applied = 0
        self._last_height = 0
        self._last_block_id = 0

    @property
    def tx_applied(self) -> int:
        return self._tx_applied

    @property
    def blocks_applied(self) -> int:
        return self._blocks_applied

    @property
    def last_height(self) -> int:
        """Height of the last applied block (0 before any block)."""
        return self._last_height

    @property
    def last_block_id(self) -> int:
        return self._last_block_id

    def apply_block(self, block: Block) -> None:
        """Execute every transaction of a full block, in microblock order."""
        if not block.is_full:
            raise ValueError(f"cannot execute partial block {block.block_id}")
        pairs = tuple(
            (mb_id, block.microblocks[mb_id].tx_count)
            for mb_id in block.proposal.payload.microblock_ids
        )
        self._apply(block.block_id, block.proposal.height, pairs)

    def _apply(self, block_id: int, height: int, pairs) -> None:
        """Apply one block's synthesized operations.

        ``pairs`` is the ``(microblock_id, tx_count)`` sequence in payload
        order — the only inputs the deterministic op synthesis needs,
        which is also exactly what the WAL persists per block.
        """
        self._blocks_applied += 1
        self._last_height = height
        self._last_block_id = block_id
        space = self._key_space
        count = self._data.update
        for mb_id, tx_count in pairs:
            self._tx_applied += tx_count
            start = (mb_id * 1_000_003) % space
            for _ in range(tx_count // space):  # whole laps, from start
                count(range(start, space))
                count(range(start))
            end = start + tx_count % space
            if end <= space:
                count(range(start, end))
            else:  # the run wraps past the last key
                count(range(start, space))
                count(range(end - space))

    def get(self, key: int) -> int:
        return self._data.get(key, 0)

    def state_digest(self) -> str:
        """Order-independent digest of the store contents, stable across
        processes and restarts (see :func:`kv_digest`)."""
        return kv_digest(self._data)
