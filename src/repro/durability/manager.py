"""Durable KV state machine: WAL + checkpoints + snapshot install.

``DurableKVStore`` wraps the deterministic in-memory state machine with
a per-replica data directory::

    <data_dir>/wal.log                      append-only applied-block log
    <data_dir>/checkpoints/checkpoint-*.ckpt  atomic full-state snapshots

Every applied block is WAL-appended *before* it mutates memory; every
``checkpoint_interval`` blocks the full state is checkpointed and the
WAL truncated. Opening a store on an existing directory runs recovery:
load the newest valid checkpoint, replay the WAL tail (records at or
below the checkpoint height are skipped — they are the stale prefix a
crash between checkpoint and truncate leaves behind), and repair any
torn final record by cutting the file back to the valid prefix.

A recovered replica that is still behind the cluster's commit frontier
closes the gap with snapshot state transfer (``state.snap_req`` /
``state.snap``, see :mod:`repro.replica.node`) rather than full
protocol replay.
"""

from __future__ import annotations

import os
import time
from collections import Counter
from dataclasses import astuple, dataclass
from typing import Callable, Optional

from repro.config import decode_fields, encode_fields
from repro.durability.checkpoint import Checkpoint, CheckpointStore
from repro.durability.wal import (
    FSYNC_POLICIES,
    AppliedBlockRecord,
    WriteAheadLog,
    read_wal,
)
from repro.kvstore.store import KVStore, kv_digest

WAL_FILENAME = "wal.log"
CHECKPOINT_DIRNAME = "checkpoints"


@dataclass(frozen=True)
class DurabilityConfig:
    """Knobs for the durability layer (spawn-safe JSON round-trip)."""

    fsync: str = "always"
    #: Blocks applied between checkpoints (and WAL truncations).
    checkpoint_interval: int = 32

    def __post_init__(self) -> None:
        if self.fsync not in FSYNC_POLICIES:
            raise ValueError(
                f"fsync must be one of {FSYNC_POLICIES}, got {self.fsync!r}"
            )
        if self.checkpoint_interval <= 0:
            raise ValueError("checkpoint_interval must be positive")

    def to_spec(self) -> dict:
        return encode_fields(self)

    @classmethod
    def from_spec(cls, spec: dict) -> "DurabilityConfig":
        return decode_fields(cls, spec)


@dataclass
class RecoveryInfo:
    """What one store-open recovered, and how fast."""

    source: str = "fresh"  # fresh | checkpoint | wal | checkpoint+wal | snapshot
    duration_s: float = 0.0
    checkpoint_height: int = 0
    checkpoint_bytes: int = 0
    wal_blocks_replayed: int = 0
    wal_torn_tail: bool = False

    @property
    def wal_replay_blocks_per_sec(self) -> float:
        return self.wal_blocks_replayed / max(self.duration_s, 1e-9)

    def to_dict(self) -> dict:
        return {
            **encode_fields(self),
            "wal_replay_blocks_per_sec": self.wal_replay_blocks_per_sec,
        }


class DurableKVStore(KVStore):
    """KV state machine persisted under a per-replica data directory."""

    def __init__(
        self,
        data_dir: str,
        config: Optional[DurabilityConfig] = None,
        key_space: int = 10_000,
        failpoint: Optional[Callable[[str], None]] = None,
    ) -> None:
        super().__init__(key_space=key_space)
        self.data_dir = data_dir
        self.config = config if config is not None else DurabilityConfig()
        self._failpoint = failpoint
        os.makedirs(data_dir, exist_ok=True)
        self._checkpoints = CheckpointStore(
            os.path.join(data_dir, CHECKPOINT_DIRNAME), failpoint=failpoint
        )
        self._wal_path = os.path.join(data_dir, WAL_FILENAME)
        self._blocks_since_checkpoint = 0
        self._wal: Optional[WriteAheadLog] = None  # None during replay
        self.checkpoint_bytes = 0
        self.checkpoints_written = 0
        self.snapshot_installs = 0
        self.recovery = self._recover()

    # -- recovery -------------------------------------------------------

    def _recover(self) -> RecoveryInfo:
        started = time.perf_counter()
        info = RecoveryInfo()
        loaded = self._checkpoints.load_latest()
        if loaded is not None:
            checkpoint, size = loaded
            self._install_checkpoint(checkpoint)
            info.source = "checkpoint"
            info.checkpoint_height = checkpoint.height
            info.checkpoint_bytes = size
            self.checkpoint_bytes = size
        replay = read_wal(self._wal_path)
        info.wal_torn_tail = replay.torn
        for record in replay.records:
            if record.height <= self._last_height:
                continue  # stale prefix: checkpointed but not yet truncated
            if record.height != self._last_height + 1:
                # Non-contiguous tail: the records bridging the gap are
                # gone (e.g. the checkpoint they superseded was rejected
                # as corrupt). Applying them would fabricate state;
                # stop here and let snapshot transfer close the gap.
                break
            self._apply(record.block_id, record.height, record.microblocks)
            info.wal_blocks_replayed += 1
        if info.wal_blocks_replayed:
            info.source = "checkpoint+wal" if loaded else "wal"
        self._wal = WriteAheadLog(
            self._wal_path,
            fsync=self.config.fsync,
            failpoint=self._failpoint,
        )
        if replay.torn:
            self._wal.truncate_to(replay.valid_bytes)
        self._blocks_since_checkpoint = info.wal_blocks_replayed
        info.duration_s = time.perf_counter() - started
        return info

    def _install_checkpoint(self, checkpoint: Checkpoint) -> None:
        self._data = Counter(checkpoint.data)
        self._tx_applied = checkpoint.tx_applied
        self._blocks_applied = checkpoint.blocks_applied
        self._last_height = checkpoint.height
        self._last_block_id = checkpoint.last_block_id

    def reopen(self) -> "DurableKVStore":
        """Close this instance and recover a fresh one from the same
        directory — the sim's stand-in for a process restart."""
        self.close()
        return DurableKVStore(
            self.data_dir,
            config=self.config,
            key_space=self._key_space,
            failpoint=self._failpoint,
        )

    # -- apply path -----------------------------------------------------

    def _apply(self, block_id: int, height: int, pairs) -> None:
        if self._wal is None:  # recovery replay: the record is on disk
            super()._apply(block_id, height, pairs)
            return
        self._wal.append(AppliedBlockRecord(block_id, height, tuple(pairs)))
        super()._apply(block_id, height, pairs)
        self._blocks_since_checkpoint += 1
        if self._blocks_since_checkpoint >= self.config.checkpoint_interval:
            self.write_checkpoint()

    def _checkpoint(self) -> Checkpoint:
        """The applied state as it stands."""
        return Checkpoint(
            height=self._last_height,
            last_block_id=self._last_block_id,
            digest=self.state_digest(),
            tx_applied=self._tx_applied,
            blocks_applied=self._blocks_applied,
            data=dict(self._data),
        )

    def write_checkpoint(self) -> None:
        """Persist the full state and truncate the superseded WAL."""
        self.checkpoint_bytes = self._checkpoints.save(self._checkpoint())
        self.checkpoints_written += 1
        self._wal.truncate()
        self._blocks_since_checkpoint = 0

    # -- snapshot state transfer ---------------------------------------

    def snapshot_payload(self) -> tuple:
        """Wire payload for ``state.snap`` (see MESSAGE_REGISTRY): the
        :class:`Checkpoint` fields in order."""
        return astuple(self._checkpoint())

    def install_snapshot(self, payload) -> bool:
        """Adopt a peer snapshot if it is ahead of us and self-consistent.

        Returns True when installed. A snapshot whose digest does not
        match its own data is rejected (defence against a damaged or
        byzantine-mangled payload).
        """
        height, last_block_id, digest, tx_applied, blocks_applied, data = payload
        height = int(height)
        if height <= self._last_height:
            return False
        data = {int(k): int(v) for k, v in data.items()}
        if kv_digest(data) != digest:
            return False
        self._install_checkpoint(Checkpoint(
            height=height,
            last_block_id=int(last_block_id),
            digest=digest,
            tx_applied=int(tx_applied),
            blocks_applied=int(blocks_applied),
            data=data,
        ))
        self.snapshot_installs += 1
        if self.recovery.source == "fresh":
            # A freshly-joined replica with no local state at all counts
            # the transfer as its recovery source.
            self.recovery.source = "snapshot"
        self.write_checkpoint()  # persist immediately: survive the next crash
        return True

    @property
    def wal_records_appended(self) -> int:
        return self._wal.records_appended

    def close(self) -> None:
        self._wal.close()
