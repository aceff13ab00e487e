"""Checkpoint snapshots of the KV state machine.

A checkpoint is a single file holding the full key/value map plus the
recovery cursor, keyed by ``(last_applied_block_id, state_digest)``::

    [8-byte magic][u32 payload length][u32 crc32(payload)][JSON payload]

Writes are atomic: the payload goes to a ``.tmp`` sibling, is fsynced,
and is renamed over the final name — a crash mid-write leaves either the
previous checkpoint intact or a ``.tmp`` litter file that recovery
ignores. ``load_latest`` scans checkpoints newest-first and skips any
file that is empty, short, CRC-damaged, or whose stored digest does not
match the digest recomputed from its own payload, so a partial or
corrupt checkpoint is rejected rather than silently applied.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from dataclasses import dataclass
from typing import Callable, Optional

from repro.config import encode_fields
from repro.kvstore.store import kv_digest

MAGIC = b"SMPCKPT1"
_HEADER = struct.Struct("!II")
_SUFFIX = ".ckpt"


@dataclass(frozen=True)
class Checkpoint:
    """Materialized KV state at one applied-block boundary."""

    height: int
    last_block_id: int
    digest: str
    tx_applied: int
    blocks_applied: int
    data: dict

    def encode(self) -> bytes:
        doc = encode_fields(
            self, data=lambda data: [[k, v] for k, v in sorted(data.items())]
        )
        payload = json.dumps(doc, separators=(",", ":")).encode("ascii")
        return MAGIC + _HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def decode_checkpoint(blob: bytes) -> Checkpoint:
    """Parse and *validate* one checkpoint file's bytes.

    Raises ``ValueError`` on any structural damage or digest mismatch.
    """
    if len(blob) < len(MAGIC) + _HEADER.size:
        raise ValueError("checkpoint file too short")
    if blob[:len(MAGIC)] != MAGIC:
        raise ValueError("bad checkpoint magic")
    length, crc = _HEADER.unpack_from(blob, len(MAGIC))
    start = len(MAGIC) + _HEADER.size
    payload = blob[start:start + length]
    if len(payload) != length:
        raise ValueError("truncated checkpoint payload")
    if zlib.crc32(payload) != crc:
        raise ValueError("checkpoint crc mismatch")
    doc = json.loads(payload.decode("ascii"))
    data = {int(k): int(v) for k, v in doc["data"]}
    checkpoint = Checkpoint(
        height=int(doc["height"]),
        last_block_id=int(doc["last_block_id"]),
        digest=str(doc["digest"]),
        tx_applied=int(doc["tx_applied"]),
        blocks_applied=int(doc["blocks_applied"]),
        data=data,
    )
    if kv_digest(data) != checkpoint.digest:
        raise ValueError("checkpoint digest mismatch")
    return checkpoint


class CheckpointStore:
    """Directory of checkpoint files, newest wins."""

    def __init__(
        self,
        directory: str,
        failpoint: Optional[Callable[[str], None]] = None,
    ) -> None:
        self.directory = directory
        self._failpoint = failpoint
        os.makedirs(directory, exist_ok=True)

    def _fp(self, name: str) -> None:
        if self._failpoint is not None:
            self._failpoint(name)

    def _path(self, height: int) -> str:
        return os.path.join(self.directory, f"checkpoint-{height:012d}{_SUFFIX}")

    def save(self, checkpoint: Checkpoint) -> int:
        """Atomically persist a checkpoint; returns its size in bytes."""
        blob = checkpoint.encode()
        final = self._path(checkpoint.height)
        tmp = final + ".tmp"
        self._fp("checkpoint.before_write")
        with open(tmp, "wb") as handle:
            handle.write(blob)
            handle.flush()
            os.fsync(handle.fileno())
        self._fp("checkpoint.before_rename")
        os.replace(tmp, final)
        dir_fd = os.open(self.directory, os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)
        self._fp("checkpoint.after_rename")
        self._prune(keep=final)
        return len(blob)

    def _prune(self, keep: str) -> None:
        for name in os.listdir(self.directory):
            path = os.path.join(self.directory, name)
            if path != keep and (
                name.endswith(_SUFFIX) or name.endswith(".tmp")
            ):
                try:
                    os.remove(path)
                except OSError:
                    pass

    def load_latest(self) -> Optional[tuple[Checkpoint, int]]:
        """Newest valid checkpoint and its file size, or None.

        Invalid files (empty, partial, corrupt, digest mismatch) are
        skipped — an older valid checkpoint still recovers the store.
        """
        candidates = sorted(
            (
                name for name in os.listdir(self.directory)
                if name.endswith(_SUFFIX)
            ),
            reverse=True,
        )
        for name in candidates:
            path = os.path.join(self.directory, name)
            try:
                with open(path, "rb") as handle:
                    blob = handle.read()
                return decode_checkpoint(blob), len(blob)
            except (OSError, ValueError, KeyError, TypeError):
                continue
        return None
