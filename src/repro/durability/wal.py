"""Append-only write-ahead log of applied blocks.

Record framing is length-prefixed and CRC-checked::

    [u32 payload length][u32 crc32(payload)][payload bytes]

The payload is compact JSON carrying the only inputs the deterministic
KV state machine needs to re-apply a block: the block id, its height,
and the ``(microblock_id, tx_count)`` pairs in payload order. Replay
tolerates a torn final record (a crash mid-append leaves a short or
CRC-failing tail): the log is read up to the last fully valid record
and the damaged suffix is discarded, never applied.

fsync policy is configurable:

- ``always``   — fsync after every append (no committed-block loss on
  power failure, slowest),
- ``interval`` — fsync at most once per ``FSYNC_INTERVAL`` seconds of
  wall clock (bounded loss window),
- ``off``      — never fsync explicitly (page cache only; survives
  process kill, not host crash).

Writes always ``flush()`` the user-space buffer so a reader — including
a recovering incarnation in the same OS — sees every appended record
even under ``off``.
"""

from __future__ import annotations

import json
import os
import struct
import time
import zlib
from dataclasses import dataclass, field
from typing import Callable, Optional

_HEADER = struct.Struct("!II")

#: Sanity bound on one record's payload; a length prefix above this is
#: treated as corruption (stops replay) rather than a huge allocation.
MAX_RECORD_BYTES = 16 * 1024 * 1024

FSYNC_POLICIES = ("always", "interval", "off")
#: Seconds of wall clock between fsyncs under the ``interval`` policy.
FSYNC_INTERVAL = 0.05


@dataclass(frozen=True)
class AppliedBlockRecord:
    """One applied block, as persisted in the WAL."""

    block_id: int
    height: int
    #: ``(microblock_id, tx_count)`` in payload order.
    microblocks: tuple = ()


def encode_payload(record: AppliedBlockRecord) -> bytes:
    """``json.dumps({"b": id, "h": height, "m": [[mb, count], ...]},
    separators=(",", ":"))`` byte for byte, formatted directly."""
    return b'{"b":%d,"h":%d,"m":[%s]}' % (
        record.block_id,
        record.height,
        b",".join(map(b"[%d,%d]".__mod__, record.microblocks)),
    )


def decode_payload(raw: bytes) -> AppliedBlockRecord:
    doc = json.loads(raw.decode("ascii"))
    return AppliedBlockRecord(
        block_id=int(doc["b"]),
        height=int(doc["h"]),
        microblocks=tuple((int(m), int(c)) for m, c in doc["m"]),
    )


def encode_record(record: AppliedBlockRecord) -> bytes:
    """Full framed record: header + payload, ready to append."""
    payload = encode_payload(record)
    return _HEADER.pack(len(payload), zlib.crc32(payload)) + payload


@dataclass
class WalReplay:
    """Result of scanning a WAL file."""

    records: list = field(default_factory=list)
    #: Byte offset of the end of the last valid record.
    valid_bytes: int = 0
    #: True when bytes past ``valid_bytes`` were discarded (torn final
    #: record after a crash, or a corrupt record mid-log).
    torn: bool = False


def read_wal(path: str) -> WalReplay:
    """Scan a WAL file, returning every valid record in order.

    Stops at the first short, oversized, or CRC-failing record; the
    conservative prefix up to that point is the recovered log. A missing
    file is an empty log.
    """
    replay = WalReplay()
    try:
        with open(path, "rb") as handle:
            blob = handle.read()
    except FileNotFoundError:
        return replay
    offset = 0
    total = len(blob)
    while offset < total:
        if total - offset < _HEADER.size:
            replay.torn = True
            break
        length, crc = _HEADER.unpack_from(blob, offset)
        if length > MAX_RECORD_BYTES or total - offset - _HEADER.size < length:
            replay.torn = True
            break
        start = offset + _HEADER.size
        payload = blob[start:start + length]
        if zlib.crc32(payload) != crc:
            replay.torn = True
            break
        try:
            record = decode_payload(payload)
        except (ValueError, KeyError, TypeError, UnicodeDecodeError):
            replay.torn = True
            break
        replay.records.append(record)
        offset = start + length
        replay.valid_bytes = offset
    return replay


class WriteAheadLog:
    """Appender over one WAL file.

    ``failpoint`` is an optional callable invoked with a failpoint name
    at each write boundary; the crash-point tests raise from it to
    simulate a kill at that exact point.
    """

    def __init__(
        self,
        path: str,
        fsync: str = "always",
        failpoint: Optional[Callable[[str], None]] = None,
    ) -> None:
        if fsync not in FSYNC_POLICIES:
            raise ValueError(
                f"fsync must be one of {FSYNC_POLICIES}, got {fsync!r}"
            )
        self.path = path
        self.fsync = fsync
        self._failpoint = failpoint
        self._last_sync = time.monotonic()
        self.records_appended = 0
        self.bytes_appended = 0
        self._handle = open(path, "ab")

    def _fp(self, name: str) -> None:
        if self._failpoint is not None:
            self._failpoint(name)

    def append(self, record: AppliedBlockRecord) -> None:
        self._fp("wal.before_append")
        frame = encode_record(record)
        self._handle.write(frame)
        self._handle.flush()
        self.records_appended += 1
        self.bytes_appended += len(frame)
        self._fp("wal.after_append")
        if self.fsync == "always":
            os.fsync(self._handle.fileno())
            self._fp("wal.after_fsync")
        elif self.fsync == "interval":
            now = time.monotonic()
            if now - self._last_sync >= FSYNC_INTERVAL:
                os.fsync(self._handle.fileno())
                self._last_sync = now
                self._fp("wal.after_fsync")

    def sync(self) -> None:
        """Force an fsync regardless of policy."""
        self._handle.flush()
        os.fsync(self._handle.fileno())
        self._last_sync = time.monotonic()

    def truncate(self) -> None:
        """Drop every record (called after a checkpoint supersedes them)."""
        self._fp("wal.before_truncate")
        self._handle.truncate(0)
        self._handle.seek(0)
        self._handle.flush()
        if self.fsync != "off":
            os.fsync(self._handle.fileno())

    def truncate_to(self, valid_bytes: int) -> None:
        """Cut a torn tail off the file (recovery repair step)."""
        self._handle.truncate(valid_bytes)
        self._handle.seek(0, os.SEEK_END)
        self._handle.flush()

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.flush()
            self._handle.close()
