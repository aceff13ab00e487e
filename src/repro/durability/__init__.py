"""Durability layer: WAL, checkpoints, and snapshot state transfer."""

from repro.durability.checkpoint import (
    Checkpoint,
    CheckpointStore,
    decode_checkpoint,
)
from repro.durability.manager import DurabilityConfig, DurableKVStore
from repro.durability.wal import (
    AppliedBlockRecord,
    WriteAheadLog,
    encode_payload,
    encode_record,
    decode_payload,
    read_wal,
)

__all__ = [
    "AppliedBlockRecord",
    "Checkpoint",
    "CheckpointStore",
    "DurabilityConfig",
    "DurableKVStore",
    "WriteAheadLog",
    "decode_checkpoint",
    "decode_payload",
    "encode_payload",
    "encode_record",
    "read_wal",
]
