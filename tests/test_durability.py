"""Durability layer: WAL, checkpoints, recovery, and snapshot transfer.

The crash-point matrix simulates a kill at every WAL/checkpoint write
boundary via failpoints (plus byte-level torn/corrupt tails) and asserts
recovery always lands on a state digest identical to a clean run's —
first on the recovered prefix, then, after re-applying the remaining
blocks, on the full sequence.
"""

import json
import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto import GENESIS_QC
from repro.durability import (
    AppliedBlockRecord,
    Checkpoint,
    CheckpointStore,
    DurabilityConfig,
    DurableKVStore,
    WriteAheadLog,
    decode_checkpoint,
    decode_payload,
    encode_payload,
    encode_record,
    read_wal,
)
from repro.durability.checkpoint import MAGIC
from repro.kvstore import KVStore, kv_digest
from repro.types import MicroBlock, make_microblock_id
from repro.types.proposal import Block, Payload, PayloadEntry, Proposal


class SimulatedCrash(Exception):
    """Raised from a failpoint: the process dies at this exact boundary."""


def make_block(mb_counts=(3, 2), proposer=1, counter=0):
    microblocks = {}
    entries = []
    for index, count in enumerate(mb_counts):
        mb = MicroBlock(
            id=make_microblock_id(proposer, counter * 100 + index),
            origin=proposer, tx_count=count, tx_payload=128,
            created_at=0.0, sum_arrival=0.0,
        )
        microblocks[mb.id] = mb
        entries.append(PayloadEntry(mb_id=mb.id))
    proposal = Proposal(
        block_id=counter + 1, view=counter + 1, height=counter + 1,
        proposer=proposer, parent_id=counter, justify=GENESIS_QC,
        payload=Payload(entries=tuple(entries)),
    )
    return Block(proposal=proposal, microblocks=microblocks)


def make_blocks(count):
    return [make_block((3, 2), counter=i) for i in range(count)]


def clean_prefix_digests(blocks):
    """height -> digest of a clean (in-memory) run applying that prefix."""
    clean = KVStore()
    digests = {0: clean.state_digest()}
    for block in blocks:
        clean.apply_block(block)
        digests[block.proposal.height] = clean.state_digest()
    return digests


# -- crash-point matrix -------------------------------------------------

#: (failpoint name, which firing to crash on). WAL points crash on a
#: mid-sequence append; checkpoint points crash on the first checkpoint
#: (checkpoint_interval=4 -> during block 4). ``wal.before_truncate``
#: is the "after checkpoint / before truncate" boundary: the new
#: checkpoint is durable but the WAL still holds its whole prefix.
CRASH_POINTS = [
    ("wal.before_append", 6),
    ("wal.after_append", 6),
    ("wal.after_fsync", 6),
    ("checkpoint.before_write", 1),
    ("checkpoint.before_rename", 1),
    ("checkpoint.after_rename", 1),
    ("wal.before_truncate", 1),
]


@pytest.mark.parametrize("fsync", ["always", "off"])
@pytest.mark.parametrize("point,trigger", CRASH_POINTS)
def test_crash_point_recovers_to_clean_digest(tmp_path, point, trigger, fsync):
    if point == "wal.after_fsync" and fsync == "off":
        pytest.skip("fsync=off never reaches the after-fsync boundary")
    blocks = make_blocks(10)
    digests = clean_prefix_digests(blocks)
    fired = {"count": 0}

    def failpoint(name):
        if name == point:
            fired["count"] += 1
            if fired["count"] == trigger:
                raise SimulatedCrash(name)

    config = DurabilityConfig(fsync=fsync, checkpoint_interval=4)
    store = DurableKVStore(str(tmp_path), config=config, failpoint=failpoint)
    with pytest.raises(SimulatedCrash):
        for block in blocks:
            store.apply_block(block)
    assert fired["count"] == trigger

    # "Restart": a fresh instance recovers from the same directory.
    recovered = DurableKVStore(str(tmp_path), config=config)
    height = recovered.last_height
    assert height in digests, f"recovered to unknown height {height}"
    assert recovered.state_digest() == digests[height], (
        f"crash at {point}: recovered state diverges from the clean "
        f"prefix at height {height}"
    )
    # Re-apply what the crash lost; the final state must be bit-identical
    # to the clean full run.
    for block in blocks:
        if block.proposal.height > height:
            recovered.apply_block(block)
    assert recovered.last_height == len(blocks)
    assert recovered.state_digest() == digests[len(blocks)]
    recovered.close()


def test_torn_final_record_is_discarded(tmp_path):
    blocks = make_blocks(5)
    digests = clean_prefix_digests(blocks)
    config = DurabilityConfig(fsync="off", checkpoint_interval=100)
    store = DurableKVStore(str(tmp_path), config=config)
    for block in blocks:
        store.apply_block(block)
    store.close()

    wal_path = os.path.join(str(tmp_path), "wal.log")
    size = os.path.getsize(wal_path)
    with open(wal_path, "r+b") as handle:
        handle.truncate(size - 3)  # tear into the final record

    recovered = DurableKVStore(str(tmp_path), config=config)
    assert recovered.recovery.wal_torn_tail
    assert recovered.last_height == len(blocks) - 1
    assert recovered.state_digest() == digests[len(blocks) - 1]
    # The torn bytes are gone; appending continues from a clean tail.
    recovered.apply_block(blocks[-1])
    assert recovered.state_digest() == digests[len(blocks)]
    recovered.close()
    final = DurableKVStore(str(tmp_path), config=config)
    assert final.state_digest() == digests[len(blocks)]
    final.close()


def test_corrupt_crc_record_stops_replay_at_valid_prefix(tmp_path):
    blocks = make_blocks(6)
    digests = clean_prefix_digests(blocks)
    config = DurabilityConfig(fsync="off", checkpoint_interval=100)
    store = DurableKVStore(str(tmp_path), config=config)
    for block in blocks:
        store.apply_block(block)
    store.close()

    wal_path = os.path.join(str(tmp_path), "wal.log")
    # Flip one byte inside the 3rd record's payload.
    replay = read_wal(wal_path)
    offset = sum(
        len(encode_record(record)) for record in replay.records[:2]
    ) + 12  # into record 3's payload (8-byte header + 4)
    with open(wal_path, "r+b") as handle:
        handle.seek(offset)
        byte = handle.read(1)
        handle.seek(offset)
        handle.write(bytes([byte[0] ^ 0xFF]))

    recovered = DurableKVStore(str(tmp_path), config=config)
    assert recovered.last_height == 2  # conservative prefix, nothing past it
    assert recovered.state_digest() == digests[2]
    assert recovered.recovery.wal_torn_tail
    recovered.close()


def test_corrupt_checkpoint_rejected_not_applied(tmp_path):
    blocks = make_blocks(5)
    config = DurabilityConfig(fsync="off", checkpoint_interval=3)
    store = DurableKVStore(str(tmp_path), config=config)
    for block in blocks:
        store.apply_block(block)
    assert store.checkpoints_written == 1
    store.close()

    ckpt_dir = os.path.join(str(tmp_path), "checkpoints")
    [name] = os.listdir(ckpt_dir)
    path = os.path.join(ckpt_dir, name)
    blob = open(path, "rb").read()
    mutated = bytearray(blob)
    mutated[len(MAGIC) + 8 + 4] ^= 0xFF  # corrupt the payload
    open(path, "wb").write(bytes(mutated))

    recovered = DurableKVStore(str(tmp_path), config=config)
    # The checkpoint is rejected, and the WAL tail (heights 4..5) is
    # non-contiguous with empty state, so nothing replays: recovery
    # refuses to fabricate state and waits for snapshot transfer.
    assert recovered.recovery.source == "fresh"
    assert recovered.last_height == 0
    assert recovered.recovery.wal_blocks_replayed == 0
    recovered.close()


@pytest.mark.parametrize("damage", ["empty", "partial", "bad-magic"])
def test_damaged_checkpoint_files_are_skipped(tmp_path, damage):
    store = CheckpointStore(str(tmp_path))
    good = Checkpoint(
        height=3, last_block_id=3, digest=kv_digest({1: 2}),
        tx_applied=5, blocks_applied=3, data={1: 2},
    )
    store.save(good)
    # A later-height checkpoint file that is damaged must be skipped in
    # favor of the older valid one, never half-applied.
    bad_path = os.path.join(str(tmp_path), "checkpoint-000000000009.ckpt")
    blob = Checkpoint(
        height=9, last_block_id=9, digest=kv_digest({1: 9}),
        tx_applied=9, blocks_applied=9, data={1: 9},
    ).encode()
    if damage == "empty":
        open(bad_path, "wb").close()
    elif damage == "partial":
        open(bad_path, "wb").write(blob[: len(blob) // 2])
    else:
        open(bad_path, "wb").write(b"XXXXXXXX" + blob[8:])
    loaded = store.load_latest()
    assert loaded is not None
    checkpoint, _size = loaded
    assert checkpoint.height == 3
    assert checkpoint.data == {1: 2}


def test_checkpoint_digest_mismatch_rejected(tmp_path):
    store = CheckpointStore(str(tmp_path))
    lying = Checkpoint(
        height=3, last_block_id=3, digest=kv_digest({1: 999}),  # wrong
        tx_applied=5, blocks_applied=3, data={1: 2},
    )
    store.save(lying)
    assert store.load_latest() is None
    with pytest.raises(ValueError):
        decode_checkpoint(lying.encode())


# -- WAL / checkpoint mechanics ----------------------------------------

def test_wal_truncates_after_checkpoint(tmp_path):
    config = DurabilityConfig(fsync="always", checkpoint_interval=4)
    store = DurableKVStore(str(tmp_path), config=config)
    for block in make_blocks(4):
        store.apply_block(block)
    assert store.checkpoints_written == 1
    assert os.path.getsize(os.path.join(str(tmp_path), "wal.log")) == 0
    store.close()


def test_reopen_below_the_checkpoint_interval_recovers_from_the_wal(tmp_path):
    """Checkpointing above the block count: nothing to install, so the
    re-open replays every record and says so (the retired recovery
    bench's wal-only case)."""
    blocks = make_blocks(6)
    config = DurabilityConfig(fsync="off", checkpoint_interval=len(blocks) + 1)
    store = DurableKVStore(str(tmp_path), config=config)
    for block in blocks:
        store.apply_block(block)
    digest = store.state_digest()
    reopened = store.reopen()
    assert reopened.recovery.source == "wal"
    assert reopened.recovery.wal_blocks_replayed == len(blocks)
    assert reopened.last_height == len(blocks)
    assert reopened.state_digest() == digest
    reopened.close()


def test_stale_wal_prefix_skipped_by_height(tmp_path):
    """Crash between checkpoint and truncate leaves the full WAL behind;
    recovery must not double-apply the checkpointed prefix."""
    blocks = make_blocks(6)
    digests = clean_prefix_digests(blocks)

    def crash_before_truncate(name):
        if name == "wal.before_truncate":
            raise SimulatedCrash(name)

    config = DurabilityConfig(fsync="always", checkpoint_interval=4)
    store = DurableKVStore(
        str(tmp_path), config=config, failpoint=crash_before_truncate
    )
    with pytest.raises(SimulatedCrash):
        for block in blocks:
            store.apply_block(block)

    recovered = DurableKVStore(str(tmp_path), config=config)
    assert recovered.recovery.source == "checkpoint"
    assert recovered.recovery.checkpoint_height == 4
    assert recovered.last_height == 4
    assert recovered.tx_applied == 4 * 5  # not 8 * 5
    assert recovered.state_digest() == digests[4]
    recovered.close()


def test_fsync_policy_validation():
    with pytest.raises(ValueError):
        DurabilityConfig(fsync="sometimes")
    with pytest.raises(ValueError):
        DurabilityConfig(checkpoint_interval=0)
    with pytest.raises(ValueError):
        WriteAheadLog("/tmp/x", fsync="nope")


def test_config_spec_round_trip():
    config = DurabilityConfig(fsync="interval", checkpoint_interval=7)
    assert DurabilityConfig.from_spec(config.to_spec()) == config


# -- snapshot transfer --------------------------------------------------

def test_snapshot_install_and_rejects(tmp_path):
    blocks = make_blocks(6)
    digests = clean_prefix_digests(blocks)
    config = DurabilityConfig(fsync="off", checkpoint_interval=100)
    ahead = DurableKVStore(str(tmp_path / "a"), config=config)
    for block in blocks:
        ahead.apply_block(block)
    behind = DurableKVStore(str(tmp_path / "b"), config=config)
    for block in blocks[:2]:
        behind.apply_block(block)

    payload = ahead.snapshot_payload()
    assert behind.install_snapshot(payload)
    assert behind.last_height == 6
    assert behind.state_digest() == digests[6]
    assert behind.snapshot_installs == 1
    # Installing persists immediately: a crash right after still recovers.
    behind.close()
    recovered = DurableKVStore(str(tmp_path / "b"), config=config)
    assert recovered.state_digest() == digests[6]
    assert recovered.recovery.source == "checkpoint"
    recovered.close()

    # Stale (not ahead) and digest-mangled snapshots are refused.
    assert not ahead.install_snapshot(payload)
    mangled = list(payload)
    mangled[5] = dict(mangled[5])
    first_key = next(iter(mangled[5]))
    mangled[5][first_key] += 1
    mangled[0] = payload[0] + 10
    fresh = DurableKVStore(str(tmp_path / "c"), config=config)
    assert not fresh.install_snapshot(tuple(mangled))
    assert fresh.last_height == 0
    ahead.close()
    fresh.close()


# -- hypothesis round-trips --------------------------------------------

records = st.builds(
    AppliedBlockRecord,
    block_id=st.integers(min_value=0, max_value=2 ** 48),
    height=st.integers(min_value=0, max_value=2 ** 32),
    microblocks=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=2 ** 48),
            st.integers(min_value=0, max_value=10_000),
        ),
        max_size=8,
    ).map(tuple),
)


@given(record=records)
def test_wal_record_round_trip(record):
    assert decode_payload(encode_payload(record)) == record
    framed = encode_record(record)
    assert len(framed) == 8 + len(encode_payload(record))


@given(record=records)
def test_wal_payload_is_the_json_document(record):
    reference = {
        "b": record.block_id,
        "h": record.height,
        "m": [[mb_id, count] for mb_id, count in record.microblocks],
    }
    assert encode_payload(record) == json.dumps(
        reference, separators=(",", ":")
    ).encode("ascii")


@given(record_lists=st.lists(records, max_size=6))
@settings(max_examples=25)
def test_wal_file_round_trip(tmp_path_factory, record_lists):
    directory = tmp_path_factory.mktemp("wal")
    path = str(directory / "wal.log")
    wal = WriteAheadLog(path, fsync="off")
    for record in record_lists:
        wal.append(record)
    wal.sync()  # "off" never fsyncs on its own; a caller still can
    wal.close()
    replay = read_wal(path)
    assert replay.records == record_lists
    assert not replay.torn


kv_maps = st.dictionaries(
    st.integers(min_value=0, max_value=100_000),
    st.integers(min_value=1, max_value=2 ** 32),
    max_size=32,
)


@given(data=kv_maps, height=st.integers(min_value=0, max_value=2 ** 32))
@settings(max_examples=25)
def test_checkpoint_round_trip(tmp_path_factory, data, height):
    directory = tmp_path_factory.mktemp("ckpt")
    checkpoint = Checkpoint(
        height=height, last_block_id=height, digest=kv_digest(data),
        tx_applied=sum(data.values()), blocks_applied=height, data=data,
    )
    store = CheckpointStore(str(directory))
    size = store.save(checkpoint)
    loaded = store.load_latest()
    assert loaded is not None
    restored, restored_size = loaded
    assert restored == checkpoint
    assert restored_size == size


@given(blocks_applied=st.integers(min_value=1, max_value=12))
@settings(max_examples=10, deadline=None)
def test_generated_block_sequences_recover_exactly(
    tmp_path_factory, blocks_applied
):
    directory = tmp_path_factory.mktemp("seq")
    blocks = make_blocks(blocks_applied)
    digests = clean_prefix_digests(blocks)
    config = DurabilityConfig(fsync="off", checkpoint_interval=5)
    store = DurableKVStore(str(directory), config=config)
    for block in blocks:
        store.apply_block(block)
    recovered = store.reopen()
    assert recovered.state_digest() == digests[blocks_applied]
    assert recovered.last_height == blocks_applied
    recovered.close()


# -- bytes on disk ------------------------------------------------------

#: What ``test_bytes_on_disk_are_pinned`` leaves on disk, as written
#: before the WAL payload was formatted without ``json.dumps`` and before
#: apply counted key runs: the fourth block's framed WAL record, and the
#: checkpoint the third block triggered (key_space=7, interval 3).
PINNED_WAL = bytes.fromhex(
    "0000003783dcb22b7b2262223a342c2268223a342c226d223a5b5b3130393935"
    "31313632383037362c335d2c5b313039393531313632383037372c325d5d7d"
)
PINNED_CHECKPOINT = bytes.fromhex(
    "534d50434b505431000000c035dea0ad7b22686569676874223a332c226c6173"
    "745f626c6f636b5f6964223a332c22646967657374223a223237646365336631"
    "3065653431353939656564616337393765323732386339396439363064663138"
    "356264363434653432346133336566323466626165363562222c2274785f6170"
    "706c696564223a31352c22626c6f636b735f6170706c696564223a332c226461"
    "7461223a5b5b302c325d2c5b312c325d2c5b322c325d2c5b332c335d2c5b342c"
    "325d2c5b352c325d2c5b362c325d5d7d"
)
PINNED_DIGEST = (
    "b15a8ef594681bcada2c73e0eaf093a1e991f05bffaadc6aaab80ed4a8697a72"
)
PINNED_CHECKPOINT_NAME = "checkpoint-000000000003.ckpt"


def test_bytes_on_disk_are_pinned(tmp_path):
    config = DurabilityConfig(fsync="off", checkpoint_interval=3)
    store = DurableKVStore(str(tmp_path), config=config, key_space=7)
    for counter in range(4):
        store.apply_block(make_block((3, 2), counter=counter))
    store.close()
    assert store.state_digest() == PINNED_DIGEST
    assert (tmp_path / "wal.log").read_bytes() == PINNED_WAL
    checkpoints = tmp_path / "checkpoints"
    assert os.listdir(checkpoints) == [PINNED_CHECKPOINT_NAME]
    assert (
        (checkpoints / PINNED_CHECKPOINT_NAME).read_bytes()
        == PINNED_CHECKPOINT
    )


def test_pinned_old_files_still_recover(tmp_path):
    """A directory written before this codec replays to the same state."""
    (tmp_path / "wal.log").write_bytes(PINNED_WAL)
    (tmp_path / "checkpoints").mkdir()
    (tmp_path / "checkpoints" / PINNED_CHECKPOINT_NAME).write_bytes(
        PINNED_CHECKPOINT
    )
    config = DurabilityConfig(fsync="off", checkpoint_interval=3)
    store = DurableKVStore(str(tmp_path), config=config, key_space=7)
    try:
        assert store.recovery.source == "checkpoint+wal"
        assert store.recovery.wal_blocks_replayed == 1
        assert store.last_height == 4
        assert store.tx_applied == 20
        assert store.state_digest() == PINNED_DIGEST
    finally:
        store.close()
