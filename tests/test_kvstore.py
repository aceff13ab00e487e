"""Unit tests for the KV state machine."""

import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto import GENESIS_QC
from repro.kvstore import KVStore, kv_digest
from repro.types import MicroBlock, make_microblock_id
from repro.types.proposal import Block, Payload, PayloadEntry, Proposal


def make_block(mb_counts=(4,), proposer=1, counter=0):
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


def test_apply_counts_transactions():
    store = KVStore()
    store.apply_block(make_block((4, 6)))
    assert store.tx_applied == 10
    assert store.last_block_id == 1
    assert store.blocks_applied == 1


def test_same_blocks_same_state():
    a, b = KVStore(), KVStore()
    for counter in range(3):
        block = make_block((4,), counter=counter)
        a.apply_block(block)
        b.apply_block(block)
    assert a.state_digest() == b.state_digest()


def test_different_blocks_different_state():
    a, b = KVStore(), KVStore()
    a.apply_block(make_block((4,), counter=0))
    b.apply_block(make_block((5,), counter=0))
    assert a.state_digest() != b.state_digest()


def test_partial_block_rejected():
    block = make_block((4,))
    missing_id = next(iter(block.microblocks))
    del block.microblocks[missing_id]
    with pytest.raises(ValueError):
        KVStore().apply_block(block)


def test_get_defaults_to_zero():
    assert KVStore().get(123) == 0


def test_writes_visible():
    store = KVStore(key_space=10)
    store.apply_block(make_block((20,)))
    assert any(store.get(key) > 0 for key in range(10))


def test_invalid_key_space():
    with pytest.raises(ValueError):
        KVStore(key_space=0)


def test_digest_is_stable_hex_not_process_salted():
    """The digest must be reproducible in another process: sha256-based,
    never the per-process-salted builtin ``hash``."""
    store = KVStore()
    store.apply_block(make_block((4, 6)))
    digest = store.state_digest()
    assert isinstance(digest, str)
    assert len(digest) == 64
    int(digest, 16)  # valid hex
    # Recompute from first principles: XOR of per-pair sha256 digests.
    acc = bytearray(32)
    for key in range(10_000):
        value = store.get(key)
        if value:
            pair = hashlib.sha256(f"{key}:{value}".encode()).digest()
            acc = bytearray(a ^ b for a, b in zip(acc, pair))
    assert digest == bytes(acc).hex()


def test_digest_order_independent():
    assert kv_digest({1: 2, 3: 4}) == kv_digest({3: 4, 1: 2})
    assert kv_digest({}) == "0" * 64


def test_apply_tracks_height_cursor():
    store = KVStore()
    store.apply_block(make_block((4,), counter=0))
    store.apply_block(make_block((4,), counter=1))
    assert store.last_height == 2
    assert store.last_block_id == 2
    assert store.blocks_applied == 2


@settings(max_examples=60, deadline=None)
@given(
    key_space=st.sampled_from((1, 7, 10_000)),
    pairs=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=2 ** 48),
            st.integers(min_value=0, max_value=20_001),
        ),
        max_size=4,
    ),
)
def test_run_counted_apply_matches_per_transaction_definition(
    key_space, pairs
):
    """Apply counts key runs; the definition is one increment per
    transaction. ``tx_count`` reaches past two laps of every key space,
    so whole laps and the wrapped run are both exercised."""
    store = KVStore(key_space=key_space)
    store._apply(1, 1, tuple(pairs))
    expected = {}
    for mb_id, tx_count in pairs:
        for index in range(tx_count):
            key = (mb_id * 1_000_003 + index) % key_space
            expected[key] = expected.get(key, 0) + 1
    assert {key: store.get(key) for key in range(key_space)} == {
        key: expected.get(key, 0) for key in range(key_space)
    }
    # Same keys first written in the same order: a snapshot's map
    # iterates alike.
    assert list(store._data.items()) == list(expected.items())
    assert store.tx_applied == sum(count for _mb, count in pairs)
    assert store.state_digest() == kv_digest(expected)
