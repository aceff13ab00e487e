"""Unit tests for the microblock store."""

from repro.mempool.store import MicroBlockStore
from repro.types import MicroBlock, make_microblock_id


def make_mb(origin=0, counter=0, tx_count=4):
    return MicroBlock(
        id=make_microblock_id(origin, counter), origin=origin,
        tx_count=tx_count, tx_payload=128, created_at=0.0,
        sum_arrival=0.0,
    )


def test_add_and_get():
    store = MicroBlockStore()
    mb = make_mb()
    assert store.add(mb)
    assert mb.id in store
    assert store.get(mb.id) is mb
    assert len(store) == 1


def test_duplicate_add_returns_false():
    store = MicroBlockStore()
    mb = make_mb()
    assert store.add(mb)
    assert not store.add(mb)
    assert len(store) == 1


def test_waiter_fires_on_delivery():
    store = MicroBlockStore()
    mb = make_mb()
    seen = []
    store.on_delivery(mb.id, seen.append)
    assert seen == []
    store.add(mb)
    assert seen == [mb]


def test_waiter_fires_immediately_if_present():
    store = MicroBlockStore()
    mb = make_mb()
    store.add(mb)
    seen = []
    assert store.on_delivery(mb.id, seen.append)  # present: ran at once
    assert seen == [mb]


def test_multiple_waiters_all_fire():
    store = MicroBlockStore()
    mb = make_mb()
    seen = []
    for _ in range(3):
        assert not store.on_delivery(mb.id, seen.append)
    store.add(mb)
    assert seen == [mb, mb, mb]


def test_waiters_fire_once():
    store = MicroBlockStore()
    mb = make_mb()
    seen = []
    store.on_delivery(mb.id, seen.append)
    store.add(mb)
    store.discard(mb.id)
    store.add(mb)
    assert seen == [mb]


def test_discard():
    store = MicroBlockStore()
    mb = make_mb()
    store.add(mb)
    store.discard(mb.id)
    assert mb.id not in store
    store.discard(mb.id)  # idempotent


def test_ids_listing():
    store = MicroBlockStore()
    blocks = [make_mb(counter=i) for i in range(3)]
    for mb in blocks:
        store.add(mb)
    assert sorted(store.ids) == sorted(mb.id for mb in blocks)
