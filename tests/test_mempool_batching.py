"""Unit tests for microblock batching."""

import pytest

from repro.config import ProtocolConfig
from repro.mempool.batching import MicroBlockBatcher
from repro.sim.engine import Simulator
from repro.types import TxBatch


class FakeHost:
    def __init__(self, node_id=0):
        self.node_id = node_id
        self.sim = Simulator()
        self.crashed = False

    def notify_microblock(self, microblock):
        pass


def make_batcher(batch_bytes=512, tx_payload=128, batch_timeout=0.05):
    host = FakeHost()
    config = ProtocolConfig(
        n=4, batch_bytes=batch_bytes, tx_payload=tx_payload,
        batch_timeout=batch_timeout,
    )
    emitted = []
    batcher = MicroBlockBatcher(host, config, emitted.append)
    return host, batcher, emitted


def batch(count, when=0.0, payload=128):
    return TxBatch(count=count, payload_bytes=payload, mean_arrival=when)


def test_full_microblock_emitted_immediately():
    host, batcher, emitted = make_batcher()  # 4 txs per microblock
    batcher.add(batch(4))
    assert len(emitted) == 1
    assert emitted[0].tx_count == 4
    assert emitted[0].origin == 0


def test_partial_batch_waits():
    host, batcher, emitted = make_batcher()
    batcher.add(batch(3))
    assert emitted == []
    assert batcher.pending_tx_count == 3


def test_flush_timer_emits_partial_microblock():
    host, batcher, emitted = make_batcher(batch_timeout=0.05)
    batcher.add(batch(3))
    host.sim.run_until(0.1)
    assert len(emitted) == 1
    assert emitted[0].tx_count == 3
    assert batcher.pending_tx_count == 0


def test_flush_deadline_on_a_crashed_host_cuts_nothing_until_it_is_back():
    host, batcher, emitted = make_batcher(batch_timeout=0.05)
    batcher.add(batch(3))
    host.crashed = True
    host.sim.run_until(0.12)  # two deadlines pass
    assert emitted == [] and batcher.pending_tx_count == 3
    host.crashed = False
    host.sim.run_until(0.16)  # the first deadline after the restart
    assert [mb.tx_count for mb in emitted] == [3]
    assert emitted[0].created_at == pytest.approx(0.15)


def test_large_batch_splits_into_multiple_microblocks():
    host, batcher, emitted = make_batcher()
    batcher.add(batch(10))
    assert [mb.tx_count for mb in emitted] == [4, 4]
    assert batcher.pending_tx_count == 2


def test_microblock_ids_unique_and_increasing():
    host, batcher, emitted = make_batcher()
    for _ in range(5):
        batcher.add(batch(4))
    ids = [mb.id for mb in emitted]
    assert len(set(ids)) == 5
    assert ids == sorted(ids)


def test_mean_arrival_propagates():
    host, batcher, emitted = make_batcher()
    batcher.add(batch(4, when=2.5))
    assert emitted[0].mean_arrival == pytest.approx(2.5)


def test_mean_arrival_mixes_batches():
    host, batcher, emitted = make_batcher()
    batcher.add(batch(2, when=1.0))
    batcher.add(batch(2, when=3.0))
    assert emitted[0].mean_arrival == pytest.approx(2.0)


def test_flush_timer_resets_after_full_microblock():
    host, batcher, emitted = make_batcher(batch_timeout=0.05)
    batcher.add(batch(4))
    host.sim.run_until(0.2)
    assert len(emitted) == 1  # no empty flush afterwards


def test_payload_mismatch_rejected():
    host, batcher, _ = make_batcher(tx_payload=128)
    with pytest.raises(ValueError):
        batcher.add(batch(4, payload=256))


def test_explicit_flush():
    host, batcher, emitted = make_batcher()
    batcher.add(batch(1))
    batcher.flush()
    assert len(emitted) == 1
    assert emitted[0].tx_count == 1


def test_counter_tracks_emissions():
    host, batcher, emitted = make_batcher()
    batcher.add(batch(8))
    assert batcher.microblocks_emitted == 2
