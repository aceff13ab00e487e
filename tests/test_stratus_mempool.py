"""Unit/integration tests for Stratus mempool bookkeeping (Algorithm 3).

``StratusMempool`` keeps one avaQue / pMap / commit / GC bookkeeping at
every shard count, so each case runs unsharded and at two shards (see
``tests.helpers.stratus_cluster`` for the two cluster shapes).
"""

import dataclasses

import pytest

from repro.crypto import GENESIS_QC
from repro.mempool import id_mempool
from repro.types.proposal import Payload, PayloadEntry, Proposal, make_block_id

from tests.helpers import (
    STRATUS_KINDS as KINDS,
    inject,
    stratus_cluster as cluster,
)

pytestmark = pytest.mark.parametrize("kind", KINDS)


def stratus_of(exp, node):
    return exp.replicas[node].mempool


def proposal_of(payload, counter):
    return Proposal(
        block_id=make_block_id(0, counter), view=9, height=9, proposer=0,
        parent_id=0, justify=GENESIS_QC, payload=payload,
    )


def freeze_consensus(exp):
    """Stop engines from proposing so tests can inspect mempool state."""
    for replica in exp.replicas:
        replica.consensus._try_propose = lambda *args, **kwargs: None


def test_payload_entries_carry_proofs(kind):
    exp = cluster(kind)
    freeze_consensus(exp)
    inject(exp, 0, count=4)
    exp.sim.run_until(0.5)
    mempool = stratus_of(exp, 0)
    payload = mempool.make_payload()
    assert payload.entries
    for entry in payload.entries:
        assert entry.cert.mb_id == entry.mb_id
        assert entry.cert.tx_count == 4


def test_make_payload_drains_ava_queue(kind):
    exp = cluster(kind)
    freeze_consensus(exp)
    inject(exp, 0, count=4)
    exp.sim.run_until(0.5)
    mempool = stratus_of(exp, 0)
    first = mempool.make_payload()
    second = mempool.make_payload()
    assert not first.is_empty
    assert second.is_empty  # ids are not proposed twice


def test_proposal_cap_respected(kind):
    exp = cluster(kind, protocol_overrides={"proposal_max_microblocks": 2})
    freeze_consensus(exp)
    for _ in range(5):
        inject(exp, 0, count=4)
    exp.sim.run_until(0.5)
    mempool = stratus_of(exp, 0)
    payload = mempool.make_payload()
    assert len(payload.entries) <= 2


def test_verify_payload_accepts_honest_and_rejects_forged(kind):
    exp = cluster(kind)
    freeze_consensus(exp)
    inject(exp, 0, count=4)
    exp.sim.run_until(0.5)
    mempool = stratus_of(exp, 1)
    honest = stratus_of(exp, 0).make_payload()
    assert mempool.verify_payload(honest)
    entry = honest.entries[0]
    forged = dataclasses.replace(entry.cert, forged=True)
    assert not mempool.verify_payload(Payload(entries=(
        PayloadEntry(entry.mb_id, forged),
    )))
    rebound = PayloadEntry(entry.mb_id + 1, entry.cert)
    assert not mempool.verify_payload(Payload(entries=(rebound,)))
    missing_proof = Payload(entries=(PayloadEntry(mb_id=entry.mb_id),))
    assert not mempool.verify_payload(missing_proof)


def test_abandoned_fork_with_unverified_proof_does_not_requeue(kind):
    """A fork this replica never voted on may carry anything — a
    proposal is stored before its payload is verified — so only proofs
    the replica verified itself (pMap) re-enter avaQue."""
    exp = cluster(kind)
    freeze_consensus(exp)
    inject(exp, 0, count=4)
    exp.sim.run_until(0.5)
    mempool = stratus_of(exp, 1)
    known = mempool.make_payload().entries[0]
    unknown_id = known.mb_id + 1
    forged = dataclasses.replace(
        known.cert, mb_id=unknown_id, forged=True,
    )
    payload = Payload(entries=(
        PayloadEntry(unknown_id, forged),
    ))
    assert not mempool.verify_payload(payload)
    mempool.on_abandoned(proposal_of(payload, 503))
    assert mempool.make_payload().is_empty


def test_remote_proof_populates_ava_queue(kind):
    exp = cluster(kind)
    inject(exp, 2, count=4)
    exp.sim.run_until(1.0)
    # Replica 0 saw only the proof broadcast, yet can propose the id.
    payload = stratus_of(exp, 0).make_payload()
    ids = [entry.mb_id for entry in payload.entries]
    assert stratus_of(exp, 2).store.ids[0] in ids or not ids
    # (if consensus already proposed it, the queue is legitimately empty —
    # then the id must be referenced, or committed by now)
    if not ids:
        mb_id = stratus_of(exp, 2).store.ids[0]
        mempool = stratus_of(exp, 0)
        assert mb_id in mempool._referenced or mb_id in mempool._committed


def test_resolve_produces_full_block(kind):
    exp = cluster(kind)
    freeze_consensus(exp)
    inject(exp, 0, count=4)
    exp.sim.run_until(0.5)
    pusher = stratus_of(exp, 0)
    proposal = proposal_of(pusher.make_payload(), 502)
    blocks = []
    stratus_of(exp, pusher.pab.peers[0]).resolve(proposal, blocks.append)
    exp.sim.run_until(3.0)
    assert len(blocks) == 1
    assert blocks[0].is_full
    assert sum(mb.tx_count for mb in blocks[0].microblocks.values()) == 4
    if kind == "sharded-stratus":
        # A replica outside the shard (and without an executor) resolves
        # on the certificate alone: done at once, no body, no fetch.
        outsider = stratus_of(exp, 1)
        outsider.resolve(proposal, blocks.append)
        assert len(blocks) == 2 and not blocks[1].microblocks
        assert outsider.fetcher.outstanding == 0


def three_proven_microblocks(kind):
    """Replica 0's mempool holding three of its own proven microblocks,
    and a proposal carrying them; engines frozen."""
    exp = cluster(kind)
    freeze_consensus(exp)
    for _ in range(3):
        inject(exp, 0, count=4)
    exp.sim.run_until(0.5)
    mempool = stratus_of(exp, 0)
    proposal = proposal_of(mempool.make_payload(), 504)
    assert len(proposal.payload.entries) == 3
    return exp, mempool, proposal


def spy_fetches(mempool):
    fetched = []
    mempool._fetch_missing = lambda entry, _: fetched.append(entry.mb_id)
    return fetched


def test_resolve_with_every_body_held_fills_at_once_in_entry_order(kind):
    exp, mempool, proposal = three_proven_microblocks(kind)
    fetched = spy_fetches(mempool)
    blocks = []
    mempool.resolve(proposal, blocks.append)
    assert len(blocks) == 1  # synchronously: no event ran
    assert tuple(blocks[0].microblocks) == proposal.payload.microblock_ids
    assert blocks[0].filled_at == exp.sim.now
    assert not fetched
    exp.sim.run_until(1.0)
    assert len(blocks) == 1


def test_resolve_fetches_only_missing_bodies_and_fills_in_arrival_order(kind):
    exp, mempool, proposal = three_proven_microblocks(kind)
    first, second, third = proposal.payload.microblock_ids
    late = {mb_id: mempool.store.blocks.pop(mb_id) for mb_id in (first, third)}
    fetched = spy_fetches(mempool)
    blocks = []
    mempool.resolve(proposal, blocks.append)
    assert fetched == [first, third]
    assert not blocks
    mempool.store.add(late[third])
    assert not blocks
    mempool.store.add(late[first])
    assert len(blocks) == 1
    assert list(blocks[0].microblocks) == [second, third, first]


def test_garbage_collection_discards_bodies_after_retention(kind, monkeypatch):
    monkeypatch.setattr(id_mempool, "GC_RETENTION", 1.0)
    exp = cluster(kind)
    # With no load only empty blocks commit; they hold nothing to retain.
    # An idle leader proposes one a quarter view timeout after the last.
    exp.sim.run_until(2.0)
    assert exp.metrics.commits
    for replica in exp.replicas:
        assert not replica.mempool._retained._heap
    inject(exp, 0, count=4)
    exp.sim.run_until(2.5)
    mempool = stratus_of(exp, 0)
    assert exp.metrics.committed_tx_total == 4
    # The committed microblock's body survives the retention window...
    assert len(mempool._retained._heap) == 1 and len(mempool.store) == 1
    # ...then is discarded everywhere along with its proof.
    exp.sim.run_until(7.5)
    assert not mempool._retained._heap
    for node in range(4):
        assert len(stratus_of(exp, node).store) == 0
    assert mempool._proofs == {}
    assert mempool.pab.proof_for(next(iter(mempool._committed))) is None


def test_gc_disabled_keeps_bodies(kind, monkeypatch):
    monkeypatch.setattr(id_mempool, "GC_RETENTION", 0.0)
    exp = cluster(kind)
    inject(exp, 0, count=4)
    exp.sim.run_until(6.0)
    assert exp.metrics.committed_tx_total == 4
    assert len(stratus_of(exp, 0).store) == 1
