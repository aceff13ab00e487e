"""The id lifecycle ``IdMempool`` owns, as a contract on every backend.

One microblock id is walked through ``proposable -> referenced ->
committed`` — with both ways back from *referenced* — at one replica of
each id-referencing mempool. Only the subclass's own rule for "could I
still propose this" differs between backends, and the last test pins
that: an id the replica holds no body / certificate / proof for is never
queued, whoever abandons it.
"""

import pytest

from repro.crypto import GENESIS_QC
from repro.types.proposal import Payload, PayloadEntry, Proposal, make_block_id

from tests.helpers import STRATUS_KINDS, inject, make_cluster, stratus_cluster

KINDS = ("simple", "gossip", "narwhal", *STRATUS_KINDS)
pytestmark = pytest.mark.parametrize("kind", KINDS)


def mempool_with_one_proposable_id(kind):
    """Replica 1's mempool once replica 0's microblock is proposable
    there (body delivered / certified / proven), engines frozen."""
    if kind in STRATUS_KINDS:
        exp = stratus_cluster(kind)
    else:
        exp = make_cluster(n=4, mempool=kind)
    for replica in exp.replicas:
        replica.consensus._try_propose = lambda *args, **kwargs: None
    inject(exp, 0, count=4)
    exp.sim.run_until(0.5)
    mempool = exp.replicas[1].mempool
    (mb_id,) = set(mempool._proposable)
    return mempool, mb_id


def carrier(payload, counter):
    """A stored proposal carrying ``payload`` (one per ``counter``)."""
    return Proposal(
        block_id=make_block_id(0, counter), view=counter, height=counter,
        proposer=0, parent_id=0, justify=GENESIS_QC, payload=payload,
    )


def queued(mempool, mb_id):
    return list(mempool._proposable).count(mb_id)


def test_an_id_is_in_exactly_one_state(kind):
    mempool, mb_id = mempool_with_one_proposable_id(kind)
    assert mb_id not in mempool._referenced
    assert mb_id not in mempool._committed

    # proposable -> referenced: this replica's own payload holds it at 0.
    payload = mempool.make_payload()
    assert payload.microblock_ids == (mb_id,)
    assert mempool._referenced[mb_id] == 0
    assert mempool.make_payload().is_empty

    # An own payload that never got stored anywhere is handed back.
    mempool.on_abandoned(carrier(payload, 1))
    assert mb_id not in mempool._referenced and queued(mempool, mb_id) == 1
    payload = mempool.make_payload()
    assert payload.microblock_ids == (mb_id,)

    # Stored: one count per proposal the engine holds that carries it.
    fork, winner = carrier(payload, 2), carrier(payload, 3)
    mempool.on_proposal(fork)
    mempool.on_proposal(winner)
    assert mempool._referenced[mb_id] == 2

    # Abandoned with a second carrier left: stays referenced.
    mempool.on_abandoned(fork)
    assert mempool._referenced[mb_id] == 1
    assert queued(mempool, mb_id) == 0 and mempool.make_payload().is_empty

    # Abandoned by its last carrier: proposable again, exactly once.
    mempool.on_abandoned(winner)
    assert mb_id not in mempool._referenced and queued(mempool, mb_id) == 1
    payload = mempool.make_payload()
    assert payload.microblock_ids == (mb_id,)
    assert mempool.make_payload().is_empty

    # referenced -> committed: never proposable again, whatever follows.
    last = carrier(payload, 4)
    mempool.on_proposal(last)
    mempool.mark_committed(last)
    assert mb_id in mempool._committed and mb_id not in mempool._referenced
    mempool.on_abandoned(carrier(payload, 5))  # a fork swept afterwards
    mempool._enqueue(mb_id)                    # a late re-announcement
    assert queued(mempool, mb_id) == 0 and mempool.make_payload().is_empty


def test_a_freed_id_is_queued_only_if_still_proposable_here(kind):
    """A stored fork may carry an id this replica has no body,
    certificate or proof for; abandoning the fork must not queue it."""
    mempool, mb_id = mempool_with_one_proposable_id(kind)
    stranger = mb_id + 1
    fork = carrier(Payload(entries=(PayloadEntry(mb_id=stranger),)), 6)
    mempool.on_proposal(fork)
    assert mempool._referenced[stranger] == 1
    mempool.on_abandoned(fork)
    assert stranger not in mempool._referenced
    assert queued(mempool, stranger) == 0
    assert mempool.make_payload().microblock_ids == (mb_id,)
