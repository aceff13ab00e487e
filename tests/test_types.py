"""Unit tests for core data types and wire sizes."""

import dataclasses

import pytest

from repro.live.wire import (
    decode_frame,
    decode_frame_binary,
    encode_frame,
    encode_frame_binary,
)
from repro.mempool.base import MessageKinds
from repro.sharding import ShardCertificate
from repro.sim.interfaces import Channel
from repro.types import (
    MicroBlock,
    Payload,
    PayloadEntry,
    TxBatch,
    make_microblock_id,
    sizes,
)
from repro.types.microblock import microblock_origin
from repro.types.proposal import (
    Block, Proposal, block_proposer, make_block_id,
)
from repro.crypto.certificates import GENESIS_QC, QuorumCert


def make_mb(origin=0, counter=0, tx_count=10, payload=128, created=1.0):
    return MicroBlock(
        id=make_microblock_id(origin, counter),
        origin=origin,
        tx_count=tx_count,
        tx_payload=payload,
        created_at=created,
        sum_arrival=created * tx_count,
    )


def make_cert(mb_id, signers=(0, 1, 2)):
    return ShardCertificate(
        mb_id=mb_id, tx_count=10, mean_arrival=1.0, signers=signers,
    )


class TestTxBatch:
    def test_totals(self):
        batch = TxBatch(count=10, payload_bytes=128, mean_arrival=2.0)
        assert batch.total_bytes == 1280
        assert batch.sum_arrival == pytest.approx(20.0)

    def test_invalid_count(self):
        with pytest.raises(ValueError):
            TxBatch(count=0, payload_bytes=128, mean_arrival=0.0)

    def test_invalid_payload(self):
        with pytest.raises(ValueError):
            TxBatch(count=1, payload_bytes=0, mean_arrival=0.0)


class TestMicroBlockId:
    def test_uniqueness_across_origins_and_counters(self):
        ids = {
            make_microblock_id(origin, counter)
            for origin in range(50)
            for counter in range(50)
        }
        assert len(ids) == 2500

    def test_origin_recoverable(self):
        mb_id = make_microblock_id(37, 123456)
        assert microblock_origin(mb_id) == 37

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            make_microblock_id(-1, 0)
        with pytest.raises(ValueError):
            make_microblock_id(0, -1)


class TestMicroBlock:
    def test_size_includes_header(self):
        mb = make_mb(tx_count=100)
        assert mb.size_bytes == sizes.MICROBLOCK_HEADER + 100 * 128

    def test_mean_arrival(self):
        mb = MicroBlock(
            id=1, origin=0, tx_count=4, tx_payload=128,
            created_at=3.0, sum_arrival=8.0,
        )
        assert mb.mean_arrival == pytest.approx(2.0)

    def test_empty_microblock_rejected(self):
        with pytest.raises(ValueError):
            MicroBlock(id=1, origin=0, tx_count=0, tx_payload=128,
                       created_at=0.0, sum_arrival=0.0)


class TestPayload:
    def test_id_payload_size(self):
        payload = Payload(entries=(
            PayloadEntry(mb_id=1), PayloadEntry(mb_id=2),
        ))
        assert payload.size_bytes == 2 * sizes.MICROBLOCK_ID
        assert payload.microblock_ids == (1, 2)
        assert not payload.is_empty

    def test_proven_payload_size_includes_proofs(self):
        cert = make_cert(mb_id=1)
        payload = Payload(entries=(PayloadEntry(mb_id=1, cert=cert),))
        expected = sizes.MICROBLOCK_ID + sizes.certificate_bytes(3)
        assert cert.size_bytes == sizes.certificate_bytes(3)
        assert payload.size_bytes == expected

    def test_embedded_payload_size(self):
        mb = make_mb(tx_count=10)
        payload = Payload(embedded=(mb,))
        assert payload.size_bytes == mb.size_bytes
        assert payload.microblock_ids == (mb.id,)

    def test_empty(self):
        assert Payload().is_empty
        assert Payload().size_bytes == 0

    @pytest.mark.parametrize("shape", ["entries", "embedded"])
    def test_derived_values_are_cached_off_the_wire(self, shape):
        """Derived values are computed once, and stay out of the fields
        both codecs encode: a read payload round-trips to an equal one."""
        mb = make_mb(tx_count=10)
        if shape == "entries":
            payload = Payload(entries=(PayloadEntry(mb.id, make_cert(mb.id)),))
        else:
            payload = Payload(embedded=(mb,))
        first = payload.microblock_ids
        assert first == (mb.id,)
        assert payload.microblock_ids is first
        assert payload.size_bytes > 0
        assert [f.name for f in dataclasses.fields(Payload)] == [
            "entries", "embedded",
        ]
        proposal = Proposal(
            block_id=make_block_id(3, 7), view=5, height=4, proposer=3,
            parent_id=0, justify=GENESIS_QC, payload=payload,
        )
        for encode, decode in (
            (encode_frame, decode_frame),
            (encode_frame_binary, decode_frame_binary),
        ):
            frame = encode(
                0, MessageKinds.PROPOSAL, Channel.CONSENSUS, proposal
            )
            decoded = decode(frame[4:])[3]
            assert decoded == proposal
            assert decoded.payload.microblock_ids == first


class TestProposalAndBlock:
    def make_proposal(self, payload=None):
        return Proposal(
            block_id=make_block_id(3, 7), view=5, height=4, proposer=3,
            parent_id=0, justify=GENESIS_QC,
            payload=payload if payload is not None else Payload(),
        )

    def test_block_id_nonzero(self):
        assert make_block_id(0, 0) != 0

    def test_block_ids_unique(self):
        ids = {make_block_id(p, c) for p in range(20) for c in range(20)}
        assert len(ids) == 400

    def test_proposer_recoverable(self):
        assert block_proposer(make_block_id(0, 0)) == 0
        assert block_proposer(make_block_id(37, 123456)) == 37

    def test_proposal_size_has_header_and_qc(self):
        proposal = self.make_proposal()
        assert proposal.size_bytes == (
            sizes.PROPOSAL_HEADER + proposal.justify.size_bytes
        )

    def test_qc_is_charged_as_an_aggregate_certificate(self):
        """A consensus QC and a PAB certificate are one signature scheme."""
        qc = QuorumCert(block_id=7, view=3, signers=tuple(range(85)))
        assert qc.size_bytes == sizes.certificate_bytes(len(qc.signers))
        assert qc.size_bytes == 32 + 32 + 64 + 2 * 85

    def test_block_fullness(self):
        mb = make_mb()
        payload = Payload(entries=(PayloadEntry(mb_id=mb.id),))
        block = Block(proposal=self.make_proposal(payload))
        assert not block.is_full
        block.microblocks[mb.id] = mb
        assert block.is_full

    def test_empty_block_is_full(self):
        block = Block(proposal=self.make_proposal())
        assert block.is_full
        assert not block.microblocks


class TestSizes:
    def test_microblock_bytes(self):
        assert sizes.microblock_bytes(0) == sizes.MICROBLOCK_HEADER
        assert sizes.microblock_bytes(10, 256) == (
            sizes.MICROBLOCK_HEADER + 2560
        )

    def test_microblock_bytes_negative(self):
        with pytest.raises(ValueError):
            sizes.microblock_bytes(-1)

    def test_proof_bytes_scale_with_quorum(self):
        """One aggregate signature, plus a 2-byte index per signer."""
        charge = sizes.certificate_bytes
        assert charge(1) == 32 + 32 + 64 + 2
        assert charge(20) - charge(2) == 18 * 2

    def test_proof_bytes_invalid(self):
        with pytest.raises(ValueError):
            sizes.certificate_bytes(0)
