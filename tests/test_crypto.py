"""Unit tests for simulated signatures, proofs, and certificates."""

import pytest

from repro.crypto import (
    GENESIS_QC,
    QuorumCert,
    Signature,
    make_quorum_cert,
    sign,
    verify_quorum_cert,
    verify_signature,
    vote_signature,
)
from repro.sharding import (
    ONE_SHARD,
    CertificateError,
    ShardCertificate,
    ShardMap,
    ShardScope,
)
from repro.types.microblock import MicroBlock


def cert(signers, mb_id=7, **kwargs):
    return ShardCertificate(
        mb_id=mb_id, tx_count=1, mean_arrival=0.0, signers=tuple(signers),
        **kwargs,
    )


class TestSignatures:
    def test_roundtrip(self):
        sig = sign(3, digest=99)
        assert verify_signature(sig, digest=99, n=10)

    def test_wrong_digest_rejected(self):
        sig = sign(3, digest=99)
        assert not verify_signature(sig, digest=100, n=10)

    def test_forged_rejected(self):
        forged = Signature(signer=3, digest=99, forged=True)
        assert not verify_signature(forged, digest=99, n=10)

    def test_out_of_range_signer_rejected(self):
        sig = Signature(signer=10, digest=99)
        assert not verify_signature(sig, digest=99, n=10)


class TestAvailabilityProofs:
    """Minting and verifying under the one-shard PAB scope (3-of-4)."""

    scope = ShardScope(0, ShardMap(4, ONE_SHARD, quorum=3))
    mb = MicroBlock(
        id=7, origin=0, tx_count=1, tx_payload=128, created_at=0.0,
        sum_arrival=0.0,
    )

    def acks(self, signers, mb_id=7):
        return [sign(s, mb_id) for s in signers]

    def test_make_and_verify(self):
        proof = self.scope.make(self.mb, self.acks([0, 1, 2]))
        assert len(proof.signers) == 3
        assert self.scope.verify(proof, 7)

    def test_insufficient_acks(self):
        with pytest.raises(CertificateError):
            self.scope.make(self.mb, self.acks([0, 1]))

    def test_duplicate_signers_not_counted(self):
        acks = self.acks([0, 0, 0, 1])
        with pytest.raises(CertificateError):
            self.scope.make(self.mb, acks)

    def test_forged_acks_not_counted(self):
        acks = self.acks([0, 1]) + [Signature(2, 7, forged=True)]
        with pytest.raises(CertificateError):
            self.scope.make(self.mb, acks)

    def test_wrong_digest_acks_not_counted(self):
        acks = self.acks([0, 1]) + [sign(2, digest=8)]
        with pytest.raises(CertificateError):
            self.scope.make(self.mb, acks)

    def test_forged_proof_rejected(self):
        forged = cert((0, 1, 2), forged=True)
        assert not self.scope.verify(forged, 7)

    def test_mismatched_id_rejected(self):
        proof = self.scope.make(self.mb, self.acks([0, 1, 2]))
        assert not self.scope.verify(proof, 8)

    def test_undersized_proof_rejected(self):
        assert not self.scope.verify(cert((0, 1)), 7)

    def test_out_of_range_signers_rejected(self):
        assert not self.scope.verify(cert((0, 1, 99)), 7)

    def test_proof_size_scales_with_quorum(self):
        small = cert((0, 1), mb_id=1)
        large = cert(range(20), mb_id=1)
        assert large.size_bytes > small.size_bytes


class TestQuorumCerts:
    def votes(self, signers, block_id=5, view=2):
        return [vote_signature(s, block_id, view) for s in signers]

    def test_make_and_verify(self):
        qc = make_quorum_cert(5, 2, self.votes([0, 1, 2]), quorum=3, n=4)
        assert verify_quorum_cert(qc, quorum=3, n=4)
        assert qc.block_id == 5 and qc.view == 2

    def test_insufficient_votes(self):
        with pytest.raises(ValueError):
            make_quorum_cert(5, 2, self.votes([0, 1]), quorum=3, n=4)

    def test_votes_for_other_block_not_counted(self):
        votes = self.votes([0, 1]) + self.votes([2], block_id=6)
        with pytest.raises(ValueError):
            make_quorum_cert(5, 2, votes, quorum=3, n=4)

    def test_genesis_always_valid(self):
        assert verify_quorum_cert(GENESIS_QC, quorum=3, n=4)

    def test_forged_qc_rejected(self):
        forged = QuorumCert(block_id=5, view=2, signers=(0, 1, 2), forged=True)
        assert not verify_quorum_cert(forged, quorum=3, n=4)

    def test_undersized_qc_rejected(self):
        qc = QuorumCert(block_id=5, view=2, signers=(0,))
        assert not verify_quorum_cert(qc, quorum=3, n=4)

    def test_vote_digest_binds_block_and_view(self):
        a = vote_signature(0, block_id=5, view=2)
        b = vote_signature(0, block_id=5, view=3)
        c = vote_signature(0, block_id=6, view=2)
        assert a.digest != b.digest
        assert a.digest != c.digest
