"""Shard map and shard certificate units (``repro.sharding``).

The end-to-end behavior of sharded Stratus rides the harness/fuzz
suites; this file pins the deterministic structure the
whole design rests on — membership layout, per-shard fault tolerance,
certificate assembly and the validity checks replicas vote on.
"""

import pytest

from dataclasses import replace

from repro.config import ShardingConfig
from repro.crypto import sign
from repro.crypto.signatures import Signature
from repro.sharding import (
    ONE_SHARD,
    CertificateError,
    ShardMap,
    ShardScope,
)
from repro.types import sizes
from repro.types.microblock import MicroBlock, make_microblock_id


def make_map(n=16, shards=4):
    return ShardMap(n, ShardingConfig(shards=shards))


def make_mb(origin=1, counter=0, tx_count=10):
    return MicroBlock(
        id=make_microblock_id(origin, counter), origin=origin,
        tx_count=tx_count, tx_payload=128, created_at=0.0,
        sum_arrival=0.0,
    )


# -- shard map ---------------------------------------------------------------

def test_map_is_deterministic():
    first = make_map(64, 8)
    second = make_map(64, 8)
    for shard in range(8):
        assert first.members(shard) == second.members(shard)
        assert first.quorum(shard) == second.quorum(shard)


def test_memberships_are_strided_orbits():
    shard_map = make_map(16, 4)
    # Shard s owns s, s+4, s+8, s+12 — every replica appears in exactly
    # its own orbit, so dissemination load spreads evenly.
    assert shard_map.members(0) == (0, 4, 8, 12)
    assert shard_map.members(3) == (3, 7, 11, 15)


def test_every_origin_is_a_member_of_its_own_shard():
    for n, shards in ((16, 4), (32, 8), (64, 4), (128, 8), (7, 2)):
        shard_map = make_map(n, shards)
        for origin in range(n):
            shard = shard_map.shard_of_origin(origin)
            assert shard_map.is_member(origin, shard)


def test_shard_size_floor_pads_small_orbits():
    # 16 replicas over 8 shards would give 2-member orbits; the 4-member
    # floor pads along the ring so each shard still tolerates f_s >= 1.
    shard_map = make_map(16, 8)
    for shard in range(8):
        assert len(shard_map.members(shard)) == 4
        assert shard_map.f_of(shard) == 1
        assert shard_map.quorum(shard) == 2


def test_quorum_tolerates_f_byzantine_members():
    # quorum = f_s + 1: even with f_s members refusing to ack, the
    # remaining honest members can still certify — and any certificate
    # has at least one honest signer to fetch from.
    shard_map = make_map(64, 4)  # 16-member shards
    for shard in range(4):
        m = len(shard_map.members(shard))
        f = shard_map.f_of(shard)
        assert f == (m - 1) // 3
        assert shard_map.quorum(shard) == f + 1
        assert shard_map.quorum(shard) <= m - f


def test_every_shard_has_the_same_size_and_quorum():
    # ShardScope verifies certificates of *any* shard against its own
    # shard's quorum; that rests on the map padding every membership to
    # shard_size, whatever n and shard count.
    for n, shards in ((7, 2), (10, 3), (16, 8), (13, 4), (64, 4), (9, 2)):
        shard_map = make_map(n, shards)
        for shard in range(shards):
            assert len(shard_map.members(shard)) == shard_map.shard_size
            assert shard_map.quorum(shard) == shard_map.quorum(0)


def test_invalid_configs_are_rejected():
    with pytest.raises(ValueError, match="cannot split"):
        make_map(4, 8)


# -- certificates ------------------------------------------------------------

def _quorum_acks(shard_map, mb, shard):
    members = shard_map.members(shard)
    return [sign(node, mb.id) for node in members[:shard_map.quorum(shard)]]


def scope_of(shard_map, node=1):
    """The PAB scope replica ``node`` mints and verifies under."""
    return ShardScope(node, shard_map)


def test_make_certificate_from_quorum_acks():
    shard_map = make_map(16, 4)
    mb = make_mb(origin=1)
    shard = shard_map.shard_of_origin(1)
    scope = scope_of(shard_map)
    cert = scope.make(mb, _quorum_acks(shard_map, mb, shard))
    assert cert.tx_count == mb.tx_count
    assert set(cert.signers) <= shard_map.member_set(shard)
    assert scope.verify(cert, mb.id)
    # Any replica verifies any shard's certificate, member or not.
    assert scope_of(shard_map, node=2).verify(cert, mb.id)


def test_non_member_acks_do_not_count():
    shard_map = make_map(16, 4)
    mb = make_mb(origin=1)
    shard = shard_map.shard_of_origin(1)
    outsiders = [
        node for node in range(16) if not shard_map.is_member(node, shard)
    ]
    acks = [sign(node, mb.id) for node in outsiders]
    with pytest.raises(CertificateError, match="distinct member acks"):
        scope_of(shard_map).make(mb, acks)


def test_duplicate_and_forged_acks_do_not_count():
    shard_map = make_map(16, 4)
    mb = make_mb(origin=1)
    shard = shard_map.shard_of_origin(1)
    member = shard_map.members(shard)[0]
    acks = [sign(member, mb.id)] * 3 + [
        Signature(signer=shard_map.members(shard)[1], digest=mb.id,
                  forged=True)
    ]
    with pytest.raises(CertificateError):
        scope_of(shard_map).make(mb, acks)


def _valid_cert(shard_map, origin=1):
    mb = make_mb(origin=origin)
    shard = shard_map.shard_of_origin(origin)
    return mb, scope_of(shard_map, origin).make(
        mb, _quorum_acks(shard_map, mb, shard)
    )


def test_verify_rejects_wrong_binding_and_structure():
    shard_map = make_map(16, 4)
    mb, cert = _valid_cert(shard_map)
    # Wrong microblock id binding.
    assert not scope_of(shard_map).verify(cert, mb.id + 1)
    # Another origin's id: its shard, recomputed from the id, is not the
    # one whose members signed.
    other = make_microblock_id(2, 0)
    assert shard_map.shard_of_microblock(other) != (
        shard_map.shard_of_microblock(mb.id)
    )
    assert not scope_of(shard_map).verify(replace(cert, mb_id=other), other)
    # Sub-quorum signer set.
    shard = shard_map.shard_of_microblock(mb.id)
    thin = replace(cert, signers=cert.signers[:shard_map.quorum(shard) - 1])
    assert not scope_of(shard_map).verify(thin, mb.id)
    # Signers outside the owning shard's membership.
    outsider = next(
        node for node in range(16) if not shard_map.is_member(node, shard)
    )
    foreign = replace(
        cert, signers=tuple(list(cert.signers[:-1]) + [outsider]),
    )
    assert not scope_of(shard_map).verify(foreign, mb.id)


def test_verification_is_memoized_per_map():
    shard_map = make_map(16, 4)
    mb, cert = _valid_cert(shard_map)
    scope = scope_of(shard_map)
    assert scope.verify(cert, mb.id)
    assert cert._verified_key == ((16, 4), scope.quorum)
    # The binding check still runs on the memoized path.
    assert not scope_of(shard_map).verify(cert, mb.id + 1)


def one_shard_scope(quorum, n=10):
    return ShardScope(1, ShardMap(n, ONE_SHARD, quorum=quorum))


def test_a_certificate_verified_under_q_is_rechecked_under_q_plus_one():
    """The memo key carries the quorum: at one shard ``pab_quorum`` sets
    it, and a certificate that met q must not pass where q + 1 is due."""
    mb = make_mb(origin=1)
    lax = one_shard_scope(quorum=3)
    cert = lax.make(mb, [sign(node, mb.id) for node in range(3)])
    assert lax.verify(cert, mb.id)
    assert not one_shard_scope(quorum=4).verify(cert, mb.id)
    assert lax.verify(cert, mb.id)


def test_certificate_wire_size_is_aggregate_not_concatenated():
    """One scheme at every shard count: one aggregate signature plus
    2-byte member indices, so widening the quorum by 20 signers costs 40
    bytes, not 20 signatures."""
    mb = make_mb(origin=1)
    acks = [sign(node, mb.id) for node in range(4)]
    flat = one_shard_scope(quorum=4).make(mb, acks)
    assert flat.size_bytes == sizes.certificate_bytes(4) == 128 + 2 * 4
    shard_map = make_map(16, 4)
    _, sharded = _valid_cert(shard_map)
    assert sharded.size_bytes == sizes.certificate_bytes(len(sharded.signers))
    wide = sizes.certificate_bytes(22)
    assert wide - sizes.certificate_bytes(2) == 40


# -- one shard is unsharded Stratus -----------------------------------------

def test_one_shard_is_the_unsharded_run():
    """``ShardingConfig(shards=1)`` builds the run ``sharding=None``
    builds: same pushes, same certificates and their bytes, same
    reporting rule, so equal commit hashes and equal bytes sent."""
    from repro.config import ProtocolConfig
    from repro.harness import ExperimentConfig, build_experiment

    def run(sharding):
        protocol = ProtocolConfig(
            n=7, sharding=sharding, batch_bytes=8 * 128, batch_timeout=0.05,
        )
        return build_experiment(ExperimentConfig(
            protocol=protocol, rate_tps=2000.0, duration=2.0, warmup=0.5,
            seed=5,
        )).run()

    flat, one = run(None), run(ShardingConfig(shards=1))
    assert flat.committed_tx > 0
    assert one.commit_hash == flat.commit_hash
    assert one.net_bytes_sent == flat.net_bytes_sent
