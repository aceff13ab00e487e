"""Unit tests for ProtocolConfig validation and derived quantities."""

import dataclasses

import pytest

from repro.config import ProtocolConfig, ShardingConfig
from repro.harness import ExperimentConfig


def test_f_derivation():
    assert ProtocolConfig(n=4).f == 1
    assert ProtocolConfig(n=7).f == 2
    assert ProtocolConfig(n=100).f == 33
    assert ProtocolConfig(n=128).f == 42


def test_consensus_quorum_is_2f_plus_1():
    config = ProtocolConfig(n=100)
    assert config.consensus_quorum == 67


def test_stability_quorum_defaults_to_f_plus_1():
    config = ProtocolConfig(n=100)
    assert config.stability_quorum == 34


def test_stability_quorum_override():
    config = ProtocolConfig(n=100, pab_quorum=67)
    assert config.stability_quorum == 67


def test_pab_quorum_bounds_enforced():
    with pytest.raises(ValueError):
        ProtocolConfig(n=100, pab_quorum=33)  # below f+1
    with pytest.raises(ValueError):
        ProtocolConfig(n=100, pab_quorum=68)  # above 2f+1
    ProtocolConfig(n=100, pab_quorum=34)
    ProtocolConfig(n=100, pab_quorum=67)


def test_small_networks_rejected():
    with pytest.raises(ValueError):
        ProtocolConfig(n=3)


def test_unknown_mempool_rejected():
    with pytest.raises(ValueError):
        ProtocolConfig(n=4, mempool="dag")


def test_unknown_consensus_rejected():
    with pytest.raises(ValueError):
        ProtocolConfig(n=4, consensus="raft")


def test_txs_per_microblock():
    config = ProtocolConfig(n=4, batch_bytes=128 * 1024, tx_payload=128)
    assert config.txs_per_microblock == 1024


def test_txs_per_microblock_at_least_one():
    config = ProtocolConfig(n=4, batch_bytes=10, tx_payload=128)
    assert config.txs_per_microblock == 1


def test_byzantine_bounded_by_f():
    config = ExperimentConfig(ProtocolConfig(n=4), fault="silent", fault_count=1)
    assert config.byzantine_ids == {3}
    with pytest.raises(ValueError):
        ExperimentConfig(ProtocolConfig(n=4), fault="silent", fault_count=2)


def test_lb_samples_validated():
    with pytest.raises(ValueError):
        ProtocolConfig(n=4, lb_samples=0)


def test_fetch_sample_fraction_validated():
    with pytest.raises(ValueError):
        ProtocolConfig(n=4, fetch_sample_fraction=0.0)
    with pytest.raises(ValueError):
        ProtocolConfig(n=4, fetch_sample_fraction=1.5)


def test_empty_view_delay_below_view_timeout():
    """A paced view that outlasts its own timeout never commits."""
    for delay in (0.5, 0.6):
        with pytest.raises(ValueError, match=r"\(0\.5\)") as caught:
            ProtocolConfig(n=4, view_timeout=0.5, empty_view_delay=delay)
        assert f"({delay})" in str(caught.value)
    ProtocolConfig(n=4, view_timeout=0.5, empty_view_delay=0.499)


def test_derived_quantities_are_recomputed_not_serialised():
    """f, the quorums and txs_per_microblock are computed once per
    instance: a copy gets its own, and none of them is a field."""
    config = ProtocolConfig(n=4, batch_bytes=1024, tx_payload=128)
    grown = dataclasses.replace(
        config, n=100, pab_quorum=40, batch_bytes=4096
    )
    assert (config.f, config.consensus_quorum, config.stability_quorum,
            config.txs_per_microblock) == (1, 3, 2, 8)
    assert (grown.f, grown.consensus_quorum, grown.stability_quorum,
            grown.txs_per_microblock) == (33, 67, 40, 32)
    derived = {"f", "consensus_quorum", "stability_quorum",
               "txs_per_microblock"}
    assert not derived & set(grown.to_dict())
    assert ProtocolConfig.from_dict(grown.to_dict()).stability_quorum == 40


@pytest.mark.parametrize(
    "ignored", [{"load_balancing": True}, {"pab_quorum": 2}],
    ids=["load_balancing", "pab_quorum"],
)
def test_sharded_stratus_rejects_settings_it_would_ignore(ignored):
    """The shard quorum is f_s + 1 from the shard map and there is no
    shard-aware DLB: accepting either would silently run something else.
    One shard is unsharded Stratus, which takes both."""
    ProtocolConfig(n=4, mempool="stratus", **ignored)  # fine when flat
    ProtocolConfig(n=4, sharding=ShardingConfig(shards=1), **ignored)
    with pytest.raises(ValueError, match="more than one shard"):
        ProtocolConfig(n=4, sharding=ShardingConfig(shards=2), **ignored)


@pytest.mark.parametrize("mempool", ["narwhal", "native"])
def test_sharding_layout_needs_the_sharded_mempool(mempool):
    """A layout under a mempool that ignores it would run unsharded."""
    with pytest.raises(ValueError, match="sharding needs"):
        ProtocolConfig(n=8, mempool=mempool,
                       sharding=ShardingConfig(shards=2))
    sharded = ProtocolConfig(n=8, mempool="stratus",
                             sharding=ShardingConfig(shards=2))
    assert sharded.sharding.shards == 2
