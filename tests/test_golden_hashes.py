"""Commit hashes pinned across commits: the sub-minute behaviour gate.

Every other tier-1 determinism check compares two runs of the *same*
checkout; these three cells compare this checkout against the hashes
recorded on the commit before the One-PAB collapse (PR 13), so a
refactor that claims "same behaviour" has something to hold it to. The
cells are picked to cover what the collapse items touch: DLB forwards
and recovery fetches under skew and a crash (flat scope), certificate-
only ordering under crash + partition + loss (shard scope), and the
Streamlet engine over Stratus.

A change that is *meant* to move behaviour re-records the hash here and
justifies it with the ledger diff in CHANGES.md.
"""

import pytest

from repro.config import ProtocolConfig, ShardingConfig
from repro.harness.config import ExperimentConfig
from repro.harness.presets import chaos_schedule
from repro.harness.runner import build_experiment
from repro.verification import standard_suite

QUICK = {
    "batch_bytes": 4 * 128,
    "batch_timeout": 0.05,
    "view_timeout": 0.5,
    "empty_view_delay": 0.002,
    "fetch_timeout": 0.125,
}


def _shs_dlb_skew_crash() -> ExperimentConfig:
    protocol = ProtocolConfig(
        n=7, mempool="stratus", consensus="hotstuff",
        load_balancing=True, lb_samples=2, **QUICK,
    )
    return ExperimentConfig(
        protocol=protocol, rate_tps=3000.0, duration=5.0, warmup=0.5,
        seed=3, selector="zipf1", bandwidth_bps=10e6,
        faults=chaos_schedule("crash-restart", 7),
        label="golden-shs7-dlb-zipf1-crash-restart",
    )


def _sshs_crash_partition() -> ExperimentConfig:
    protocol = ProtocolConfig(
        n=8, mempool="sharded-stratus", consensus="hotstuff",
        sharding=ShardingConfig(shards=2), **QUICK,
    )
    return ExperimentConfig(
        protocol=protocol, rate_tps=400.0, duration=6.0, warmup=0.5,
        seed=11, faults=chaos_schedule("crash-partition", 8),
        label="golden-sshs8x2-crash-partition",
    )


def _ssl_plain() -> ExperimentConfig:
    protocol = ProtocolConfig(
        n=4, mempool="stratus", consensus="streamlet",
        streamlet_epoch=0.1, **QUICK,
    )
    return ExperimentConfig(
        protocol=protocol, rate_tps=400.0, duration=3.0, warmup=0.5,
        seed=5, label="golden-ssl4",
    )


#: (config builder, commit hash, committed tx in the window) — recorded
#: on commit 87085fb, the parent of the One-PAB collapse, except where a
#: cell says what moved it since.
GOLDEN = {
    # Re-recorded with "one proposal per microblock" (PR 14, step 1): at
    # 10 Mb/s the leader hand-off hole was open at n=7 too, and 145 of
    # this cell's 1,721 committed microblocks were committed twice
    # (7,189 counted them twice); none of its 1,798 is now. And again
    # with "no ack once proven" (step 2; 4b88afe8... before it): the
    # same 1,798 microblocks and 6,921 tx commit, at other instants —
    # bodies that arrive after their proof no longer draw acks.
    "shs7-dlb-zipf1-crash-restart": (
        _shs_dlb_skew_crash,
        "60848b1bde595e6268e33fa293561aaac6fc23da5e0380efc8e5cc23f79cf258",
        6921,
    ),
    "sshs8x2-crash-partition": (
        _sshs_crash_partition,
        "78ac61eebf8b8b934d5d4d918e8e6e108a624ae3569fd213fd0c82652b5c9c43",
        2466,
    ),
    "ssl4": (
        _ssl_plain,
        "62b10ee0f9b11ede6528407dbf5ee12c99f67b1dc22a1a8d8bf01f0930fe942b",
        1312,
    ),
}


@pytest.mark.parametrize("cell", sorted(GOLDEN))
def test_commit_hash_matches_recorded(cell):
    build, expected_hash, expected_tx = GOLDEN[cell]
    result = build_experiment(build(), standard_suite()).run()
    assert result.violations == []
    assert (result.commit_hash, result.committed_tx) == (
        expected_hash, expected_tx,
    )
