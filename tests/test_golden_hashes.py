"""Commit hashes pinned across commits: the sub-minute behaviour gate.

Every other tier-1 determinism check compares two runs of the *same*
checkout; these cells compare this checkout against recorded hashes, so
a refactor that claims "same behaviour" has something to hold it to.
Three were recorded on the commit before the One-PAB collapse (PR 13)
and cover what the collapse items touch: DLB forwards and recovery
fetches under skew and a crash (flat scope), certificate-only ordering
under crash + partition + loss (shard scope), and the Streamlet engine
over Stratus. Three run ``link_model="fair-share"`` and were recorded on
the parent of the per-link share rewrite (PR 16): the ledger's crash
cell at a short horizon, a bandwidth squeeze that takes the topology
plain -> scaled -> plain under live transfers, and the same squeeze
followed by a delay window with a goodput factor (recorded with that
window passed through the config field that was a second spelling of
a delay fault; it is a ``delay`` window since the two became one). Five more run the chaos presets under ``link_model="serial"`` and
were recorded on 1db3b65, the parent of the one-fault-realisation
collapse, where partitions and loss windows were drop rules installed
and removed by queue events and a squeeze multiplied the topology's
bandwidth at one event and divided it back at another.

A change that is *meant* to move behaviour re-records the hash here and
justifies it with the ledger diff in CHANGES.md.
"""

import pytest

from repro.config import ProtocolConfig, ShardingConfig
from repro.faults import FaultSchedule, Window
from repro.harness.config import ExperimentConfig
from repro.harness.presets import chaos_schedule, tuned_protocol
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
        n=8, mempool="stratus", consensus="hotstuff",
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


def _shs_wan_fair_skew_crash() -> ExperimentConfig:
    # benchmarks/ledger's shs-wan-skew-crash-16 cut to 4.5 sim-s: the
    # crash (t=2) tears down live transfers, the restart (t=4) refetches.
    return ExperimentConfig(
        tuned_protocol(
            "S-HS", 16, "wan", batch_bytes=16_384, batch_timeout=0.1,
            lb_samples=3,
        ),
        topology_kind="wan", link_model="fair-share", selector="zipf1",
        rate_tps=30_000, faults=chaos_schedule("crash-restart", 16),
        warmup=1.0, duration=3.5, seed=7,
        label="golden-shs16-wan-fair-zipf1-crash-restart",
    )


def _shs_wan_fair_squeeze(*more_faults) -> ExperimentConfig:
    protocol = ProtocolConfig(
        n=4, mempool="stratus", consensus="hotstuff", **QUICK,
    )
    return ExperimentConfig(
        protocol=protocol, topology_kind="wan", link_model="fair-share",
        bandwidth_bps=10e6, rate_tps=2000.0, duration=4.0, warmup=0.5,
        seed=13,
        faults=FaultSchedule([
            Window("bandwidth", 1.0, 2.0, factor=0.2, nodes=(0, 1)),
            *more_faults,
        ]),
        label="golden-shs4-wan-fair-squeeze",
    )


def _shs_wan_fair_squeeze_fluctuation() -> ExperimentConfig:
    return _shs_wan_fair_squeeze(
        Window("delay", 2.5, 3.5, base=0.06, jitter=0.03),
        Window("bandwidth", 2.5, 3.5, factor=0.5),
    )


def _shs_preset(name: str, duration: float = 5.0):
    def build() -> ExperimentConfig:
        protocol = ProtocolConfig(
            n=7, mempool="stratus", consensus="hotstuff", **QUICK,
        )
        return ExperimentConfig(
            protocol=protocol, rate_tps=1000.0, duration=duration,
            warmup=0.5, seed=5, bandwidth_bps=10e6,
            faults=chaos_schedule(name, 7), label=f"golden-shs7-{name}",
        )
    return build


#: (config builder, commit hash, committed tx in the window) — recorded
#: on commit 87085fb, the parent of the One-PAB collapse, except where a
#: cell says what moved it since.
#:
#: All eleven were re-recorded when every certificate became one
#: aggregate signature (``sizes.certificate_bytes``): a one-shard PAB
#: certificate costs ``128 + 2q`` bytes instead of ``32 + 64q`` and a QC
#: ``128 + 2q`` instead of 104, so every proposal changes size and every
#: schedule moves. ``ssl4`` also lost the Streamlet entry budget's
#: one-shard branch (entries are budgeted at 64 bytes at every shard
#: count). Hash prefixes and tx before: dlb 882d0758 / 7,415;
#: sshs8x2 93a311fa; ssl4 62b10ee0; shs16-wan af8da498 / 85,949;
#: squeeze f9bd39ba / 7,640; squeeze-fluctuation 8fa63cb6 / 5,244;
#: preset crash-restart f3ae8826; crash-partition 94962771 / 3,148;
#: fig7-disturbance 55b0a4ae / 5,156; flaky-data 3657196d / 5,456;
#: leader-squeeze a1445c8c. Where no count is given it did not move.
#: shs16-wan's missing 10,014 tx are the three blocks the parent still
#: committed at 3.25-3.5 s, inside the crash window, before the stall.
#: Three crash cells moved again when at most ``FETCH_WINDOW`` fetches
#: run at once (the restarted replica's catch-up queues the rest), with
#: the same tx: sshs8x2 179bc46e, preset crash-restart e3b5fd02 and
#: crash-partition 96ce9033 before.
#: Ten moved again when a leader with nothing to commit began to park:
#: an empty view whose QC commits no payload is proposed when an id
#: becomes proposable (or a quarter view timeout later), not 2 ms after
#: the view opened. Fewer empty blocks commit (sshs8x2's replica 0
#: commits 495 instead of 787 at 400 tx/s) and proposals leave at other
#: instants. Hash prefixes and tx before: dlb 6bc2c0f9 / 9,966; sshs8x2
#: 29032857 / 2,463; shs16-wan fb514f76 / 75,935; squeeze e696298a /
#: 7,736; squeeze-fluctuation 6e501d22; preset crash-restart 59a15d0d;
#: crash-partition 24cc3088 / 5,173; fig7-disturbance 8c04111b / 5,220;
#: flaky-data 4f79ff85; leader-squeeze 6c8f3753. fig7-disturbance gains
#: the most: under 200 +- 100 ms of delay its view changes fall from 121
#: to 115. ssl4 (Streamlet, no faults) did not move; every HotStuff
#: cell here runs a fault schedule.
GOLDEN = {
    # Re-recorded with "one proposal per microblock" (PR 14, step 1): at
    # 10 Mb/s the leader hand-off hole was open at n=7 too, and 145 of
    # this cell's 1,721 committed microblocks were committed twice
    # (7,189 counted them twice); none of its 1,798 is now. And again
    # with "no ack once proven" (step 2; 4b88afe8... before it): the
    # same 1,798 microblocks and 6,921 tx commit, at other instants —
    # bodies that arrive after their proof no longer draw acks.
    # And with "a crashed replica cuts nothing" (PR 23, d0-i; 60848b1b...
    # before): the victim's pending batch is cut after the restart and
    # commits, instead of being cut while it is down and pushed to nobody; the
    # window still counts 6,921 tx.
    # And with the estimator's baseline drift deleted (same PR, d0-iv;
    # 55ed7a1f... / 6,921 tx before): the hot replica keeps reading
    # itself as busy and keeps forwarding.
    "shs7-dlb-zipf1-crash-restart": (
        _shs_dlb_skew_crash,
        "e102e8ddd47acc5e50d5a84fedec60a36027a08f309dc070d1d9e7c11ddbede3",
        9957,
    ),
    # Re-recorded with the per-ingress arrival queues (PR 23; 78ac61ee...
    # and 2,466 tx before): the loss window's coins are drawn per ingress
    # at its service ends, not across ingresses in global arrival order.
    # And with one-round-trip chain sync (e925af43... before, same tx):
    # the restarted replica leads at 4.05 s on a new-view quorum whose
    # certified block it lacks, and fetches it at once instead of timing
    # the view out; its catch-up is 2 sync requests answered with 11 and
    # 6 blocks, where it was 8 requests of one block each.
    "sshs8x2-crash-partition": (
        _sshs_crash_partition,
        "00991f91cf8390a2320bb5624adb61d7cb36e630587d6f7b35b31ec506944658",
        2469,
    ),
    "ssl4": (
        _ssl_plain,
        "7619d03789485acf71a42c0678a4f5b620720149365e7173631ff0beed5d64f5",
        1312,
    ),
    # The three fair-share cells, recorded on 4b99379 (parent of PR 16)
    # and re-recorded with one wake per uplink (PR 23; 688b826b... /
    # 85,309 tx, 4423c4df... / 7,596 and bed0a834... / 5,260 before): a
    # transfer whose rate did not change is no longer settled, so its
    # remaining bits round otherwise, and transfers of one uplink due at
    # one instant complete in the order they started. The first moved
    # once more with the baseline drift deleted (d0-iv; 46e2d304... /
    # 84,972 tx before): it is the only one of the three with DLB on.
    "shs16-wan-fair-zipf1-crash-restart": (
        _shs_wan_fair_skew_crash,
        "0f8ec18d5dbc819238147ad4694d281d024e878ad51af6a8bfb5b4da01e36547",
        79777,
    ),
    "shs4-wan-fair-squeeze": (
        _shs_wan_fair_squeeze,
        "4a5696102ede5e87d2aeed6833064b63f269bbd5594081949a9012a0cd75215c",
        7816,
    ),
    "shs4-wan-fair-squeeze-fluctuation": (
        _shs_wan_fair_squeeze_fluctuation,
        "56c68b63d260f239717cccae8eaf0287367d15a6ac01ef487f64a4275ff31974",
        7736,
    ),
    # The five chaos presets under serial links, recorded on 1db3b65.
    # Three re-recorded with one-round-trip chain sync, same tx: a sync
    # answer carries the requested block and its ancestors above the
    # requester's committed height. The restarted replica of
    # crash-restart catches up with one request answered by 6 blocks
    # (five requests of one block before; 6893dda4...); crash-partition's
    # one answer carries 2 blocks (6d15d736...), leader-squeeze's 4
    # (fa7adc56...).
    "shs7-preset-crash-restart": (
        _shs_preset("crash-restart"),
        "395a176c1f9e8af7efe008d2c48c299143796764342b85ad682fa94025ec5608",
        5173,
    ),
    # Re-recorded with the per-ingress arrival queues (PR 23; dedc7522...
    # and 5,169 tx before): the same coins land on other copies. The cell
    # has two outcomes and its coin stream picks one: the parent with
    # three coins drawn and discarded first commits 3,168 (4de4f8a1...).
    "shs7-preset-crash-partition": (
        _shs_preset("crash-partition"),
        "478b13aa8d20fe54870a26a0200b2ab53315b1d6e13e9bb4b374047d08e88cdd",
        5169,
    ),
    # 16 s, so the window (t = 5 s to 15 s) opens and closes in the run.
    "shs7-preset-fig7-disturbance": (
        _shs_preset("fig7-disturbance", duration=15.5),
        "bf69719ecb6a6252871755f6e9fc12e48cbfed591a8138cc507956c352e0ce0f",
        6868,
    ),
    # Re-recorded with the per-ingress arrival queues (PR 23; 6270d87e...
    # and 5,460 tx before): loss coins drawn in another order.
    "shs7-preset-flaky-data": (
        _shs_preset("flaky-data"),
        "ebbfcce1c6d9b039ccef7b122a5bf99936c82c91c9b6987bf4bfcb11482499c0",
        5460,
    ),
    "shs7-preset-leader-squeeze": (
        _shs_preset("leader-squeeze"),
        "9ee0ec74a510ccfc8aaf1a3e01807e494f40ba9f89fd3da87a0419efa8297ace",
        5460,
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
