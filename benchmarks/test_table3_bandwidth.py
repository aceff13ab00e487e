"""Table III — outbound bandwidth by role and message type, N = 64.

The paper throttles every replica to 100 Mb/s, saturates the network,
and reports outbound Mbps at the leader and at a non-leader replica,
split into proposals / microblocks / votes / acks. The shapes:

* N-HS: the leader burns its uplink on proposals (~75 Mbps) while
  non-leaders sit nearly idle (~0.5 Mbps) — the leader bottleneck;
* SMP-HS / S-HS: leader and non-leader consumption nearly even, with
  microblock dissemination dominating both;
* S-HS adds modest proposal overhead (availability proofs) and an ack
  line (~5 Mbps) over SMP-HS — the price of availability. The
  non-leader ack line is checked against
  :func:`repro.analysis.pab_ack_row_bytes`, fed the run's own
  microblock counts (tolerance in EXPERIMENTS.md).

Leadership is pinned to replica 0 so "leader" is well-defined for the
whole run, mirroring the paper's per-role measurement.
"""

import pytest

from repro import ExperimentConfig, tuned_protocol
from repro.analysis import pab_ack_row_bytes
from repro.harness.report import format_table, mbps
from repro.mempool.base import MessageKinds
from repro.sharding import ShardMap

from _common import run_once, scaled, write_result

N = scaled(default=[32], full=[64])[0]
BANDWIDTH = 100e6
DURATION = 3.0
WARMUP = 1.5

GROUPS = {
    "proposals": (MessageKinds.PROPOSAL,),
    "microblocks": MessageKinds.MICROBLOCK_KINDS,
    "votes": (MessageKinds.VOTE, MessageKinds.NEW_VIEW),
    "acks": (MessageKinds.ACK, MessageKinds.PROOF),
}

# Load at the saturation knee (not deep overload): high enough that
# microblock traffic dominates, low enough that queues stay bounded.
# Native HotStuff saturates around C/(8 B n) with its leader pinned.
RATES = {"N-HS": 4_000.0, "SMP-HS": 40_000.0, "S-HS": 40_000.0}


def run_fixed_leader(preset: str) -> dict:
    """Run one protocol with replica 0 pinned as the permanent leader."""
    from repro.harness.runner import build_experiment

    protocol = tuned_protocol(preset, n=N, topology_kind="lan")
    config = ExperimentConfig(
        protocol=protocol, topology_kind="lan", bandwidth_bps=BANDWIDTH,
        rate_tps=RATES[preset], duration=DURATION, warmup=WARMUP, seed=13,
        label=f"table3-{preset}",
    )
    experiment = build_experiment(config)
    for replica in experiment.replicas:
        replica.leader_set = (0,)
    experiment.run()
    stats = experiment.network.stats
    elapsed = config.end_time
    report: dict = {}
    for group, kinds in GROUPS.items():
        leader_bytes = sum(stats.node_bytes(0, kind) for kind in kinds)
        others = [
            sum(stats.node_bytes(node, kind) for kind in kinds)
            for node in range(1, N)
        ]
        report[("leader", group)] = mbps(leader_bytes, elapsed)
        report[("non-leader", group)] = mbps(sum(others) / len(others),
                                             elapsed)
    if protocol.mempool == "stratus":
        cut = [
            replica.mempool.batcher.microblocks_emitted
            for replica in experiment.replicas
        ]
        predicted = [
            pab_ack_row_bytes(
                N, ShardMap.of(protocol).quorum(0),
                own=cut[node], others=sum(cut) - cut[node],
            )
            for node in range(1, N)
        ]
        report[("non-leader", "acks model")] = mbps(
            sum(predicted) / len(predicted), elapsed,
        )
    return report


@pytest.mark.benchmark(group="table3")
def test_table3_bandwidth(benchmark):
    def build():
        return {preset: run_fixed_leader(preset) for preset in RATES}

    reports = run_once(benchmark, build)

    rows = []
    for role in ("leader", "non-leader"):
        for group in GROUPS:
            rows.append([role, group] + [
                f"{reports[preset][(role, group)]:.1f}"
                for preset in RATES
            ])
        rows.append([role, "SUM"] + [
            f"{sum(reports[preset][(role, group)] for group in GROUPS):.1f}"
            for preset in RATES
        ])
    table = format_table(
        ["role", "messages"] + list(RATES),
        rows,
        title=(f"Table III — outbound bandwidth (Mbps), n={N}, "
               f"100 Mb/s uplinks, fixed leader"),
    )
    write_result("table3_bandwidth", table)

    nhs, smp, shs = (reports[p] for p in ("N-HS", "SMP-HS", "S-HS"))
    # Leader bottleneck: N-HS leader ships proposals at a large multiple
    # of what any non-leader sends.
    assert nhs[("leader", "proposals")] > 20.0
    # (A single view-1 proposal may escape before the bench pins the
    # leader set; anything beyond noise means pinning failed.)
    assert nhs[("non-leader", "proposals")] < 0.01
    nhs_nonleader_sum = sum(nhs[("non-leader", g)] for g in GROUPS)
    nhs_leader_sum = sum(nhs[("leader", g)] for g in GROUPS)
    assert nhs_leader_sum > 10 * nhs_nonleader_sum
    # Shared mempool: leader and non-leader loads are comparable.
    for report in (smp, shs):
        leader_sum = sum(report[("leader", g)] for g in GROUPS)
        nonleader_sum = sum(report[("non-leader", g)] for g in GROUPS)
        assert leader_sum < 3 * nonleader_sum
        assert report[("leader", "microblocks")] > 10.0
        assert report[("non-leader", "microblocks")] > 10.0
    # Stratus' extra cost vs SMP: proofs in proposals and ack traffic.
    assert shs[("leader", "proposals")] > smp[("leader", "proposals")]
    # The ack line against its closed form: at most every ack and proof
    # the model counts, and at least 0.7 of it (EXPERIMENTS.md).
    share = shs[("non-leader", "acks")] / shs[("non-leader", "acks model")]
    assert 0.7 <= share <= 1.0, share
    assert smp[("non-leader", "acks")] == 0.0
