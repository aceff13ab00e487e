"""Ablation — heterogeneous bandwidth (the other half of Problem-II).

The paper motivates DLB with *both* skewed client load and unequal
replica resources ("it is difficult to ensure that all the nodes have
identical resources like bandwidth"). This bench gives a quarter of the
replicas a fraction of the default WAN uplink under uniform client load:
the slow replicas' stable times inflate, DLB routes their excess
dissemination to fast proxies, and throughput/latency recover much of
the gap to a homogeneous deployment.
"""

import pytest

from repro import ExperimentConfig, run_experiment, tuned_protocol
from repro.faults import FaultSchedule, Window
from repro.harness.report import format_table

from _common import run_once, write_result

N = 16
# Offered so that a slow replica's uniform share (~29 Mb/s of egress)
# exceeds its uplink: the slow nodes are genuinely overloaded, not just
# close to the edge (a steady 95%-utilized replica correctly reports
# not-busy — its stable time is high but constant).
RATE = 30_000.0
SLOW_FRACTION = 0.25
WAN_BPS = 100e6  # the WAN topology's default uplink
SLOW_FACTOR = 0.25  # a slow replica's share of it: 25 Mb/s


def run(load_balancing: bool, heterogeneous: bool):
    protocol = tuned_protocol(
        "S-HS", n=N, topology_kind="wan",
        batch_bytes=16 * 1024, batch_timeout=0.1,
        load_balancing=load_balancing, lb_samples=3,
    )
    # A slow replica is a bandwidth window on it from t=0 that never
    # heals.
    slow = FaultSchedule([
        Window("bandwidth", 0.0, factor=SLOW_FACTOR, nodes=(node,))
        for node in range(int(N * SLOW_FRACTION))
    ]) if heterogeneous else None
    return run_experiment(ExperimentConfig(
        protocol=protocol, topology_kind="wan", rate_tps=RATE,
        duration=6.0, warmup=3.0, seed=17, faults=slow,
        label=f"hetero{heterogeneous}-dlb{load_balancing}",
    ))


@pytest.mark.benchmark(group="ablation")
def test_ablation_heterogeneous_bandwidth(benchmark):
    def sweep():
        return {
            "homogeneous": run(load_balancing=True, heterogeneous=False),
            "hetero, DLB off": run(load_balancing=False, heterogeneous=True),
            "hetero, DLB on": run(load_balancing=True, heterogeneous=True),
        }

    results = run_once(benchmark, sweep)
    rows = [
        [
            label,
            f"{result.throughput_tps:,.0f}",
            f"{result.latency_mean * 1000:.0f}",
            result.metrics.forwarded_microblocks,
        ]
        for label, result in results.items()
    ]
    table = format_table(
        ["variant", "tput (tx/s)", "lat (ms)", "forwards"],
        rows,
        title=(f"Ablation — {int(SLOW_FRACTION * N)} of {N} replicas at "
               f"{WAN_BPS * SLOW_FACTOR / 1e6:.0f} Mb/s (uniform load, WAN)"),
    )
    write_result("ablation_heterogeneous", table)

    base = results["homogeneous"]
    off = results["hetero, DLB off"]
    on = results["hetero, DLB on"]
    # Slow replicas detected and offloaded.
    assert on.metrics.forwarded_microblocks > 0
    assert off.metrics.forwarded_microblocks == 0
    # DLB recovers latency lost to the slow uplinks without costing
    # throughput (the slow nodes' queues stop growing once offloaded).
    assert on.latency_mean < 0.9 * off.latency_mean
    assert on.throughput_tps >= 0.98 * off.throughput_tps
    # And lands close to the homogeneous deployment.
    assert on.throughput_tps > 0.9 * base.throughput_tps
