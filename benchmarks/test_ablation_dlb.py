"""Ablation — distributed load balancing on/off and the ST probe.

Removes DLB from Stratus under a Zipf-1 workload (the Fig. 10 setting):
without forwarding, the hottest replica's uplink is the system
bottleneck and its queue grows without bound; with DLB the excess load
moves to proxies. Also exercises the self-push probe interval, this
implementation's addition that keeps the stable-time estimator alive
while a replica forwards (DESIGN.md design decision).
"""

import pytest

from repro import ExperimentConfig, run_experiment, tuned_protocol
from repro.harness.report import format_table

from _common import run_once, write_result

N = 16
RATE = 30_000.0


def run(load_balancing: bool, probe_interval: int = 8):
    protocol = tuned_protocol(
        "S-HS", n=N, topology_kind="wan",
        batch_bytes=16 * 1024, batch_timeout=0.1,
        load_balancing=load_balancing, lb_samples=3,
        lb_probe_interval=probe_interval,
    )
    return run_experiment(ExperimentConfig(
        protocol=protocol, topology_kind="wan", rate_tps=RATE,
        duration=6.0, warmup=3.0, seed=7, selector="zipf1",
        label=f"dlb{load_balancing}-probe{probe_interval}",
    ))


@pytest.mark.benchmark(group="ablation")
def test_ablation_dlb(benchmark):
    def sweep():
        return {
            "DLB off": run(False),
            "DLB on (probe 8)": run(True, 8),
            "DLB on (probe 32)": run(True, 32),
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
        title=(f"Ablation — DLB under Zipf-1 skew "
               f"(S-HS, n={N}, WAN @ {RATE:,.0f} tx/s)"),
    )
    write_result("ablation_dlb", table)

    off = results["DLB off"]
    on = results["DLB on (probe 8)"]
    assert on.metrics.forwarded_microblocks > 0
    assert off.metrics.forwarded_microblocks == 0
    # DLB lifts throughput and/or cuts latency under skew.
    assert (
        on.throughput_tps > 1.1 * off.throughput_tps
        or on.latency_mean < 0.7 * off.latency_mean
    )
    # The probe variant still functions with a sparser refresh.
    sparse = results["DLB on (probe 32)"]
    assert sparse.metrics.forwarded_microblocks > 0
    assert sparse.throughput_tps > 0.8 * on.throughput_tps
