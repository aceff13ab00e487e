"""Fig. 7 — throughput timeline through a window of network asynchrony.

The paper injects 10 s of NetEm delay fluctuation (RTT 100–300 ms) into
a WAN running at 25K tx/s with a 1 s view timer. SMP-HS collapses to
zero — replicas cannot vote until they fetch missing microblocks from
the congested leader, so view-changes storm — then slowly recovers by
draining accumulated proposals. S-HS keeps committing at the speed of
the degraded network and never view-changes.

Substitution (DESIGN.md): a bandwidth window over the delay window's
interval scales every uplink to 15%, standing in for TCP goodput
collapse under heavy jitter, which is what actually strands microblock
bodies in flight.
"""

import pytest

from repro import ExperimentConfig, run_experiment, tuned_protocol
from repro.faults import FaultSchedule, Window
from repro.harness.report import format_series, format_table

from _common import run_once, scaled, write_result

N = scaled(default=[32], full=[64])[0]
RATE = 25_000.0
WINDOW = FaultSchedule([
    Window("delay", 4.0, 9.0, base=0.1, jitter=0.05),
    Window("bandwidth", 4.0, 9.0, factor=0.15),  # TCP goodput collapse
])
END = 14.0


def run(preset: str):
    protocol = tuned_protocol(
        preset, n=N, topology_kind="wan", view_timeout=1.0,
        batch_bytes=32 * 1024, batch_timeout=0.4,
    )
    return run_experiment(ExperimentConfig(
        protocol=protocol, topology_kind="wan", rate_tps=RATE,
        duration=END - 1.0, warmup=1.0, seed=3, label=f"fig7-{preset}",
        faults=WINDOW,
    ))


@pytest.mark.benchmark(group="fig7")
def test_fig7_asynchrony(benchmark):
    results = run_once(
        benchmark, lambda: {p: run(p) for p in ("SMP-HS", "S-HS")}
    )

    parts = []
    for preset, result in results.items():
        series = result.metrics.throughput_series(0.0, END, bucket=1.0)
        parts.append(format_series(
            f"{preset} throughput (view changes: {result.view_changes})",
            [(f"{t:.0f}s", f"{v:,.0f}") for t, v in series],
            x_label="time", y_label="tx/s",
        ))
    summary_rows = []
    for preset, result in results.items():
        hub = result.metrics
        summary_rows.append([
            preset,
            f"{hub.throughput_tps(2.0, 4.0):,.0f}",
            f"{hub.throughput_tps(4.5, 9.0):,.0f}",
            f"{hub.throughput_tps(10.0, END):,.0f}",
            result.view_changes,
            hub.fetch_count,
        ])
    parts.append(format_table(
        ["protocol", "before (tx/s)", "during", "after", "view chg",
         "fetches"],
        summary_rows,
        title="Fig. 7 summary — 5 s disturbance at t=4 s",
    ))
    write_result("fig7_asynchrony", "\n\n".join(parts))

    smp, shs = results["SMP-HS"].metrics, results["S-HS"].metrics
    smp_before = smp.throughput_tps(2.0, 4.0)
    smp_during = smp.throughput_tps(4.5, 9.0)
    shs_before = shs.throughput_tps(2.0, 4.0)
    shs_during = shs.throughput_tps(4.5, 9.0)
    assert smp_during < 0.2 * smp_before          # collapse
    assert results["SMP-HS"].view_changes > 20    # view-change storm
    assert shs_during > 2 * smp_during            # Stratus keeps moving
    assert results["S-HS"].view_changes < 10
    # Both recover; SMP-HS drains its backlog after the window.
    assert smp.throughput_tps(10.0, END) > 0.8 * smp_before
    assert shs.throughput_tps(10.0, END) > 0.8 * shs_before
