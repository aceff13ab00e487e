#!/usr/bin/env python3
"""Reproduce the Fig. 7 storyline: a 5-second WAN disturbance.

Runs SMP-HS (best-effort shared mempool) and S-HS (Stratus) through a
window of heavy delay jitter and prints the throughput timeline. The
simple mempool collapses into a view-change storm — replicas cannot vote
until they fetch missing microblocks from the congested leader — while
Stratus keeps committing because availability proofs let consensus enter
the commit phase without the bodies.

Run:  python examples/asynchrony_resilience.py
"""

from repro import ExperimentConfig, run_experiment, tuned_protocol
from repro.faults import FaultSchedule, Window
from repro.harness import format_table

WARMUP = 1.0
DISTURBANCE = Window("delay", 4.0, 9.0, base=0.1, jitter=0.05)
# The TCP goodput collapse under that jitter: every uplink at 15% over
# the same interval.
GOODPUT_COLLAPSE = Window(
    "bandwidth", DISTURBANCE.start, DISTURBANCE.end, factor=0.15,
)


def run(preset: str):
    protocol = tuned_protocol(
        preset, n=32, topology_kind="wan", view_timeout=1.0,
        batch_bytes=32 * 1024, batch_timeout=0.4,
    )
    return run_experiment(ExperimentConfig(
        protocol=protocol, topology_kind="wan", rate_tps=25_000,
        duration=13.0, warmup=WARMUP, seed=3, label=preset,
        faults=FaultSchedule([DISTURBANCE, GOODPUT_COLLAPSE]),
    ))


def main() -> None:
    results = {preset: run(preset) for preset in ("SMP-HS", "S-HS")}

    rows = []
    for second in range(1, 14):
        row = [f"{second:>2}s"]
        for preset, result in results.items():
            series = dict(result.metrics.throughput_series(0.0, 14.0, 1.0))
            row.append(f"{series.get(float(second), 0.0):,.0f}")
        marker = ""
        if DISTURBANCE.start <= second < DISTURBANCE.end:
            marker = "<- disturbance"
        row.append(marker)
        rows.append(row)

    print(format_table(
        ["t", "SMP-HS (tx/s)", "S-HS (tx/s)", ""],
        rows,
        title="Throughput timeline through a WAN disturbance (Fig. 7)",
    ))
    print()
    for preset, result in results.items():
        print(f"{preset:7s} view changes: {result.view_changes:4d}   "
              f"fetches: {result.metrics.fetch_count}")


if __name__ == "__main__":
    main()
