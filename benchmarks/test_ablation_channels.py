"""Ablation — the priority-channel optimization (Section VI).

The implementation transmits and processes consensus messages ahead of
bulk microblock traffic ("we give the consensus channel a higher
priority"). Two measurements show the optimization is load-bearing for
Stratus:

* steady state near saturation: without priority, proposals and votes
  queue behind bodies and consensus latency inflates ~30–40%;
* under the Fig. 7 disturbance: without priority, even S-HS collapses
  into a view-change storm — proofs cannot rescue consensus messages
  that are themselves stuck behind the body backlog.
"""

import pytest

from repro import ExperimentConfig, run_experiment, tuned_protocol
from repro.faults import FaultSchedule, Window
from repro.harness.report import format_table

from _common import run_once, write_result

N_STEADY = 16
RATE_STEADY = 62_000.0
N_DISTURB = 32
WINDOW = FaultSchedule([  # Fig. 7's disturbance
    Window("delay", 4.0, 9.0, base=0.1, jitter=0.05),
    Window("bandwidth", 4.0, 9.0, factor=0.15),
])


def run_steady(priority: bool):
    protocol = tuned_protocol(
        "S-HS", n=N_STEADY, topology_kind="wan",
        batch_bytes=64 * 1024, batch_timeout=0.3, view_timeout=0.5,
    )
    return run_experiment(ExperimentConfig(
        protocol=protocol, topology_kind="wan", rate_tps=RATE_STEADY,
        duration=5.0, warmup=2.0, seed=9,
        priority_channels=priority,
        label=f"steady-prio{priority}",
    ))


def run_disturbed(priority: bool):
    protocol = tuned_protocol(
        "S-HS", n=N_DISTURB, topology_kind="wan", view_timeout=1.0,
        batch_bytes=32 * 1024, batch_timeout=0.4,
    )
    return run_experiment(ExperimentConfig(
        protocol=protocol, topology_kind="wan", rate_tps=25_000.0,
        duration=11.0, warmup=1.0, seed=3,
        priority_channels=priority, faults=WINDOW,
        label=f"disturbed-prio{priority}",
    ))


@pytest.mark.benchmark(group="ablation")
def test_ablation_priority_channels(benchmark):
    def sweep():
        return {
            "steady, priority on": run_steady(True),
            "steady, priority off": run_steady(False),
            "disturbed, priority on": run_disturbed(True),
            "disturbed, priority off": run_disturbed(False),
        }

    results = run_once(benchmark, sweep)

    rows = []
    for label, result in results.items():
        hub = result.metrics
        during = (
            f"{hub.throughput_tps(4.5, 9.0):,.0f}"
            if label.startswith("disturbed") else "-"
        )
        rows.append([
            label,
            f"{result.throughput_tps:,.0f}",
            during,
            f"{result.latency_mean * 1000:.0f}",
            result.view_changes,
        ])
    table = format_table(
        ["variant", "tput (tx/s)", "during window", "lat (ms)", "view chg"],
        rows,
        title="Ablation — consensus/data priority channels (S-HS, WAN)",
    )
    write_result("ablation_channels", table)

    on = results["steady, priority on"]
    off = results["steady, priority off"]
    # Steady state: FIFO mixing inflates consensus latency visibly.
    assert off.latency_mean > 1.2 * on.latency_mean
    # Disturbance: priority is the difference between graceful degradation
    # and a view-change storm, even with PAB in place.
    d_on = results["disturbed, priority on"]
    d_off = results["disturbed, priority off"]
    assert d_off.view_changes > 5 * max(d_on.view_changes, 1)
    assert (d_on.metrics.throughput_tps(4.5, 9.0)
            > 2 * d_off.metrics.throughput_tps(4.5, 9.0))
