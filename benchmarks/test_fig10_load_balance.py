"""Fig. 10 — throughput under unbalanced (Zipfian) workloads.

The paper offers skewed client load in a WAN and compares SMP-HS,
gossip-based SMP-HS-G, and Stratus with power-of-d sampling d = 1, 2, 3.
Reported shapes:

* S-HS-dx beats SMP-HS by large factors under high skew (the hot replica
  cannot disseminate alone; DLB forwards its excess to proxies);
* SMP-HS-G sheds hot-spot load but pays ~fanout-fold redundancy, which
  costs it under *light* skew (Zipf10);
* d = 3 is the best Stratus variant, though the gap between d values is
  small under heavy skew.

Scaled default: n = 16 (hot-replica capacity ~23K tx/s, offered 30K);
REPRO_BENCH_FULL=1 uses n = 32. At that load every d forwards enough to
commit what is offered (29.7-30.0K of 30K), so the d-ordering is held
up to ``D_ORDER_SLACK``: a larger d may not fall behind a smaller one
by more than the window's edge effect, and each must beat SMP-HS by the
margin DLB is there for.
"""

import pytest

from repro import ExperimentConfig, tuned_protocol
from repro.harness.report import format_table

from _common import run_grid, run_once, scaled, write_result

N = scaled(default=[16], full=[32])[0]
RATE = scaled(default=[30_000.0], full=[60_000.0])[0]

#: How far a larger d may trail a smaller one where all of them commit
#: the offered load: the d's differ by < 1 % of it, in either direction.
D_ORDER_SLACK = 0.015

VARIANTS = (
    ("SMP-HS", "SMP-HS", 1),
    ("SMP-HS-G", "SMP-HS-G", 1),
    ("S-HS-d1", "S-HS", 1),
    ("S-HS-d2", "S-HS", 2),
    ("S-HS-d3", "S-HS", 3),
)


def cell_config(preset: str, d: int, selector: str):
    protocol = tuned_protocol(
        preset, n=N, topology_kind="wan",
        batch_bytes=16 * 1024, batch_timeout=0.1, lb_samples=d,
    )
    return ExperimentConfig(
        protocol=protocol, topology_kind="wan", rate_tps=RATE,
        duration=6.0, warmup=3.0, seed=7, selector=selector,
        label=f"{preset}-d{d}-{selector}",
    )


def sweep() -> tuple[str, dict]:
    cells = [
        (selector, label, preset, d)
        for selector in ("zipf1", "zipf10")
        for label, preset, d in VARIANTS
    ]
    configs = [
        cell_config(preset, d, selector)
        for selector, label, preset, d in cells
    ]
    rows = []
    data: dict = {}
    for (selector, label, _, _), result in zip(cells, run_grid(configs)):
        data[(selector, label)] = result
        rows.append([
            selector, label,
            f"{result.throughput_tps:,.0f}",
            f"{result.latency_mean * 1000:.0f}",
            result.forwarded_microblocks,
            result.view_changes,
        ])
    table = format_table(
        ["workload", "protocol", "tput (tx/s)", "lat (ms)", "forwards",
         "view chg"],
        rows,
        title=f"Fig. 10 — skewed workloads, n={N}, WAN, offered {RATE:,.0f} tx/s",
    )
    return table, data


@pytest.mark.benchmark(group="fig10")
def test_fig10_load_balance(benchmark):
    table, data = run_once(benchmark, sweep)
    write_result("fig10_load_balance", table)

    for selector in ("zipf1", "zipf10"):
        best_stratus = max(
            data[(selector, label)].throughput_tps
            for label in ("S-HS-d1", "S-HS-d2", "S-HS-d3")
        )
        smp = data[(selector, "SMP-HS")].throughput_tps
        # Under light skew nobody is over capacity: every protocol
        # commits the offered load and the comparison is parity.
        assert best_stratus > (0.97 if selector == "zipf10" else 1.0) * smp, \
            selector
    # Under high skew, DLB actually forwards, for every d, and more
    # samples never cost throughput: d1 <= d2 <= d3 up to the slack.
    d1, d2, d3 = (
        data[("zipf1", f"S-HS-d{d}")] for d in (1, 2, 3)
    )
    smp = data[("zipf1", "SMP-HS")].throughput_tps
    for result in (d1, d2, d3):
        assert result.forwarded_microblocks > 100
        assert result.throughput_tps > 1.4 * smp
    assert d1.throughput_tps <= (1 + D_ORDER_SLACK) * d2.throughput_tps
    assert d2.throughput_tps <= (1 + D_ORDER_SLACK) * d3.throughput_tps
    # Stratus latency beats gossip's under high skew (redundancy cost).
    assert (data[("zipf1", "S-HS-d3")].latency_mean
            < data[("zipf1", "SMP-HS-G")].latency_mean)
