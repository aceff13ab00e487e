"""Fig. 8 — impact of Byzantine (censoring) senders.

The paper runs LANs of 100 and 200 replicas with up to 30% censoring
senders: against SMP-HS they share microblocks only with the leader, so
every proposal triggers a fetch storm; against S-HS they must reach an
ack quorum to be proposed at all, so fetching moves off the critical
path. Reported shapes:

* SMP-HS throughput falls and latency surges as attackers grow;
* S-HS throughput dips 20–30% at most and its latency stays flat;
* the 2f+1 PAB quorum (S-HS-2f) fetches less under attack than f+1
  (S-HS-f) at the cost of slower proof formation.

Scaled default: n = 31 and 61 with up to ~30% attackers on the paper's
1 Gb/s LAN; the offered rate is set so that the Byzantine fetch storm
(censored bodies x fetching replicas) exceeds one leader uplink, which
is the regime the paper measures. REPRO_BENCH_FULL=1 runs n = 100/200.
"""

import pytest

from repro import ExperimentConfig, tuned_protocol
from repro.harness.report import format_table

from _common import (
    censoring_senders, run_grid, run_once, scaled, write_result,
)

SIZES = scaled(default=[31, 61], full=[100, 200])
BYZ_FRACTIONS = (0.0, 0.1, 0.2, 0.3)
RATE = 60_000.0


def cell_config(preset: str, n: int, byz: int, quorum: str):
    f = (n - 1) // 3
    pab_quorum = {"f": f + 1, "2f": 2 * f + 1}.get(quorum)
    protocol = tuned_protocol(
        preset, n=n, topology_kind="lan",
        batch_bytes=64 * 1024, batch_timeout=0.6,
        **({"pab_quorum": pab_quorum} if pab_quorum else {}),
    )
    return ExperimentConfig(
        protocol=protocol, topology_kind="lan",
        rate_tps=RATE, duration=4.0, warmup=1.5, seed=5,
        faults=censoring_senders(n, byz),
        label=f"{preset}-{quorum}-n{n}-byz{byz}",
    )


VARIANTS = (
    ("SMP-HS", "SMP-HS", ""),
    ("S-HS-f", "S-HS", "f"),
    ("S-HS-2f", "S-HS", "2f"),
)


def sweep() -> tuple[str, dict]:
    cells = []
    configs = []
    for n in SIZES:
        f = (n - 1) // 3
        for label, preset, quorum in VARIANTS:
            for fraction in BYZ_FRACTIONS:
                byz = min(int(fraction * n), f)
                cells.append((n, label, fraction, byz))
                configs.append(cell_config(preset, n, byz, quorum))
    rows = []
    data: dict = {}
    for (n, label, fraction, byz), result in zip(cells, run_grid(configs)):
        goodput = result.committed_tx / max(result.emitted_tx, 1)
        data[(n, label, fraction)] = result
        rows.append([
            n, label, byz,
            f"{result.throughput_tps:,.0f}",
            f"{goodput * 100:.0f}%",
            f"{result.latency_mean * 1000:.0f}",
            result.view_changes,
            result.fetch_count,
        ])
    table = format_table(
        ["n", "protocol", "byz", "tput (tx/s)", "goodput", "lat (ms)",
         "view chg", "fetches"],
        rows,
        title="Fig. 8 — censoring Byzantine senders (1 Gb/s LAN)",
    )
    return table, data


@pytest.mark.benchmark(group="fig8")
def test_fig8_byzantine(benchmark):
    table, data = run_once(benchmark, sweep)
    write_result("fig8_byzantine", table)

    for n in SIZES:
        smp_clean = data[(n, "SMP-HS", 0.0)]
        smp_byz = data[(n, "SMP-HS", 0.3)]
        shs_clean = data[(n, "S-HS-f", 0.0)]
        shs_byz = data[(n, "S-HS-f", 0.3)]
        # SMP-HS latency surges under attack; S-HS stays flat.
        assert smp_byz.latency_mean > 2 * smp_clean.latency_mean
        assert shs_byz.latency_mean < 1.5 * shs_clean.latency_mean + 0.05
        # S-HS keeps goodput high; SMP-HS loses a visible chunk.
        shs_goodput = shs_byz.committed_tx / shs_byz.emitted_tx
        smp_goodput = smp_byz.committed_tx / smp_byz.emitted_tx
        assert shs_goodput > 0.9
        assert smp_goodput < shs_goodput
        # Larger quorum -> fewer replicas missing the body -> fewer fetches.
        fetch_f = data[(n, "S-HS-f", 0.3)].fetch_count
        fetch_2f = data[(n, "S-HS-2f", 0.3)].fetch_count
        assert fetch_2f < fetch_f
