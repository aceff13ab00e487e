"""Ablation — PAB recovery parameters (Algorithm 2) and quorum q.

Two dials the paper calls out:

* the stability quorum ``q`` trades push-phase latency (more acks to
  wait for) against recovery efficiency (more signers hold the body) —
  Section IV-A and the S-HS-f vs S-HS-2f variants of Fig. 8;
* the recovery fetch sampling (share of signers asked per delta round)
  trades fetch traffic against recovery time.

Both are exercised under censoring senders, which force recovery onto
the fetch path.
"""

import pytest

from repro import ExperimentConfig, run_experiment, tuned_protocol
from repro.harness.report import format_table

from _common import censoring_senders, run_once, write_result

N = 31
F = (N - 1) // 3
RATE = 20_000.0


def run(pab_quorum: int, sample_fraction: float, byz: int = 0):
    protocol = tuned_protocol(
        "S-HS", n=N, topology_kind="lan",
        batch_bytes=64 * 1024, batch_timeout=0.2,
        pab_quorum=pab_quorum, fetch_sample_fraction=sample_fraction,
    )
    return run_experiment(ExperimentConfig(
        protocol=protocol, topology_kind="lan", bandwidth_bps=100e6,
        rate_tps=RATE, duration=4.0, warmup=1.5, seed=21,
        faults=censoring_senders(N, byz),
        label=f"q{pab_quorum}-a{sample_fraction}-byz{byz}",
    ))


@pytest.mark.benchmark(group="ablation")
def test_ablation_recovery(benchmark):
    def sweep():
        data = {}
        for quorum in (F + 1, 2 * F + 1):
            data[("clean", quorum)] = run(quorum, 0.25)
        for fraction in (0.1, 0.5, 1.0):
            data[("byz", fraction)] = run(F + 1, fraction, byz=F)
        return data

    data = run_once(benchmark, sweep)

    rows = []
    for key, result in data.items():
        mode, value = key
        rows.append([
            mode, value,
            f"{result.throughput_tps:,.0f}",
            f"{result.metrics.stable_times.mean * 1000:.1f}",
            f"{result.latency_mean * 1000:.0f}",
            result.metrics.fetch_count,
        ])
    table = format_table(
        ["mode", "q / alpha", "tput (tx/s)", "stable time (ms)",
         "lat (ms)", "fetches"],
        rows,
        title=f"Ablation — PAB quorum and recovery sampling (S-HS, n={N})",
    )
    write_result("ablation_recovery", table)

    # Larger quorum -> slower proof formation (more acks to wait for).
    small_q = data[("clean", F + 1)]
    large_q = data[("clean", 2 * F + 1)]
    assert (large_q.metrics.stable_times.mean
            > small_q.metrics.stable_times.mean)
    # More aggressive sampling sends more fetch requests per recovery.
    assert (data[("byz", 1.0)].metrics.fetch_count
            > data[("byz", 0.1)].metrics.fetch_count)
    # All variants still commit ~everything offered.
    for result in data.values():
        assert result.committed_tx / result.emitted_tx > 0.9
