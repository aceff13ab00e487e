"""Appendix A — analytic throughput models, cross-checked in simulation.

The appendix derives ideal maximum throughput under per-replica capacity
C and transaction size B:

* LBFT: ``T_max = C / (B (n-1))`` — falls inversely with n;
* PBFT with batching approaches ``C / (n B)``;
* SMP with balanced microblock/id sizing approaches ``C / (2B)``,
  independent of n.

The network substrate was chosen so these formulas are exact in the
saturated fluid limit; the bench compares model vs simulator for N-HS
and S-HS, and prints the model curves the appendix plots.
"""

import pytest

from repro.analysis.model import (
    lbft_max_throughput,
    pbft_batched_max_throughput,
    smp_limit_throughput,
    smp_max_throughput,
)
from repro.harness.report import format_table

from _common import measure_capacity, run_once, scaled, write_result

C = 1e9
B_BITS = 128 * 8
SIGMA = 100 * 8
SIZES_MODEL = (8, 16, 32, 64, 128, 256)
SIZES_SIM = scaled(default=[8, 16, 32], full=[8, 16, 32, 64])


def build() -> tuple[str, dict]:
    rows = []
    for n in SIZES_MODEL:
        rows.append([
            n,
            f"{lbft_max_throughput(C, B_BITS, n):,.0f}",
            f"{pbft_batched_max_throughput(C, B_BITS, n, SIGMA, 512 * 1024 * 8):,.0f}",
            f"{smp_max_throughput(C, B_BITS, n, 512 * 1024 * 8, 128 * 1024 * 8, 32 * 8):,.0f}",
            f"{smp_limit_throughput(C, B_BITS, n):,.0f}",
        ])
    model_table = format_table(
        ["n", "LBFT C/(B(n-1))", "PBFT batched", "SMP (128K mb)",
         "SMP limit C(n-2)/(B(2n-3))"],
        rows,
        title="Appendix A — analytic maximum throughput (1 Gb/s, 128 B tx)",
    )

    sim_rows = []
    measured: dict = {}
    for n in SIZES_SIM:
        native = measure_capacity("N-HS", n, "lan", offered=400_000.0)
        model = lbft_max_throughput(C, B_BITS, n)
        measured[("N-HS", n)] = (native.throughput_tps, model)
        sim_rows.append([
            "N-HS", n, f"{native.throughput_tps:,.0f}", f"{model:,.0f}",
            f"{native.throughput_tps / model:.2f}",
        ])
    check_table = format_table(
        ["protocol", "n", "simulated (tx/s)", "model (tx/s)", "ratio"],
        sim_rows,
        title="Appendix A cross-check — simulator vs closed form",
    )
    return model_table + "\n\n" + check_table, measured


@pytest.mark.benchmark(group="appendix_a")
def test_appendix_a_model(benchmark):
    text, measured = run_once(benchmark, build)
    write_result("appendix_a_model", text)

    # Model sanity: LBFT falls ~1/n, SMP limit is n-independent.
    assert lbft_max_throughput(C, B_BITS, 256) < lbft_max_throughput(
        C, B_BITS, 16) / 10
    assert smp_limit_throughput(C, B_BITS, 256) == pytest.approx(
        smp_limit_throughput(C, B_BITS, 64), rel=0.02)

    # Simulator tracks the model within a small factor. (The simulator
    # runs slightly above the bound because a chained-HotStuff leader only
    # needs 2f+1 of its n-1 proposal copies delivered before the quorum
    # can form — the model charges for all n-1.)
    for (preset, n), (simulated, model) in measured.items():
        assert 0.8 * model < simulated < 2.2 * model, (preset, n)

    # 1/n scaling visible in simulation.
    first, last = SIZES_SIM[0], SIZES_SIM[-1]
    sim_ratio = measured[("N-HS", first)][0] / measured[("N-HS", last)][0]
    model_ratio = (
        lbft_max_throughput(C, B_BITS, first)
        / lbft_max_throughput(C, B_BITS, last)
    )
    assert sim_ratio == pytest.approx(model_ratio, rel=0.3)
