"""Scaled-down versions of the paper's headline experiments.

Each test reproduces the *mechanism* behind a figure at a size that runs
in seconds; the full-scale sweeps live in ``benchmarks/``.
"""

import pytest

from repro import ExperimentConfig, run_experiment, tuned_protocol
from repro.faults import FaultSchedule, Window

from tests.helpers import byzantine_schedule


def run_fluctuation(preset: str) -> tuple:
    """Fig. 7 setup: WAN, 25K tx/s, 1 s view timer, 5 s disturbance."""
    protocol = tuned_protocol(
        preset, n=32, topology_kind="wan", view_timeout=1.0,
        batch_bytes=32 * 1024, batch_timeout=0.4,
    )
    result = run_experiment(ExperimentConfig(
        protocol=protocol, topology_kind="wan", rate_tps=25_000,
        duration=13.0, warmup=1.0, seed=3, label=preset,
        faults=FaultSchedule([
            Window("delay", 4.0, 9.0, base=0.1, jitter=0.05),
            Window("bandwidth", 4.0, 9.0, factor=0.15),
        ]),
    ))
    hub = result.metrics
    return (
        hub.throughput_tps(2.0, 4.0),    # before
        hub.throughput_tps(4.5, 9.0),    # during
        hub.throughput_tps(10.0, 14.0),  # after
        result.view_changes,
    )


@pytest.mark.slow
def test_fig7_simple_smp_collapses_under_asynchrony():
    before, during, after, view_changes = run_fluctuation("SMP-HS")
    assert during < 0.2 * before       # throughput collapses
    assert view_changes > 20           # view-change storm
    assert after > 0.8 * before        # recovers afterwards


@pytest.mark.slow
def test_fig7_stratus_degrades_gracefully():
    before, during, after, view_changes = run_fluctuation("S-HS")
    assert during > 0.1 * before       # keeps making progress
    assert view_changes < 10           # no view-change storm
    assert after > before              # drains the backlog quickly


@pytest.mark.slow
def test_fig7_stratus_beats_simple_during_asynchrony():
    _, smp_during, _, smp_vc = run_fluctuation("SMP-HS")
    _, shs_during, _, shs_vc = run_fluctuation("S-HS")
    assert shs_during > 2 * smp_during
    assert shs_vc < smp_vc / 4


def run_byzantine(preset: str, byz: int, n: int = 31, **overrides):
    """Fig. 8 setup: LAN, censoring senders, near-saturating load.

    Links are throttled to 100 Mb/s so saturation is reachable at a
    simulation-friendly rate; the mechanism (fetch storms at the
    proposer) is identical at 1 Gb/s with proportionally higher load.
    """
    protocol = tuned_protocol(
        preset, n=n, topology_kind="lan",
        batch_bytes=64 * 1024, batch_timeout=0.2, **overrides,
    )
    result = run_experiment(ExperimentConfig(
        protocol=protocol, topology_kind="lan", bandwidth_bps=100e6,
        rate_tps=40_000, duration=4.0, warmup=1.5, seed=5,
        faults=byzantine_schedule(n, byz, "censor") if byz else None,
        label=f"{preset}-byz{byz}",
    ))
    return result


@pytest.mark.slow
def test_fig8_byzantine_senders_hurt_simple_smp_more():
    smp_byz = run_byzantine("SMP-HS", 9)
    shs_clean = run_byzantine("S-HS", 0)
    shs_byz = run_byzantine("S-HS", 9)
    # Stratus keeps committing nearly everything offered; the simple SMP
    # loses a chunk of goodput to the fetch storms.
    smp_goodput = smp_byz.committed_tx / smp_byz.emitted_tx
    shs_goodput = shs_byz.committed_tx / shs_byz.emitted_tx
    assert shs_goodput > 0.9
    assert smp_goodput < shs_goodput - 0.1
    # Simple SMP latency inflates sharply; Stratus stays flat: consensus
    # never waits on missing microblocks (PAB-Provable Availability).
    assert smp_byz.latency_mean > 2 * shs_byz.latency_mean
    assert shs_byz.latency_mean < 1.5 * shs_clean.latency_mean + 0.05


@pytest.mark.slow
def test_fig8_larger_pab_quorum_reduces_fetches():
    f = (31 - 1) // 3
    small_q = run_byzantine("S-HS", 9, pab_quorum=f + 1)
    large_q = run_byzantine("S-HS", 9, pab_quorum=2 * f + 1)
    assert large_q.metrics.fetch_count < small_q.metrics.fetch_count


def run_skewed(preset: str, d: int = 1, n: int = 16, **overrides):
    """Fig. 10 setup: WAN, Zipf-1 skew, offered load above the hottest
    replica's solo dissemination capacity (~23K tx/s here)."""
    protocol = tuned_protocol(
        preset, n=n, topology_kind="wan",
        batch_bytes=16 * 1024, batch_timeout=0.1, lb_samples=d, **overrides,
    )
    return run_experiment(ExperimentConfig(
        protocol=protocol, topology_kind="wan", rate_tps=30_000,
        duration=6.0, warmup=3.0, seed=7, selector="zipf1",
        label=f"{preset}-d{d}",
    ))


@pytest.mark.slow
def test_fig10_load_balancing_helps_under_skew():
    stratus = run_skewed("S-HS", d=3)
    simple = run_skewed("SMP-HS")
    assert stratus.throughput_tps > simple.throughput_tps
    assert stratus.metrics.forwarded_microblocks > 0


@pytest.mark.slow
def test_fig10_dlb_on_commits_more_than_dlb_off():
    on = run_skewed("S-HS", d=3)
    off = run_skewed("S-HS", d=3, load_balancing=False)
    assert off.metrics.forwarded_microblocks == 0
    assert on.throughput_tps >= 1.05 * off.throughput_tps
