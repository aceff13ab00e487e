"""The ledger's eight workloads.

Every workload is sized for ``--seconds 5`` (``BENCHMARK.json``'s
``run_seconds``); other values scale the measured horizon linearly, so
``--seconds`` fixes the amount of work and a run on the reference host
measures for about that long. ``--seed K`` is added to each base seed.

Simulated horizons are the issue's, cut to fit the driver's time cap
(180 runs in 57 minutes): ``shs-lan-128`` and ``shs-wan-skew-crash-16``
keep theirs, because re-commits only start after ~2.5 sim-s at n=128
and the crash cell commits again 7.65 sim-s in; the others shrink.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from repro.config import ProtocolConfig, ShardingConfig
from repro.harness import (
    ExperimentConfig,
    NetBenchConfig,
    chaos_schedule,
    tuned_protocol,
)

#: ``--seconds`` the horizons below are sized for.
REFERENCE_SECONDS = 5.0


@dataclass(frozen=True)
class Workload:
    name: str
    #: Which runner measures it: protocol | netbench | live | wire | wal.
    kind: str
    #: The clock its results are read on: sim | wall (see LEDGER_BOUNDS).
    clock: str
    #: ``build(seed_offset, scale)`` -> the kind's configuration object.
    build: Callable[[int, float], object]


def live_protocol() -> ProtocolConfig:
    """The n=4 configuration ``live-shs-tcp-4`` runs over TCP; the wire
    workload records its traffic and the simulator counts its calls."""
    return ProtocolConfig(
        n=4, mempool="stratus", consensus="hotstuff",
        batch_bytes=8192, batch_timeout=0.05, view_timeout=0.5,
    )


def live_experiment(seed: int, duration: float) -> ExperimentConfig:
    return ExperimentConfig(
        live_protocol(), rate_tps=20_000, warmup=1.0, duration=duration,
        seed=23 + seed,
    )


def _shs_lan_16(seed: int, scale: float) -> ExperimentConfig:
    return ExperimentConfig(
        tuned_protocol("S-HS", 16, "lan"),
        rate_tps=20_000, warmup=1.0, duration=12.0 * scale, seed=1 + seed,
    )


def _shs_lan_128(seed: int, scale: float) -> ExperimentConfig:
    return ExperimentConfig(
        tuned_protocol("S-HS", 128, "lan"),
        rate_tps=250_000, workload_mode="aggregate",
        offered_clients=1_000_000,
        warmup=1.0, duration=3.0 * scale, seed=1 + seed,
    )


def _sshs_lan_64x4(seed: int, scale: float) -> ExperimentConfig:
    return ExperimentConfig(
        tuned_protocol(
            "SS-HS", 64, "lan", batch_bytes=262_144, batch_timeout=1.0,
            sharding=ShardingConfig(shards=4),
        ),
        bandwidth_bps=100e6, rate_tps=128_000, workload_mode="aggregate",
        warmup=1.5, duration=6.0 * scale, seed=1 + seed,
    )


def _shs_wan_skew_crash_16(seed: int, scale: float) -> ExperimentConfig:
    return ExperimentConfig(
        tuned_protocol(
            "S-HS", 16, "wan", batch_bytes=16_384, batch_timeout=0.1,
            lb_samples=3,
        ),
        topology_kind="wan", link_model="fair-share", selector="zipf1",
        rate_tps=30_000, faults=chaos_schedule("crash-restart", 16),
        warmup=1.0, duration=9.0 * scale, seed=7 + seed,
    )


def _disseminate_128(seed: int, scale: float) -> NetBenchConfig:
    # The bench draws nothing from its seed (zero jitter), and the driver
    # wants inputs made from --seed, so the seed picks the message delay:
    # a rack's one-way propagation, 90-110 us (the default is 100).
    delay = random.Random(7 + seed).uniform(0.9e-4, 1.1e-4)
    return NetBenchConfig(
        n=128, msg_bytes=131_072, rate_per_node=100,
        duration=2.0 * scale, seed=7 + seed, one_way_delay=delay,
    )


def _live_shs_tcp_4(seed: int, scale: float) -> ExperimentConfig:
    # Below one second the 50 ms batch timer leaves too few commits.
    return live_experiment(seed, max(1.0, REFERENCE_SECONDS * scale))


def _scale_only(seed: int, scale: float) -> tuple[int, float]:
    return seed, scale


#: Transactions per block of ``wal-apply-replay`` (one microblock each).
WAL_TX_PER_BLOCK = 64


def wal_blocks_per_s() -> float:
    """The rate ``wal-apply-replay`` offers blocks at: the transaction
    rate of the ledger's fastest under-capacity cell, ``sshs-lan-64x4``
    (128,000 tx/s offered, 129,067 committed), in blocks of 64."""
    return _sshs_lan_64x4(0, 1.0).rate_tps / WAL_TX_PER_BLOCK


WORKLOADS: dict[str, Workload] = {
    workload.name: workload for workload in (
        Workload("shs-lan-16", "protocol", "sim", _shs_lan_16),
        Workload("shs-lan-128", "protocol", "sim", _shs_lan_128),
        Workload("sshs-lan-64x4", "protocol", "sim", _sshs_lan_64x4),
        Workload("shs-wan-skew-crash-16", "protocol", "sim",
                 _shs_wan_skew_crash_16),
        Workload("disseminate-128", "netbench", "sim", _disseminate_128),
        Workload("live-shs-tcp-4", "live", "wall", _live_shs_tcp_4),
        Workload("live-wire-pair", "wire", "wall", _scale_only),
        Workload("wal-apply-replay", "wal", "wall", _scale_only),
    )
}

#: The ledger's own bounds, per clock, for ``run.py --against``: the share
#: of the parent's median by which a metric may worsen *at the same seed*.
#: ``BENCHMARK.json`` can hold one bound per metric for all eight
#: workloads, sized by the noisiest of them across seeds; at one seed a
#: simulated result or a call count repeats to the last digit, so 1 %
#: there is already a real change (``EXACT``). Wall-clock results at a
#: fixed rate and host quantities (RSS, set-up) get what their run-to-run
#: spread allows, and no verdict from fewer than three runs.
EXACT = 0.01
LEDGER_BOUNDS: dict[str, dict[str, float]] = {
    "sim": {
        "setup_s": 0.25, "goodput_ops_per_s": EXACT, "latency_p50_ms": EXACT,
        "completed_share": EXACT, "unique_commit_share": EXACT,
        "events_per_op": EXACT, "py_calls_per_op": EXACT, "peak_rss_mb": 0.10,
    },
    "wall": {
        "setup_s": 0.25, "goodput_ops_per_s": 0.05, "latency_p50_ms": 0.10,
        "completed_share": EXACT, "unique_commit_share": EXACT,
        "events_per_op": 0.05, "py_calls_per_op": EXACT, "peak_rss_mb": 0.10,
    },
}
