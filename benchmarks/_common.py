"""Shared helpers for the benchmark suite.

Every bench regenerates one of the paper's tables or figures and writes
the rendered rows/series to ``benchmarks/results/<name>.txt`` (also
echoed to stdout). Network sizes are scaled down by default so the full
suite finishes in tens of minutes on a laptop; set ``REPRO_BENCH_FULL=1``
for paper-scale sweeps (much slower). EXPERIMENTS.md records the mapping
and the paper-vs-measured comparison.

Grid-style figures (5, 6, 8, 10) run their independent cells through
:func:`run_grid`; set ``REPRO_BENCH_JOBS=<N>`` to fan the cells out
across worker processes. Cell results — including commit hashes — are
bit-for-bit identical either way (see ``repro.parallel``).
"""

from __future__ import annotations

import os
from pathlib import Path

from repro import ExperimentConfig, run_experiment, tuned_protocol
from repro.faults import FaultSchedule, Window
from repro.parallel import sweep as parallel_sweep

RESULTS_DIR = Path(__file__).parent / "results"

FULL = os.environ.get("REPRO_BENCH_FULL", "") not in ("", "0")

BENCH_JOBS = int(os.environ.get("REPRO_BENCH_JOBS", "1") or "1")


def scaled(default: list, full: list) -> list:
    """Pick the scaled-down or paper-scale variant of a sweep axis."""
    return full if FULL else default


def write_result(name: str, text: str) -> None:
    """Persist a bench's rendered output and echo it."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(text + "\n")
    print(f"\n{text}\n[written to {path}]")


def censoring_senders(n: int, count: int):
    """Fig. 8's adversary: the ``count`` highest ids censor from t=0 (a
    ``swap`` window each, which also keeps them out of the leader set);
    None when ``count`` is 0."""
    if not count:
        return None
    return FaultSchedule([
        Window("swap", 0.0, nodes=(node,), behavior="censor")
        for node in range(n - count, n)
    ])


def capacity_config(
    preset: str,
    n: int,
    topology_kind: str,
    offered: float,
    duration: float = 2.5,
    warmup: float = 1.5,
    seed: int = 11,
    bandwidth_bps=None,
    **protocol_overrides,
) -> ExperimentConfig:
    """Config for a capacity measurement (overload drain rate)."""
    protocol = tuned_protocol(preset, n=n, topology_kind=topology_kind,
                              **protocol_overrides)
    return ExperimentConfig(
        protocol=protocol,
        topology_kind=topology_kind,
        bandwidth_bps=bandwidth_bps,
        rate_tps=offered,
        duration=duration,
        warmup=warmup,
        seed=seed,
        label=f"{preset}-n{n}-{topology_kind}",
    )


def rate_config(
    preset: str,
    n: int,
    topology_kind: str,
    rate: float,
    duration: float = 2.5,
    warmup: float = 1.0,
    seed: int = 11,
    bandwidth_bps=None,
    **protocol_overrides,
) -> ExperimentConfig:
    """Config for a fixed-rate (sub-capacity) measurement."""
    protocol = tuned_protocol(preset, n=n, topology_kind=topology_kind,
                              **protocol_overrides)
    return ExperimentConfig(
        protocol=protocol,
        topology_kind=topology_kind,
        bandwidth_bps=bandwidth_bps,
        rate_tps=rate,
        duration=duration,
        warmup=warmup,
        seed=seed,
        label=f"{preset}-n{n}-{topology_kind}-r{rate:.0f}",
    )


def measure_capacity(
    preset: str,
    n: int,
    topology_kind: str,
    offered: float,
    **kwargs,
):
    """Measure committed throughput under heavy offered load.

    ``offered`` should exceed the protocol's expected capacity; the
    committed rate then measures the drain rate, i.e. capacity.
    """
    return run_experiment(
        capacity_config(preset, n, topology_kind, offered, **kwargs)
    )


def measure_at_rate(
    preset: str,
    n: int,
    topology_kind: str,
    rate: float,
    **kwargs,
):
    """Measure throughput and latency at a fixed (sub-capacity) rate."""
    return run_experiment(
        rate_config(preset, n, topology_kind, rate, **kwargs)
    )


def run_grid(configs: list, jobs=None) -> list:
    """Run independent grid cells; ``RunResult`` list in order.

    ``jobs=None`` defers to ``REPRO_BENCH_JOBS`` (default 1 = serial,
    in-process). Either way a cell's result makes the same
    ``to_dict``/``from_dict`` trip a worker's would, so a figure's
    numbers do not depend on how it was executed.
    """
    return parallel_sweep(configs, jobs=BENCH_JOBS if jobs is None else jobs)


def run_once(benchmark, fn):
    """Run ``fn`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)
