"""Live smoke bench: real tps/latency on localhost TCP, next to the
simulated numbers for the same protocol settings.

Runs HotStuff with the Stratus and native mempools as 4 real OS
processes over asyncio TCP (see :mod:`repro.live`), then runs the
identical :class:`ExperimentConfig` through the discrete-event
simulator, and writes both sets of numbers to ``BENCH_live.json`` in
pytest's ``tmp_path`` (a run must not touch the checkout).
The two columns are *not* expected to match — the simulator models a
configured topology while the live run measures this machine's loopback
and scheduler — but they share the protocol code, the workload math,
and the safety bar, which is the point of the comparison.

Usage::

    PYTHONPATH=src python -m pytest benchmarks/live/test_live_smoke.py -q

or directly: ``PYTHONPATH=src python benchmarks/live/test_live_smoke.py``.
"""

from __future__ import annotations

import json
import platform
import sys
import tempfile
import time
from pathlib import Path

from repro.config import ProtocolConfig
from repro.harness import ExperimentConfig, format_table, run_experiment
from repro.live import LiveConfig, run_live

#: (mempool, consensus) pairs matching the acceptance criteria.
VARIANTS = [("stratus", "hotstuff"), ("native", "hotstuff")]

RATE_TPS = 1_000.0
DURATION = 3.0
WARMUP = 1.0


def _config(mempool: str, consensus: str) -> ExperimentConfig:
    return ExperimentConfig(
        protocol=ProtocolConfig(n=4, mempool=mempool, consensus=consensus),
        rate_tps=RATE_TPS,
        duration=DURATION,
        warmup=WARMUP,
        seed=11,
        label=f"{mempool}/{consensus}-n4",
    )


def _measure(mempool: str, consensus: str) -> dict:
    config = _config(mempool, consensus)
    live = run_live(LiveConfig(experiment=config))
    sim = run_experiment(_config(mempool, consensus))
    return {
        "label": config.label,
        "live": {
            "throughput_tps": live.throughput_tps,
            "latency_mean_ms": live.latency.mean * 1000,
            "latency_p99_ms": live.latency.percentile(99) * 1000,
            "committed_blocks": live.committed_blocks,
            "committed_tx": live.committed_tx,
            "emitted_tx": live.emitted_tx,
            "violations": [v.to_dict() for v in live.violations],
            "wall_clock_s": live.wall_clock_s,
            "per_replica": live.per_replica,
        },
        "sim": {
            "throughput_tps": sim.throughput_tps,
            "latency_mean_ms": sim.latency_mean * 1000,
            "latency_p99_ms": sim.latency_percentile(99) * 1000,
            "committed_tx": sim.committed_tx,
        },
    }


def test_live_smoke_bench(tmp_path):
    rows = []
    document = {
        "schema": "BENCH_live/1",
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "offered_tps": RATE_TPS,
        "duration_s": DURATION,
        "variants": {},
    }
    for mempool, consensus in VARIANTS:
        entry = _measure(mempool, consensus)
        document["variants"][entry["label"]] = entry
        rows.append([
            entry["label"],
            f"{entry['live']['throughput_tps']:,.0f}",
            f"{entry['live']['latency_mean_ms']:.1f}",
            f"{entry['live']['latency_p99_ms']:.1f}",
            f"{entry['sim']['throughput_tps']:,.0f}",
            f"{entry['sim']['latency_mean_ms']:.1f}",
            entry["live"]["committed_blocks"],
        ])
        assert entry["live"]["committed_blocks"] >= 1, entry["label"]
        assert entry["live"]["violations"] == [], entry["label"]

    bench_path = tmp_path / "BENCH_live.json"
    bench_path.write_text(json.dumps(document, indent=2) + "\n")
    print()
    print(format_table(
        ["variant", "live tps", "live lat (ms)", "live p99 (ms)",
         "sim tps", "sim lat (ms)", "live blocks"],
        rows,
        title=f"live vs sim @ {RATE_TPS:,.0f} tx/s offered, "
              f"{DURATION:.0f}s window (n=4, localhost)",
    ))
    print(f"[written to {bench_path}]")


if __name__ == "__main__":
    test_live_smoke_bench(Path(tempfile.mkdtemp(prefix="live-smoke-")))
