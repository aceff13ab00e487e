"""Sharded vs. unsharded Stratus scalability bench.

Usage::

    PYTHONPATH=src python benchmarks/perf/run_sharding.py \
        [--out benchmarks/perf/BENCH_sharding.json] [--quick] [--jobs N]

Sweeps n in {16, 32, 64, 128} for unsharded Stratus/HotStuff ("S-HS")
and sharded Stratus ("SS-HS") at shard counts {1, 2, 4, 8}, with every
replica offering 500 tps into 25 Mb/s links. The capacity math is the
point of the grid: an unsharded replica must receive every microblock
body, so committed throughput flattens near bandwidth/tx_size
(~24.6k tps) once n*500 crosses it at n=64. A shard member only
receives its own shard's bodies — consensus carries certificates — so
the s-shard ceiling is ~s times higher and the committed-tps slope
keeps climbing through n=128.

Every cell runs with the full oracle suite armed (including the
per-shard availability/conservation checks), in the worker when
``--jobs`` fans out. The report embeds per-series slopes and a
``checks`` block; the process exits non-zero if any check fails:

* ``slope``    — committed-tps slope over each segment starting at
  n >= 64 is strictly higher for 4 and 8 shards than unsharded;
* ``bytes``    — mean per-replica bytes on the wire are non-increasing
  in shard count at every n, strictly decreasing at n >= 64;
* ``oracles``  — zero violations at every measured point;
* ``equal``    — one shard is unsharded Stratus: the ``unsharded`` and
  ``shards1`` cells have equal commit hashes and bytes per replica at
  every n.
"""

from __future__ import annotations

import argparse
import json
import platform
import time
from pathlib import Path
from typing import Optional

from repro.config import ShardingConfig
from repro.harness import ExperimentConfig, tuned_protocol
from repro.parallel import run_configs

DEFAULT_OUT = Path(__file__).resolve().parent / "BENCH_sharding.json"

#: Replica counts the paper's scalability figures sweep.
N_GRID = (16, 32, 64, 128)
#: Shard counts for the SS-HS series; None = unsharded S-HS.
SHARD_GRID = (None, 1, 2, 4, 8)

#: Per-replica offered load (tps) — total offered = n * RATE_PER_REPLICA,
#: so the workload grows with the committee like the paper's figure 6.
#: At 128 B/tx each origin emits 256 KB/s of body bytes.
RATE_PER_REPLICA = 2000.0
#: Deliberately tight links (100 Mb/s): an unsharded replica receives
#: every body, n * 2.05 Mb/s, which crosses link capacity between n=32
#: (66 Mb/s) and n=64 (131 Mb/s) — the unsharded series collapses
#: there. A shard member receives only its shard's bodies,
#: (n/s) * 2.05 Mb/s, so the 4- and 8-shard series stay under capacity
#: through n=128 and their committed-tps slope keeps climbing.
BANDWIDTH_BPS = 100e6
DURATION = 2.5
WARMUP = 1.5
SEED = 1
#: One certificate per origin per second (fill time just above the
#: flush timeout): the leader's per-round broadcast re-sends every
#: pending certificate n-1 times, so the sustainable certificate rate —
#: n * rate * cert_bytes * (n-1) bits/s — is the scaling limit the
#: batch knobs must respect, not body bandwidth.
BATCH_BYTES = 262_144
BATCH_TIMEOUT = 1.0

#: n at and above which the capacity gap must show up *strictly*: below
#: the saturation point (and with shard_size floored at 4 members, so
#: e.g. shards=4 and shards=8 at n=16 build the same-size shards) the
#: series legitimately tie.
STRICT_N = 64


def series_key(shards: Optional[int]) -> str:
    return "unsharded" if shards is None else f"shards{shards}"


def cell_label(n: int, shards: Optional[int]) -> str:
    if shards is None:
        return f"stratus-n{n}"
    return f"sharded{shards}-n{n}"


def build_cell_config(
    n: int, shards: Optional[int], scale: float = 1.0
) -> ExperimentConfig:
    """One measured point: fixed seed, tight links, aggregate workload."""
    overrides: dict = {
        "batch_bytes": BATCH_BYTES,
        "batch_timeout": BATCH_TIMEOUT,
    }
    preset = "S-HS"
    if shards is not None:
        preset = "SS-HS"
        overrides["sharding"] = ShardingConfig(shards=shards)
    protocol = tuned_protocol(preset, n=n, topology_kind="lan", **overrides)
    return ExperimentConfig(
        protocol=protocol,
        topology_kind="lan",
        bandwidth_bps=BANDWIDTH_BPS,
        rate_tps=n * RATE_PER_REPLICA,
        duration=max(0.5, DURATION * scale),
        warmup=WARMUP,
        seed=SEED,
        link_model="serial",
        workload_mode="aggregate",
        label=cell_label(n, shards),
    )


def grid(scale: float) -> list:
    """(n, shards, config) for every cell, n-major for readable logs."""
    return [
        (n, shards, build_cell_config(n, shards, scale))
        for n in N_GRID
        for shards in SHARD_GRID
    ]


def cell_entry(n: int, shards: Optional[int], summary: dict) -> dict:
    """Flatten one worker's ``RunResult.to_dict()`` into the cell schema."""
    return {
        "n": n,
        "shards": shards,
        "committed_tx": summary["committed_tx"],
        "throughput_tps": round(summary["throughput_tps"], 1),
        # Mean per-replica link load; the number the certificate-only
        # proposals are supposed to push down as shards go up.
        "bytes_per_replica": round(summary["net_bytes_sent"] / n, 1),
        "commit_hash": summary["commit_hash"],
        "violations": summary["violations"],
        "events": summary["events_processed"],
        "wall_s": round(summary["wall_clock_s"], 4),
    }


def slopes_of(series: dict) -> dict:
    """Committed-tps slope (tps per added replica) per n-segment."""
    out = {}
    ns = sorted(series)
    for lo, hi in zip(ns, ns[1:]):
        out[f"{lo}-{hi}"] = round((series[hi] - series[lo]) / (hi - lo), 3)
    return out


def run_checks(cells: dict, slopes: dict) -> dict:
    """The acceptance gates; each maps to a bool plus a detail string."""
    checks: dict = {}

    # 1. Zero oracle violations at every measured point.
    violating = sorted(
        label for label, cell in cells.items() if cell["violations"]
    )
    checks["oracles"] = {
        "ok": not violating,
        "detail": "no violations" if not violating
        else f"violations in {violating}",
    }

    # 2. Committed-tps slope: sharded (s >= 4) beats unsharded on every
    # segment starting at or beyond the saturation point. Below it both
    # series track offered load, so their slopes legitimately tie.
    failures = []
    for lo, hi in zip(N_GRID, N_GRID[1:]):
        if lo < STRICT_N:
            continue
        segment = f"{lo}-{hi}"
        base = slopes["unsharded"][segment]
        for shards in (4, 8):
            got = slopes[series_key(shards)][segment]
            if not got > base:
                failures.append(
                    f"{segment}: shards={shards} slope {got} <= "
                    f"unsharded {base}"
                )
    checks["slope"] = {
        "ok": not failures,
        "detail": "sharded slope beats unsharded on every segment starting "
        f"at n>={STRICT_N}" if not failures else "; ".join(failures),
    }

    # 3. Per-replica bytes fall as shard count rises: non-increasing
    # everywhere, strictly decreasing once n reaches saturation scale.
    failures = []
    ladder = [s for s in SHARD_GRID if s is not None]
    for n in N_GRID:
        strict = n >= STRICT_N
        series = [
            (s, cells[cell_label(n, s)]["bytes_per_replica"]) for s in ladder
        ]
        for (s_lo, b_lo), (s_hi, b_hi) in zip(series, series[1:]):
            # Below saturation scale, adjacent shard counts can build
            # identical-size shards (the 4-member floor), so allow noise
            # around a tie; at n >= STRICT_N the drop must be real.
            bad = b_hi > b_lo * 1.02 if not strict else b_hi >= b_lo
            if bad:
                op = ">" if not strict else ">="
                failures.append(
                    f"n={n}: bytes/replica shards={s_hi} ({b_hi:,.0f}) "
                    f"{op} shards={s_lo} ({b_lo:,.0f})"
                )
    checks["bytes"] = {
        "ok": not failures,
        "detail": "per-replica bytes fall with shard count"
        if not failures else "; ".join(failures),
    }

    # 4. One shard is the unsharded run: same commits, same bytes.
    failures = []
    for n in N_GRID:
        flat, one = cells[cell_label(n, None)], cells[cell_label(n, 1)]
        for key in ("commit_hash", "bytes_per_replica"):
            if flat[key] != one[key]:
                failures.append(
                    f"n={n}: {key} unsharded {flat[key]} != "
                    f"shards1 {one[key]}"
                )
    checks["equal"] = {
        "ok": not failures,
        "detail": "shards1 equals unsharded at every n"
        if not failures else "; ".join(failures),
    }
    return checks


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="run_sharding", description=__doc__.splitlines()[0]
    )
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT,
                        help="output JSON path")
    parser.add_argument("--quick", action="store_true",
                        help="halve measurement windows (CI smoke)")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="run cells in N worker processes; per-cell "
                             "numbers and commit hashes are identical to "
                             "--jobs 1")
    args = parser.parse_args(argv)

    scale = 0.5 if args.quick else 1.0
    work = grid(scale)
    print(f"[sharding] {len(work)} cell(s), jobs={args.jobs}, "
          f"quick={args.quick}", flush=True)
    started = time.perf_counter()
    summaries = []
    results = run_configs(
        (config for _, _, config in work), args.jobs, oracles=True,
    )
    try:
        for (n, shards, _), result in zip(work, results):
            summaries.append(result.to_dict())
            print(f"[sharding]   {cell_label(n, shards)}: "
                  f"{result.committed_tx} tx committed", flush=True)
    except RuntimeError as exc:
        raise SystemExit(f"[sharding] {exc}")
    elapsed = time.perf_counter() - started

    cells = {}
    series: dict = {}
    for (n, shards, _), summary in zip(work, summaries):
        entry = cell_entry(n, shards, summary)
        cells[cell_label(n, shards)] = entry
        series.setdefault(series_key(shards), {})[n] = entry["throughput_tps"]

    slopes = {key: slopes_of(points) for key, points in series.items()}
    checks = run_checks(cells, slopes)
    ok = all(check["ok"] for check in checks.values())

    report = {
        "schema": "BENCH_sharding/1",
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "quick": args.quick,
        "jobs": args.jobs,
        "rate_per_replica_tps": RATE_PER_REPLICA,
        "bandwidth_bps": BANDWIDTH_BPS,
        "elapsed_wall_s": round(elapsed, 4),
        "cells": cells,
        "throughput_by_series": series,
        "slopes": slopes,
        "checks": checks,
        "ok": ok,
    }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(report, indent=2) + "\n")

    for n in N_GRID:
        row = "  ".join(
            f"{series_key(s)}={cells[cell_label(n, s)]['throughput_tps']:>9,.0f}"
            for s in SHARD_GRID
        )
        print(f"[sharding] n={n:>3}: {row}", flush=True)
    for name, check in checks.items():
        print(f"[sharding] check {name}: "
              f"{'OK' if check['ok'] else 'FAIL'} — {check['detail']}")
    print(f"[sharding] written to {args.out} "
          f"({elapsed:.1f}s wall)", flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
