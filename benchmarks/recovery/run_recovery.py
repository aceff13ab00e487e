"""Recovery benchmark: how fast a durable replica comes back from disk.

Three sections, all over :class:`repro.durability.DurableKVStore`:

* ``micro`` — apply N blocks under each fsync policy (``always`` /
  ``interval`` / ``off``), then re-open the store twice: once with the
  checkpoint in place (recover = install checkpoint + short WAL tail)
  and once with checkpointing disabled (recover = full WAL replay).
  Reports apply throughput, recovery_time, wal_replay_blocks_per_sec
  and checkpoint_bytes per policy.
* ``sim_crash_restart`` — the n=4 crash-restart chaos preset on the
  simulator with the durable executor attached; asserts the victim's
  recovery came from its own disk and records the recovery report.
* ``live_crash_restart`` (full mode only) — the same preset on the
  asyncio-TCP runtime: replica 3 is SIGKILLed at t=2 s and respawned at
  t=4 s over the same data dir; the respawned generation must report a
  disk recovery source.

Usage::

    PYTHONPATH=src python benchmarks/recovery/run_recovery.py          # full
    PYTHONPATH=src python benchmarks/recovery/run_recovery.py --quick  # CI

``--quick`` shrinks the micro block count and skips the live section so
the CI smoke job finishes inside its timeout; the JSON document is
written either way (``quick: true`` marks reduced runs).
"""

from __future__ import annotations

import argparse
import json
import platform
import shutil
import sys
import tempfile
import time
from pathlib import Path

from repro.config import ProtocolConfig
from repro.crypto import GENESIS_QC
from repro.durability import DurabilityConfig, DurableKVStore
from repro.harness import ExperimentConfig, format_table
from repro.harness.presets import chaos_schedule
from repro.harness.runner import build_experiment
from repro.types import MicroBlock, make_microblock_id
from repro.types.proposal import Block, Payload, PayloadEntry, Proposal
from repro.verification import standard_suite

BENCH_PATH = Path(__file__).resolve().parent / "BENCH_recovery.json"

FSYNC_POLICIES = ("always", "interval", "off")

MICRO_BLOCKS = 2_000
MICRO_BLOCKS_QUICK = 300
CHECKPOINT_INTERVAL = 128
TX_PER_BLOCK = 64


def _make_block(counter: int) -> Block:
    mb = MicroBlock(
        id=make_microblock_id(1, counter),
        origin=1, tx_count=TX_PER_BLOCK, tx_payload=128,
        created_at=0.0, sum_arrival=0.0,
    )
    proposal = Proposal(
        block_id=counter + 1, view=counter + 1, height=counter + 1,
        proposer=1, parent_id=counter, justify=GENESIS_QC,
        payload=Payload(entries=(PayloadEntry(mb_id=mb.id),)),
    )
    return Block(proposal=proposal, microblocks={mb.id: mb})


def _micro_case(fsync: str, blocks: int, checkpoint_interval: int) -> dict:
    """Apply ``blocks`` blocks, re-open, report the recovery numbers."""
    data_dir = tempfile.mkdtemp(prefix=f"bench-recovery-{fsync}-")
    try:
        store = DurableKVStore(
            data_dir,
            config=DurabilityConfig(
                fsync=fsync, checkpoint_interval=checkpoint_interval,
            ),
        )
        started = time.perf_counter()
        for counter in range(blocks):
            store.apply_block(_make_block(counter))
        apply_s = time.perf_counter() - started
        digest = store.state_digest()
        reopened = store.reopen()
        try:
            assert reopened.state_digest() == digest, "digest diverged"
            assert reopened.last_height == blocks
            return {
                "fsync": fsync,
                "blocks": blocks,
                "checkpoint_interval": checkpoint_interval,
                "apply_blocks_per_sec": blocks / max(apply_s, 1e-9),
                "recovery": reopened.recovery.to_dict(),
            }
        finally:
            reopened.close()
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)


def run_micro(quick: bool) -> list[dict]:
    blocks = MICRO_BLOCKS_QUICK if quick else MICRO_BLOCKS
    cases = []
    for fsync in FSYNC_POLICIES:
        # Checkpointed: recovery = newest checkpoint + short WAL tail.
        print(f"[recovery] micro fsync={fsync} checkpointed ...", flush=True)
        cases.append(_micro_case(fsync, blocks, CHECKPOINT_INTERVAL))
        # WAL-only: interval > blocks, so the re-open replays every
        # record — the clean measurement of replay throughput.
        print(f"[recovery] micro fsync={fsync} wal-only ...", flush=True)
        cases.append(_micro_case(fsync, blocks, blocks + 1))
    return cases


def run_sim_crash_restart(quick: bool) -> dict:
    protocol = ProtocolConfig(
        n=4, consensus="hotstuff", mempool="stratus",
        batch_bytes=4 * 128, batch_timeout=0.05, view_timeout=0.5,
    )
    data_dir = tempfile.mkdtemp(prefix="bench-recovery-sim-")
    try:
        config = ExperimentConfig(
            protocol=protocol, rate_tps=400.0,
            duration=5.0 if quick else 8.0, warmup=0.5,
            seed=7, label="bench-recovery-sim",
            faults=chaos_schedule("crash-restart", 4),
            durability=DurabilityConfig(fsync="interval", checkpoint_interval=8),
            data_dir=data_dir,
        )
        experiment = build_experiment(config, standard_suite())
        result = experiment.run()
        victim = experiment.replicas[3].executor
        return {
            "committed_tx": result.committed_tx,
            "violations": [v.to_dict() for v in result.violations],
            "victim_recovery": victim.recovery.to_dict(),
            "recovery_report": experiment.metrics.recovery_report(),
        }
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)


def run_live_crash_restart() -> dict:
    from repro.live import LiveConfig, run_live

    protocol = ProtocolConfig(
        n=4, mempool="stratus", consensus="hotstuff",
        batch_bytes=8 * 1024, batch_timeout=0.05, view_timeout=0.5,
    )
    result = run_live(LiveConfig(
        experiment=ExperimentConfig(
            protocol=protocol, rate_tps=200.0, duration=8.0, warmup=0.5,
            seed=7, label="bench-recovery-live",
            faults=chaos_schedule("crash-restart", 4),
            durability=DurabilityConfig(
                fsync="interval", checkpoint_interval=8,
            ),
        ),
        startup_grace=3.0,
    ))
    return {
        "committed_tx": result.committed_tx,
        "violations": [v.to_dict() for v in result.violations],
        "recovery_report": result.recovery_report,
    }


def run_bench(quick: bool = False) -> dict:
    document = {
        "schema": "BENCH_recovery/1",
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "quick": quick,
        "tx_per_block": TX_PER_BLOCK,
        "micro": run_micro(quick),
        "sim_crash_restart": run_sim_crash_restart(quick),
    }
    if not quick:
        print("[recovery] live crash-restart ...", flush=True)
        document["live_crash_restart"] = run_live_crash_restart()

    rows = []
    for case in document["micro"]:
        recovery = case["recovery"]
        rows.append([
            case["fsync"],
            "ckpt" if case["checkpoint_interval"] <= case["blocks"] else "wal",
            case["blocks"],
            f"{case['apply_blocks_per_sec']:,.0f}",
            recovery["source"],
            f"{recovery['duration_s'] * 1000:.1f}",
            recovery["wal_blocks_replayed"],
            f"{recovery['wal_replay_blocks_per_sec']:,.0f}",
            f"{recovery['checkpoint_bytes']:,}",
        ])
    print()
    print(format_table(
        ["fsync", "mode", "blocks", "apply blk/s", "source",
         "recovery (ms)", "wal replayed", "replay blk/s", "ckpt bytes"],
        rows,
        title="durable store recovery micro-benchmark",
    ))
    victim = document["sim_crash_restart"]["victim_recovery"]
    print(f"sim crash-restart victim: source={victim['source']} "
          f"recovery={victim['duration_s'] * 1000:.1f} ms "
          f"wal_replayed={victim['wal_blocks_replayed']}")
    if "live_crash_restart" in document:
        for row in document["live_crash_restart"]["recovery_report"]:
            if row.get("generation", 0) > 0:
                print(f"live crash-restart node {row['node']} gen "
                      f"{row['generation']}: source={row['source']} "
                      f"recovery={row['duration_s'] * 1000:.1f} ms")
    return document


def _check(document: dict) -> list[str]:
    failures = []
    for case in document["micro"]:
        recovery = case["recovery"]
        if case["checkpoint_interval"] <= case["blocks"]:
            if recovery["source"] not in ("checkpoint", "checkpoint+wal"):
                failures.append(
                    f"micro fsync={case['fsync']} ckpt: source "
                    f"{recovery['source']!r}, expected a checkpoint recovery"
                )
        elif recovery["source"] != "wal":
            failures.append(
                f"micro fsync={case['fsync']} wal-only: source "
                f"{recovery['source']!r}, expected 'wal'"
            )
    sim = document["sim_crash_restart"]
    if sim["violations"]:
        failures.append(f"sim crash-restart: {len(sim['violations'])} violation(s)")
    if sim["victim_recovery"]["source"] not in ("checkpoint", "checkpoint+wal"):
        failures.append(
            f"sim crash-restart victim recovered from "
            f"{sim['victim_recovery']['source']!r}, not disk"
        )
    live = document.get("live_crash_restart")
    if live is not None:
        if live["violations"]:
            failures.append(f"live crash-restart: {len(live['violations'])} violation(s)")
        respawned = [
            row for row in live["recovery_report"]
            if row.get("generation", 0) > 0
        ]
        if not respawned:
            failures.append("live crash-restart: no respawned-generation recovery row")
        for row in respawned:
            if row["source"] not in ("checkpoint", "checkpoint+wal", "wal"):
                failures.append(
                    f"live node {row['node']} gen {row['generation']} "
                    f"recovered from {row['source']!r}, not disk"
                )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="reduced micro runs, skip the live section (CI smoke)",
    )
    parser.add_argument(
        "--out", type=Path, default=BENCH_PATH,
        help=f"output JSON path (default: {BENCH_PATH})",
    )
    args = parser.parse_args(argv)
    document = run_bench(quick=args.quick)
    args.out.write_text(json.dumps(document, indent=2) + "\n")
    print(f"[written to {args.out}]")
    failures = _check(document)
    for failure in failures:
        print(f"[recovery] FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
