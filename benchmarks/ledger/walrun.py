"""``wal-apply-replay``: the executor/WAL layer alone.

Blocks of one microblock (64 transactions on average, drawn from the
seed) go into a ``DurableKVStore`` with ``fsync="off"`` - program cost
only, no disk claim. Host time does not repeat on this machine, so the
end-to-end run is an open loop at the rate a replica of the ledger's
fastest cell executes (``workloads.wal_blocks_per_s``): every block has
its own due time and latency runs from it. The call count comes from an
unpaced apply + full WAL replay under cProfile; unpaced rates are host
time and therefore per-layer entries of the traced run.
"""

from __future__ import annotations

import asyncio
import random
import shutil
import statistics
import time

from repro.crypto import GENESIS_QC
from repro.durability import (
    AppliedBlockRecord,
    DurabilityConfig,
    DurableKVStore,
    WriteAheadLog,
    read_wal,
)
from repro.kvstore import KVStore
from repro.live import RealtimeScheduler
from repro.types import MicroBlock, make_microblock_id
from repro.types.proposal import Block, Payload, PayloadEntry, Proposal

import timing
from workloads import (
    REFERENCE_SECONDS,
    WAL_TX_PER_BLOCK,
    Workload,
    wal_blocks_per_s,
)

#: Share of ``--seconds`` the open loop offers blocks for.
OFFERED_SHARE = 0.6
CHECKPOINT_INTERVAL = 4096
#: Blocks in the profiled apply + replay pass at ``--seconds 5``.
PROFILE_BLOCKS = 6000
#: Blocks per phase of the unpaced layer passes at ``--seconds 5``.
LAYER_BLOCKS = 20_000


def make_blocks(seed: int, count: int) -> list[Block]:
    """``run_recovery._make_block``'s shape with seeded transaction counts."""
    rng = random.Random(seed)
    blocks = []
    for counter in range(count):
        microblock = MicroBlock(
            id=make_microblock_id(1, counter), origin=1,
            tx_count=rng.randint(
                WAL_TX_PER_BLOCK - 16, WAL_TX_PER_BLOCK + 16
            ),
            tx_payload=128,
            created_at=0.0, sum_arrival=0.0,
        )
        proposal = Proposal(
            block_id=counter + 1, view=counter + 1, height=counter + 1,
            proposer=1, parent_id=counter, justify=GENESIS_QC,
            payload=Payload(entries=(PayloadEntry(mb_id=microblock.id),)),
        )
        blocks.append(Block(proposal, {microblock.id: microblock}))
    return blocks


def _open(directory, checkpoint_interval: int) -> DurableKVStore:
    return DurableKVStore(
        str(directory),
        config=DurabilityConfig(
            fsync="off", checkpoint_interval=checkpoint_interval
        ),
    )


def _reopen_matches(store: DurableKVStore, blocks: int) -> tuple[bool, object]:
    """Recover from disk; (digest and height survived, recovery info)."""
    digest = store.state_digest()
    reopened = store.reopen()
    try:
        matches = (
            reopened.state_digest() == digest
            and reopened.last_height == blocks
        )
        return matches, reopened.recovery
    finally:
        reopened.close()


async def _offered_apply(store: DurableKVStore, blocks: list[Block]) -> dict:
    """Open loop: every block has its own due time and is applied from
    the program's own timer, as a live replica applies what it commits;
    latency is from the due time."""
    scheduler = RealtimeScheduler(asyncio.get_running_loop())
    interval = 1.0 / wal_blocks_per_s()
    clock = time.perf_counter
    latencies, lateness = [], []
    done = asyncio.Event()

    def apply() -> None:
        # The k-th timer to fire applies block k, whichever timer it is:
        # a stall while the timers are being set can fire two neighbours
        # in the wrong order, and the store takes blocks in height order.
        index = len(latencies)
        due = started + index * interval
        lateness.append(clock() - due)
        store.apply_block(blocks[index])
        latencies.append(clock() - due)
        if len(latencies) == len(blocks):
            done.set()

    with timing.quiet_gc():
        started = clock()
        for index in range(len(blocks)):
            scheduler.schedule(started + index * interval - clock(), apply)
        await done.wait()
        elapsed = clock() - started
    return {
        "goodput": len(blocks) / elapsed,
        "p50_ms": statistics.median(latencies) * 1000.0,
        "late_p50_ms": statistics.median(lateness) * 1000.0,
    }


def _apply_and_replay(directory, blocks: list[Block]) -> tuple[bool, int]:
    """Phase B: no checkpoints, so the re-open replays the whole WAL.
    Returns (state survived, blocks the recovery replayed)."""
    store = _open(directory, len(blocks) + 1)
    for block in blocks:
        store.apply_block(block)
    matches, recovery = _reopen_matches(store, len(blocks))
    return matches, recovery.wal_blocks_replayed


def run_wal(
    workload: Workload, seed: int, seconds: float, trace: int
) -> dict:
    seed, scale = workload.build(seed, seconds / REFERENCE_SECONDS)
    root = timing.scratch_dir("wal")
    try:
        if trace == 0:
            return _end_to_end(root, seed, scale)
        return _layers(root, seed, scale)
    finally:
        shutil.rmtree(root, ignore_errors=True)


def _offered_count(scale: float) -> int:
    return max(400, int(
        OFFERED_SHARE * REFERENCE_SECONDS * scale * wal_blocks_per_s()
    ))


def _profile_count(scale: float) -> int:
    return max(200, int(PROFILE_BLOCKS * scale))


def _end_to_end(root, seed: int, scale: float) -> dict:
    offered = _offered_count(scale)
    blocks = make_blocks(seed, offered)
    store = _open(root / "offered", CHECKPOINT_INTERVAL)
    setup_s = timing.setup_seconds()
    run = asyncio.run(_offered_apply(store, blocks))
    records = store.wal_records_appended
    checkpoints = store.checkpoints_written
    recovered, _recovery = _reopen_matches(store, offered)
    rss = timing.peak_rss_mb()

    profile_blocks = blocks[:_profile_count(scale)]
    with timing.quiet_gc():
        (survived, replayed), calls = timing.profiled(
            _apply_and_replay, root / "profile", profile_blocks
        )
    problems = []
    if not recovered:
        problems.append("checkpoint + WAL tail recovery lost state")
    if not survived:
        problems.append("full WAL replay lost state")
    return {
        "problems": problems,
        "attempted": offered + len(profile_blocks),
        "failed": (
            (0 if recovered else offered)
            + (0 if survived else len(profile_blocks))
        ),
        "metrics": {
            "setup_s": setup_s,
            "goodput_ops_per_s": run["goodput"],
            "latency_p50_ms": run["p50_ms"],
            "completed_share": (recovered + survived) / 2,
            # Recovery applies each logged block once: not twice, not never.
            "unique_commit_share": (
                min(replayed, len(profile_blocks))
                / max(replayed, len(profile_blocks))
            ),
            # Storage writes per block: one WAL record each, plus the
            # checkpoints that truncate the log.
            "events_per_op": (records + checkpoints) / offered,
            "py_calls_per_op": calls.total / len(profile_blocks),
            "peak_rss_mb": rss,
        },
        "detail": {
            "checkpoints": checkpoints,
            "offered_blocks": offered,
            "offered_blocks_per_s": wal_blocks_per_s(),
            "generator_late_p50_ms": run["late_p50_ms"],
        },
    }


def _median_us(call, items) -> float:
    """Median microseconds of ``call(item)`` over ``items``."""
    clock = time.perf_counter
    samples = []
    for item in items:
        started = clock()
        call(item)
        samples.append(clock() - started)
    return statistics.median(samples) * 1e6


def _layers(root, seed: int, scale: float) -> dict:
    count = max(500, int(LAYER_BLOCKS * scale))
    profile_count = _profile_count(scale)
    blocks = make_blocks(seed, count)
    records = [
        AppliedBlockRecord(
            block.block_id, block.proposal.height,
            tuple((mb.id, mb.tx_count) for mb in block.microblocks.values()),
        )
        for block in blocks
    ]
    problems, failed = [], 0

    with timing.quiet_gc():
        # Direct calls into the two layers, each on its own.
        apply_us = _median_us(KVStore().apply_block, blocks)
        wal_path = str(root / "direct.log")
        wal = WriteAheadLog(wal_path, fsync="off")
        append_us = _median_us(wal.append, records)
        wal_bytes = wal.bytes_appended
        wal.close()
        started = time.perf_counter()
        replay = read_wal(wal_path)
        read_s = time.perf_counter() - started
        if len(replay.records) != count or replay.torn:
            problems.append("read_wal did not return every record")

        # Phase A: checkpoints every CHECKPOINT_INTERVAL blocks.
        store = _open(root / "phase-a", CHECKPOINT_INTERVAL)
        started = time.perf_counter()
        for block in blocks:
            store.apply_block(block)
        apply_s = time.perf_counter() - started
        started = time.perf_counter()
        store.write_checkpoint()
        checkpoint_ms = (time.perf_counter() - started) * 1000.0
        checkpoint_bytes = store.checkpoint_bytes
        matches, _recovery = _reopen_matches(store, count)
        if not matches:
            problems.append("checkpoint recovery lost state")
            failed += count

        # Phase B: no checkpoints, so the re-open replays the whole WAL.
        store = _open(root / "phase-b", count + 1)
        for block in blocks:
            store.apply_block(block)
        matches, recovery = _reopen_matches(store, count)
        if not matches or recovery.wal_blocks_replayed != count:
            problems.append("full WAL replay lost state")
            failed += count

        _ok, calls = timing.profiled(
            _apply_and_replay, root / "profile", blocks[:profile_count]
        )
    return {
        "problems": problems,
        "attempted": 2 * count,
        "failed": failed,
        "metrics": {
            "kvstore.py_calls": calls.by_layer.get("kvstore", 0),
            "durability.py_calls": calls.by_layer.get("durability", 0),
            "kvstore.apply_us_per_block": apply_us,
            "durability.wal.append_us": append_us,
            "durability.wal.bytes_per_block": wal_bytes / count,
            "durability.wal.read_blocks_per_s": count / read_s,
            "durability.checkpoint.write_ms": checkpoint_ms,
            "durability.checkpoint.bytes": checkpoint_bytes,
            "durability.apply_blocks_per_s": count / apply_s,
            "durability.replay_blocks_per_s": recovery.wal_replay_blocks_per_sec,
        },
        "detail": {
            "blocks_per_phase": count,
            "py_calls_per_op": calls.total / profile_count,
        },
    }
