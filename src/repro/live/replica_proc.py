"""One live replica: the OS-process entry point.

``replica_main`` is the target handed to ``multiprocessing`` (spawn
context — nothing here may rely on inherited state). It builds its
replica with the same :func:`repro.harness.runner.assemble_replica` the
simulator calls n times, but on the live backends:
:class:`RealtimeScheduler` over asyncio and :class:`LiveNetwork` over
TCP. No protocol code is forked.

Differences from the sim wiring, all environmental:

* every process seeds its own ``random.Random`` from ``(seed, node_id)``
  instead of drawing a stream from the run-wide registry;
* the native mempool's pending pool is per-process — in-sim it is a
  run-wide object, which no real deployment can have;
* commits are recorded by *every* replica into its local
  :class:`MetricsHub`; the orchestrator deduplicates by block id when
  merging, recovering the sim's first-commit semantics.

On exit the process writes one JSON document (metrics summary) to
``spec["result_path"]``. Protocol events for oracle replay stream to
``spec["events_path"]`` as flushed JSONL *as they happen*: a replica
SIGKILLed by the chaos layer loses its end-of-run summary but not its
event record, so the orchestrator's safety/ledger replay stays complete
across crash faults (a microblock is recorded before it is broadcast —
if it reached any peer, its creation line reached the page cache).

Chaos wiring: ``spec["faults"]`` (when present) is the fault schedule's
``to_spec()``; its link windows (the schedule's windows without the
crashes) build a :class:`LinkShaper` seeded from
``(seed, generation, node_id)`` so loss decisions differ across respawn
generations but replay identically for a fixed spec.
"""

from __future__ import annotations

import asyncio
import json
import random
import signal

from repro.config import ProtocolConfig
from repro.durability import DurabilityConfig
from repro.faults import FaultSchedule
from repro.harness.runner import assemble_replica
from repro.live.chaos import LinkShaper
from repro.live.network import LiveNetwork
from repro.live.scheduler import RealtimeScheduler
from repro.live.wire import to_wire
from repro.metrics import MetricsHub
from repro.replica import Replica
from repro.sim.interfaces import Scheduler

#: Extra wall-clock seconds a replica keeps serving after ``end_time``,
#: letting in-flight commits from slower peers drain before shutdown.
SHUTDOWN_GRACE = 0.5


class RecordingMetricsHub(MetricsHub):
    """MetricsHub that additionally keys latency pairs by block id.

    The orchestrator deduplicates commits *across* replicas by block id;
    to rebuild the merged latency digest it needs the winning commit's
    own ``(latency, weight)`` pairs, which the base hub flattens away.
    """

    def __init__(self, sim: Scheduler) -> None:
        super().__init__(sim)
        self.commit_latencies: dict[int, list[tuple[float, float]]] = {}

    def record_commit(self, block_id, tx_count, microblock_count,
                      latencies, commit_time=None) -> bool:
        fresh = super().record_commit(
            block_id, tx_count, microblock_count, latencies, commit_time
        )
        if fresh:
            self.commit_latencies[block_id] = [
                (latency, weight) for latency, weight in latencies
            ]
        return fresh


class LiveRecorder:
    """Replica observer streaming wire-encoded protocol events to disk.

    The orchestrator replays the merged, time-sorted event stream from
    all replicas through the real :class:`repro.verification` oracles
    (see :mod:`repro.live.verify`). Encoding through :func:`to_wire`
    keeps the record JSON-able and double-checks event purity.
    ``on_block_resolved`` is not recorded: ``Block`` objects are local
    assembly state, not wire data, and no live oracle consumes them.

    Events are written line-by-line with an explicit flush so they
    survive SIGKILL: a crash loses at most work the kernel never saw,
    and a microblock's creation line is flushed *before* the mempool
    broadcasts it (``notify_microblock`` precedes ``_emit``), so the
    ledger oracle can never see a commit of a microblock whose creation
    record died with its origin.
    """

    def __init__(self, scheduler: Scheduler, node_id: int,
                 events_path: str) -> None:
        self._scheduler = scheduler
        self._node_id = node_id
        self._file = open(events_path, "w", encoding="utf-8")

    def _record(self, kind: str, data) -> None:
        # One dumps + one write: json.dump streaming into the file
        # handle costs dozens of tiny TextIOWrapper writes per event,
        # which at saturation charged the recorder ~25% of replica CPU.
        line = json.dumps({
            "t": self._scheduler.now,
            "node": self._node_id,
            "kind": kind,
            "data": to_wire(data),
        })
        self._file.write(line + "\n")
        self._file.flush()

    def on_local_commit(self, replica, proposal) -> None:
        self._record("commit", proposal)

    def on_microblock_created(self, replica, microblock) -> None:
        self._record("mb", microblock)

    def on_block_resolved(self, replica, block) -> None:
        pass

    def close(self) -> None:
        self._file.close()


def build_replica(
    spec: dict, scheduler: Scheduler, network: LiveNetwork
) -> tuple[Replica, LiveRecorder]:
    """One replica from a spawn spec: the shared assembly, then what
    only a live process needs (id rebase, event recorder, client hook)."""
    protocol = ProtocolConfig.from_dict(spec["protocol"])
    node_id = spec["node_id"]
    durability = spec.get("durability")
    replica = assemble_replica(
        node_id, protocol, scheduler, network,
        random.Random((spec["seed"] << 16) | node_id),
        RecordingMetricsHub(scheduler),
        durability=(
            DurabilityConfig.from_spec(durability) if durability else None
        ),
        data_dir=spec.get("data_root"),
    )
    generation = spec.get("generation", 0)
    if generation:
        # A respawned interpreter forgets its local counters; give each
        # incarnation a disjoint id range (2^32 ids apiece) so the
        # (origin, counter) microblock *and* block ids keep the
        # uniqueness the paper's content-hash ids have by construction.
        # Without the block rebase, peers silently drop the new
        # incarnation's proposals as duplicates of pre-crash ids and
        # every view it leads times out.
        replica.mempool.rebase_microblock_ids(generation << 32)
        replica.consensus.rebase_block_ids(generation << 32)
    recorder = LiveRecorder(scheduler, node_id, spec["events_path"])
    replica.observer = recorder
    network.client_handler = (
        lambda envelope: replica.on_client_batch(envelope.payload)
    )
    return replica, recorder


async def _run(spec: dict) -> dict:
    loop = asyncio.get_running_loop()
    scheduler = RealtimeScheduler(loop, epoch=spec["epoch"])
    ports = {int(node): port for node, port in spec["ports"].items()}
    shaper = None
    links = [
        window
        for window in FaultSchedule.from_spec(spec.get("faults", [])).windows
        if window.kind != "crash"
    ]
    if links:
        generation = spec.get("generation", 0)
        shaper = LinkShaper(
            spec["node_id"],
            links,
            scheduler,
            random.Random(
                (spec["seed"] << 24) | (generation << 16) | spec["node_id"]
            ),
        )
    network = LiveNetwork(
        spec["node_id"], ports, scheduler, shaper=shaper,
        codec=spec.get("wire_codec", "binary"),
    )
    await network.start()

    replica, recorder = build_replica(spec, scheduler, network)

    stop = asyncio.Event()
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(signum, stop.set)
        except (NotImplementedError, RuntimeError):  # pragma: no cover
            pass

    # All processes share the epoch; starting consensus at t=0 on each
    # replica keeps their view timers roughly in phase. A respawned
    # replica (chaos restart) is past t=0 already and starts at once.
    await scheduler.sleep_until(0.0)
    replica.start()
    executor = replica.executor
    if executor is not None and spec.get("generation", 0):
        # A respawned incarnation recovered from its own disk; peers may
        # have moved the commit frontier while it was down. The request
        # is queued per peer and delivered once TCP (re)connects.
        replica.request_state_snapshot()

    remaining = spec["end_time"] + SHUTDOWN_GRACE - scheduler.now
    if remaining > 0:
        try:
            await asyncio.wait_for(stop.wait(), timeout=remaining)
        except asyncio.TimeoutError:
            pass

    replica.consensus.suspend()
    await network.close()
    recorder.close()
    if executor is not None:
        executor.close()

    metrics = replica.metrics
    return {
        "node_id": spec["node_id"],
        "generation": spec.get("generation", 0),
        "wire_codec": network.codec.name,
        "commits": [
            {
                "block_id": rec.block_id,
                "commit_time": rec.commit_time,
                "tx_count": rec.tx_count,
                "microblock_count": rec.microblock_count,
                "latencies": metrics.commit_latencies.get(rec.block_id, []),
            }
            for rec in metrics.commits
        ],
        "view_changes": metrics.view_change_count,
        "bytes_in": network.bytes_in,
        "bytes_out": network.bytes_out,
        "messages_delivered": network.stats.messages_delivered,
        "frames_dropped": network.stats.frames_dropped,
        "queue_high_watermark": network.stats.queue_high_watermark,
        "reconnects": network.stats.reconnects,
        "frames_shed": shaper.frames_shed if shaper is not None else 0,
        "recovery": (
            executor.recovery.to_dict() if executor is not None else None
        ),
        "executed_height": (
            executor.last_height if executor is not None else None
        ),
        "state_digest": (
            executor.state_digest() if executor is not None else None
        ),
        "snapshot_installs": (
            executor.snapshot_installs if executor is not None else None
        ),
        "snapshots_served": replica.snapshots_served,
    }


def replica_main(spec: dict) -> None:
    """Process entry point: run one replica, write its result JSON."""
    result = asyncio.run(_run(spec))
    with open(spec["result_path"], "w", encoding="utf-8") as handle:
        json.dump(result, handle)
