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
* the replica's metrics hub and observer is its own
  :class:`LiveRecorder`, not the run-wide hub and oracle suite: every
  replica reports every block it commits, and the hub calls and
  observer taps stream to ``spec["events_path"]`` as flushed JSONL *as
  they happen*. The orchestrator replays every replica's stream into one
  hub and one suite, so a replica SIGKILLed by the chaos layer still
  counts: its commits, view changes and fetches, and its microblock
  creations for the ledger check (a microblock is recorded before it is
  broadcast — if it reached any peer, its creation line reached the
  page cache).

On exit the process appends one ``result`` record to the same log:
what its transport and executor say of themselves, the row the
orchestrator prints per incarnation. A SIGKILLed incarnation has none.

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
from typing import Optional

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


class LiveRecorder(MetricsHub):
    """A live replica's metrics hub and observer, streaming to disk.

    Every hub call protocol code makes that the run reports
    (``record_commit`` when fresh here, ``record_view_change``,
    ``record_fetch``, ``record_forward``, ``record_recovery``) and every
    observer tap the oracles read (``on_local_commit``,
    ``on_microblock_created``) becomes one JSONL line. The orchestrator
    replays the merged, time-sorted lines of all replicas into the
    simulator's own :class:`MetricsHub` and :class:`OracleSuite` (see
    :mod:`repro.live.verify`). A commit report is stamped with its
    commit time, so the replay keeps a block's earliest commit, the live
    equivalent of "the first correct replica to commit reports it".
    Observer data is encoded through :func:`to_wire`, which keeps it
    JSON-able and double-checks event purity. ``on_block_resolved`` is
    not recorded: ``Block`` objects are local assembly state, not wire
    data, and no live oracle consumes them.

    Lines are written one by one with an explicit flush so they survive
    SIGKILL: a crash loses at most work the kernel never saw, and a
    microblock's creation line is flushed *before* the mempool
    broadcasts it (``notify_microblock`` precedes ``_emit``), so the
    ledger oracle can never see a commit of a microblock whose creation
    record died with its origin.
    """

    def __init__(self, scheduler: Scheduler, node_id: int,
                 events_path: str) -> None:
        super().__init__(scheduler)
        self._node_id = node_id
        self._file = open(events_path, "w", encoding="utf-8")

    def _record(self, kind: str, data, t: Optional[float] = None) -> None:
        # One dumps + one write: json.dump streaming into the file
        # handle costs dozens of tiny TextIOWrapper writes per event,
        # which at saturation charged the recorder ~25% of replica CPU.
        line = json.dumps({
            "t": self._sim.now if t is None else t,
            "node": self._node_id,
            "kind": kind,
            "data": data,
        })
        self._file.write(line + "\n")
        self._file.flush()

    # -- hub calls ---------------------------------------------------------

    def record_commit(self, block_id, tx_count, microblock_count,
                      latencies, commit_time=None) -> bool:
        if not super().record_commit(
            block_id, tx_count, microblock_count, latencies, commit_time
        ):
            return False
        when = self._sim.now if commit_time is None else commit_time
        self._record(
            "record_commit",
            [block_id, tx_count, microblock_count, latencies, when], when,
        )
        return True

    def record_view_change(self, replica: int, view: int) -> None:
        super().record_view_change(replica, view)
        self._record("record_view_change", [replica, view])

    def record_fetch(self) -> None:
        super().record_fetch()
        self._record("record_fetch", [])

    def record_forward(self) -> None:
        super().record_forward()
        self._record("record_forward", [])

    def record_recovery(self, node: int, info: dict) -> None:
        super().record_recovery(node, info)
        self._record("record_recovery", [node, info])

    # -- observer taps -----------------------------------------------------

    def on_local_commit(self, replica, proposal) -> None:
        self._record("commit", to_wire(proposal))

    def on_microblock_created(self, replica, microblock) -> None:
        self._record("mb", to_wire(microblock))

    def on_block_resolved(self, replica, block) -> None:
        pass

    def close(self, row: dict) -> None:
        """Append the incarnation's ``per_replica`` row, last, and close."""
        self._record("result", row)
        self._file.close()


def build_replica(
    spec: dict, scheduler: Scheduler, network: LiveNetwork
) -> tuple[Replica, LiveRecorder]:
    """One replica from a spawn spec: the shared assembly over the event
    recorder, then what only a live process needs (id rebase, recovery
    report)."""
    protocol = ProtocolConfig.from_dict(spec["protocol"])
    node_id = spec["node_id"]
    durability = spec.get("durability")
    recorder = LiveRecorder(scheduler, node_id, spec["events_path"])
    replica = assemble_replica(
        node_id, protocol, scheduler, network,
        random.Random((spec["seed"] << 16) | node_id),
        recorder,
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
    if replica.executor is not None:
        # Every incarnation reports how its executor came up: fresh, or
        # from the disk a killed one left.
        recorder.record_recovery(node_id, {
            "generation": generation, **replica.executor.recovery.to_dict(),
        })
    replica.observer = recorder
    return replica, recorder


async def _run(spec: dict) -> None:
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
        codec=spec["wire_codec"],
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
    recorder.close({
        "node_id": spec["node_id"],
        "generation": spec.get("generation", 0),
        "commits": len(recorder.recorded),
        "bytes_in": network.bytes_in,
        "bytes_out": network.bytes_out,
        "messages_delivered": network.stats.messages_delivered,
        "frames_dropped": network.stats.frames_dropped,
        "queue_high_watermark": network.stats.queue_high_watermark,
        "reconnects": network.stats.reconnects,
        "frames_shed": shaper.frames_shed if shaper is not None else 0,
        "recovery_source": (
            executor.recovery.source if executor is not None else None
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
    })
    if executor is not None:
        executor.close()


def replica_main(spec: dict) -> None:
    """Process entry point: run one replica until its spec's end."""
    asyncio.run(_run(spec))
