"""Live run orchestrator: n replica processes + 1 in-process client.

``run_live`` takes the same :class:`ExperimentConfig` the simulator
takes (it rejects the simulator's link settings — the localhost kernel
path *is* the network), spawns one OS process per replica, drives the
workload from the parent, and reports through the same
:func:`measure_window` the simulator does, so live and simulated numbers
are directly comparable.

What a run reports comes from one record: every replica incarnation
streams its hub calls and observer taps to an event log as they happen,
and the parent replays the merged logs once into one
:class:`MetricsHub` and one oracle suite (:mod:`repro.live.verify`).
Every replica reports every block it commits, and the hub keeps the
*earliest* commit of each — the live equivalent of "the first correct
replica to commit reports it". The last record of an incarnation's log
that exits on its own is its ``result`` row: what its transport and
executor say of themselves (the ``per_replica`` rows and the bytes
sent), which the replay never sees.

Chaos runs (``experiment.faults``) execute the schedule's crash/restart
timeline via :class:`~repro.live.chaos.LiveFaultInjector` — SIGKILL and
fresh-interpreter respawn against the same port map — while its link
windows ship to every replica in the spawn spec. The report then
carries the same per-fault-window recovery metrics
(:meth:`MetricsHub.fault_report`) the simulator produces, and since the
event logs are flushed line by line, a SIGKILLed incarnation's commits,
view changes, fetches and microblocks count in the report and the
safety check alike; only its ``result`` row is missing.
"""

from __future__ import annotations

import asyncio
import json
import multiprocessing
import socket
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from repro.harness.config import ExperimentConfig
from repro.harness.result import RunResult, measure_window
from repro.live.chaos import LiveFaultInjector
from repro.live.client import run_client
from repro.live.replica_proc import replica_main
from repro.live.verify import replay_events
from repro.live.wire import get_codec
from repro.verification.oracles import Violation

#: Wall-clock seconds between process spawn and protocol t=0. Must cover
#: n interpreter starts + module imports so every replica is listening
#: before consensus begins.
DEFAULT_STARTUP_GRACE = 3.0

#: Seconds past the replica's own shutdown grace before the parent
#: escalates to terminate/kill.
JOIN_SLACK = 10.0


@dataclass
class LiveConfig:
    """Live-specific knobs layered over an :class:`ExperimentConfig`.

    What to run stays the experiment's business, as in the simulator:
    ``experiment.faults`` runs as real chaos (crash/restart as
    SIGKILL/respawn, link faults as frame shaping); ``durability`` and
    ``data_dir`` (inside the run's scratch dir, deleted with it, when
    None) put the durable state machine under every replica. The
    simulator's link settings (``bandwidth_bps``, ``topology_kind``,
    ``link_model``) have no live meaning and are rejected when set.
    """

    experiment: ExperimentConfig
    host: str = "127.0.0.1"
    startup_grace: float = DEFAULT_STARTUP_GRACE
    #: Directory for per-replica event logs (a temp dir when None).
    scratch_dir: Optional[str] = None
    #: Frame format on the wire: ``binary`` (struct-packed v2, the
    #: default hot path) or ``json`` (v1, kept for comparison and
    #: debugging). Every process of the run takes it from the one spawn
    #: spec; nothing on the wire names it.
    wire_codec: str = "binary"

    def __post_init__(self) -> None:
        experiment = self.experiment
        if experiment.faults is not None:
            experiment.faults.validate_live(experiment.protocol.n)
        changed = {
            "bandwidth_bps": experiment.bandwidth_bps is not None,
            "topology_kind": experiment.topology_kind != "lan",
            "link_model": experiment.link_model != "serial",
        }
        sim_only = [name for name, is_set in changed.items() if is_set]
        if sim_only:
            raise ValueError(
                f"live runs over localhost TCP, which has no {sim_only}; "
                "shape its links with delay and bandwidth fault windows"
            )
        get_codec(self.wire_codec)  # fail fast on unknown codec names


def allocate_ports(n: int, host: str = "127.0.0.1") -> dict[int, int]:
    """Reserve ``n`` free localhost ports via ephemeral bind.

    The sockets are closed before the replicas re-bind; on localhost the
    window for another process to steal one is negligible, and a stolen
    port fails loudly at replica startup.
    """
    sockets = []
    ports: dict[int, int] = {}
    try:
        for node in range(n):
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            sock.bind((host, 0))
            sockets.append(sock)
            ports[node] = sock.getsockname()[1]
    finally:
        for sock in sockets:
            sock.close()
    return ports


@dataclass
class _Incarnation:
    """One OS process serving one replica id for part (or all) of a run."""

    node_id: int
    generation: int
    process: multiprocessing.Process
    events_path: str
    #: True when the chaos injector SIGKILLed it: its nonzero exit and
    #: missing ``result`` row are the *point*, not failures.
    killed: bool = False


class _ProcessTable:
    """Spawn/kill bookkeeping shared by ``run_live`` and the injector."""

    def __init__(self, context, base_spec: dict, scratch: str) -> None:
        self._context = context
        self._base_spec = base_spec
        self._scratch = scratch
        self.all: list[_Incarnation] = []
        self.current: dict[int, _Incarnation] = {}

    def spawn(self, node_id: int) -> _Incarnation:
        generation = (
            self.current[node_id].generation + 1
            if node_id in self.current else 0
        )
        spec = dict(self._base_spec)
        spec["node_id"] = node_id
        spec["generation"] = generation
        spec["events_path"] = str(
            Path(self._scratch) / f"replica-{node_id}-g{generation}.jsonl"
        )
        process = self._context.Process(
            target=replica_main, args=(spec,), daemon=True
        )
        process.start()
        incarnation = _Incarnation(
            node_id=node_id,
            generation=generation,
            process=process,
            events_path=spec["events_path"],
        )
        self.all.append(incarnation)
        self.current[node_id] = incarnation
        return incarnation

    def kill(self, node_id: int) -> None:
        incarnation = self.current[node_id]
        incarnation.killed = True
        if incarnation.process.is_alive():
            incarnation.process.kill()


def _read_events(
    incarnations: list[_Incarnation], failures: list[str]
) -> tuple[list[dict], list[dict]]:
    """Merge every incarnation's streamed event log: (the records the
    replay reads, the ``per_replica`` rows).

    A ``result`` record is a row, not an event. An incarnation that
    exits on its own writes one, last; a SIGKILLed one has none.
    Tolerates a truncated final line on killed incarnations (SIGKILL
    can land mid-write); any other unreadable line is a real failure.
    """
    events: list[dict] = []
    rows: list[dict] = []
    for incarnation in incarnations:
        try:
            with open(incarnation.events_path, encoding="utf-8") as handle:
                lines = handle.read().splitlines()
        except OSError:
            if not incarnation.killed:
                failures.append(
                    f"replica {incarnation.node_id} "
                    f"(gen {incarnation.generation}) produced no event log"
                )
            continue
        row = None
        for index, line in enumerate(lines):
            if not line.strip():
                continue
            try:
                event = json.loads(line)
            except ValueError:
                if incarnation.killed and index == len(lines) - 1:
                    continue  # torn final write under SIGKILL
                failures.append(
                    f"replica {incarnation.node_id} event log line "
                    f"{index + 1} unreadable"
                )
                continue
            if event["kind"] == "result":
                row = event["data"]
            else:
                events.append(event)
        if row is not None:
            rows.append(row)
        elif not incarnation.killed:
            failures.append(
                f"replica {incarnation.node_id} "
                f"(gen {incarnation.generation}) logged no result"
            )
    return events, rows


def _merge(
    config: ExperimentConfig,
    rows: list[dict],
    events: list[dict],
    emitted_tx: int,
    wall_clock_s: float,
    fault_timeline: Optional[list[dict]],
    wire_codec: str,
) -> RunResult:
    hub, violations = replay_events(events, config, emitted_tx)
    return measure_window(
        config,
        hub,
        emitted_tx=emitted_tx,
        violations=violations,
        label=(config.label or (
            f"live-{config.protocol.mempool}/{config.protocol.consensus}"
            f"-n{config.protocol.n}"
        )),
        net_bytes_sent=sum(row["bytes_out"] for row in rows),
        wall_clock_s=wall_clock_s,
        per_replica=sorted(
            rows, key=lambda row: (row["node_id"], row["generation"])
        ),
        fault_timeline=list(fault_timeline or []),
        wire_codec=wire_codec,
    )


async def _drive(
    config: ExperimentConfig,
    ports: dict[int, int],
    epoch: float,
    injector: Optional[LiveFaultInjector],
    wire_codec: str,
) -> int:
    """Run the client driver and the fault timeline concurrently."""
    client = asyncio.ensure_future(
        run_client(config, ports, epoch, wire_codec)
    )
    if injector is None:
        return await client
    chaos = asyncio.ensure_future(injector.run())
    try:
        emitted = await client
    finally:
        # The timeline normally ends before the workload; if the client
        # died early, don't leave kills/respawns firing unsupervised.
        if not chaos.done():
            chaos.cancel()
        await asyncio.gather(chaos, return_exceptions=True)
    return emitted


def run_live(live: LiveConfig) -> RunResult:
    """Execute one live run end to end; blocks until all processes exit."""
    config = live.experiment
    n = config.protocol.n
    started = time.perf_counter()
    ports = allocate_ports(n, live.host)
    epoch = time.time() + live.startup_grace
    schedule = config.faults

    context = multiprocessing.get_context("spawn")
    with tempfile.TemporaryDirectory(dir=live.scratch_dir) as scratch:
        base_spec = {
            "ports": {str(node): port for node, port in ports.items()},
            "epoch": epoch,
            "end_time": config.end_time,
            "seed": config.seed,
            "protocol": config.protocol.to_dict(),
            "wire_codec": live.wire_codec,
        }
        if schedule is not None:
            base_spec["faults"] = schedule.to_spec()
        if config.durability is not None:
            data_root = Path(config.data_dir or Path(scratch) / "data")
            data_root.mkdir(parents=True, exist_ok=True)
            base_spec["durability"] = config.durability.to_spec()
            base_spec["data_root"] = str(data_root)
        table = _ProcessTable(context, base_spec, scratch)
        for node_id in range(n):
            table.spawn(node_id)

        injector = None
        if schedule is not None and schedule.timeline():
            injector = LiveFaultInjector(
                schedule, epoch, kill=table.kill, respawn=table.spawn
            )
        emitted_tx = asyncio.run(
            _drive(config, ports, epoch, injector, live.wire_codec)
        )

        deadline = epoch + config.end_time + JOIN_SLACK
        failures = []
        for incarnation in table.all:
            process = incarnation.process
            process.join(timeout=max(0.5, deadline - time.time()))
            if process.is_alive():
                process.terminate()
                process.join(timeout=2.0)
                if process.is_alive():  # pragma: no cover - last resort
                    process.kill()
                    process.join()
                failures.append(f"replica pid {process.pid} hung; killed")
            elif incarnation.killed:
                # SIGKILL by the chaos injector: -9 is the expected exit.
                pass
            elif process.exitcode not in (0, -15):
                failures.append(
                    f"replica pid {process.pid} exited {process.exitcode}"
                )

        events, rows = _read_events(table.all, failures)

    if not rows:
        raise RuntimeError(
            "live run produced no replica results: " + "; ".join(failures)
        )

    result = _merge(
        config, rows, events, emitted_tx,
        wall_clock_s=time.perf_counter() - started,
        fault_timeline=injector.timeline if injector is not None else None,
        wire_codec=live.wire_codec,
    )
    for failure in failures:
        result.violations.append(Violation(
            oracle="live-runtime", kind="process", time=config.end_time,
            message=failure,
        ))
    return result
