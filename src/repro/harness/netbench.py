"""Dissemination microbench: the network fabric at full load, no protocol.

The ledger's protocol workloads measure the whole stack, so their
events/sec number is dominated by consensus and mempool handler cost.
This bench isolates the layer the flow-level dissemination work
optimizes: ``n`` replicas each broadcast a fixed-size payload on a fixed
period into trivial handlers, the offered load saturates every uplink,
and the simulator serializes at line rate. What it reports is therefore
the event fabric's ceiling — fan-out flow expansion, segment drains,
deliveries, and ingress processing — the denominator every protocol
scenario pays before doing any protocol work.

The run is fully deterministic: node ``i`` starts its broadcast chain at
``i * period / n`` (staggered so the heap never sees an n-wide burst of
identical timestamps), and the result digest folds in per-node delivery
counts, so a serial run and a ``--jobs`` worker must produce the same
``commit_hash``-shaped fingerprint.
"""

from __future__ import annotations

import gc
import hashlib
import time
from dataclasses import dataclass

from repro.config import decode_fields, encode_fields
from repro.sim.engine import Simulator
from repro.sim.interfaces import Channel
from repro.sim.network import Network
from repro.sim.rng import RngRegistry
from repro.sim.topology import Topology


@dataclass(frozen=True)
class NetBenchConfig:
    """Parameters of one dissemination-bench cell (plain data, picklable)."""

    n: int = 128
    #: Payload of each broadcast (the paper's microblock size).
    msg_bytes: float = 128 * 1024
    #: Broadcasts per second per node. The default saturates a 1 Gb/s
    #: uplink ~13x (each broadcast serializes (n-1) copies), which keeps
    #: every segment full — the steady state the bench is after.
    rate_per_node: float = 100.0
    duration: float = 1.0
    seed: int = 7
    bandwidth_bps: float = 1e9
    #: Rack-scale propagation: keeps the in-flight delivery window (and
    #: with it the event heap) shallow, so the number measures per-event
    #: cost rather than heap depth.
    one_way_delay: float = 0.0001
    proc_per_message: float = 50e-6
    label: str = "netbench"

    def to_dict(self) -> dict:
        return encode_fields(self)

    @classmethod
    def from_dict(cls, data: dict) -> "NetBenchConfig":
        return decode_fields(cls, data)


@dataclass
class NetBenchResult:
    """Measurement of one bench run."""

    label: str
    seed: int
    events_processed: int
    wall_clock_s: float
    delivered: int
    dropped: int
    sim_seconds: float
    #: sha256 over (n, per-node delivery counts, drops, event count):
    #: any reordering or miscount in the dissemination path changes it,
    #: so serial vs --jobs equality means the same event sequence ran.
    fingerprint: str = ""

    @property
    def delivered_per_sim_sec(self) -> float:
        if self.sim_seconds <= 0:
            return 0.0
        return self.delivered / self.sim_seconds


def run_netbench(config: NetBenchConfig) -> NetBenchResult:
    """Build the broadcast storm, run it, and fingerprint the outcome."""
    n = config.n
    sim = Simulator()
    topology = Topology(
        n,
        one_way_delay=config.one_way_delay,
        bandwidth_bps=config.bandwidth_bps,
        delay_jitter=0.0,
        name="netbench",
        proc_per_message=config.proc_per_message,
    )
    network = Network(sim, topology, RngRegistry(config.seed))
    delivered = [0] * n

    def make_handler(node: int):
        def handler(envelope) -> None:
            delivered[node] += 1
        return handler

    for node in range(n):
        network.register(node, make_handler(node))

    period = 1.0 / config.rate_per_node
    size = config.msg_bytes

    def storm(node: int) -> None:
        network.broadcast(node, "netbench.blob", size, None, Channel.DATA)
        sim.schedule_fire(period, storm, node)

    for node in range(n):
        # Staggered starts: a simultaneous n-wide burst at t=0 both
        # deepens the heap and is nothing like a steady-state fabric.
        sim.schedule_fire(node * period / n, storm, node)

    # Same GC discipline as RunningExperiment.run: the loop's
    # allocations are acyclic, so collector scans only add jitter.
    was_enabled = gc.isenabled()
    gc.collect()
    gc.freeze()
    if was_enabled:
        gc.disable()
    started = time.perf_counter()
    try:
        sim.run_until(config.duration)
        wall = time.perf_counter() - started
    finally:
        if was_enabled:
            gc.enable()
        gc.unfreeze()

    hasher = hashlib.sha256()
    hasher.update(f"{n};{config.seed};".encode())
    hasher.update(",".join(str(count) for count in delivered).encode())
    hasher.update(
        f";{network.stats.messages_dropped};{sim.processed}".encode()
    )
    return NetBenchResult(
        label=config.label,
        seed=config.seed,
        events_processed=sim.processed,
        wall_clock_s=wall,
        delivered=sum(delivered),
        dropped=network.stats.messages_dropped,
        sim_seconds=config.duration,
        fingerprint=hasher.hexdigest(),
    )
