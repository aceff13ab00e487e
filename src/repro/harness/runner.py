"""Experiment builder and runner.

``build_experiment`` assembles a full replica network (simulator, links,
replicas, mempools, consensus engines, workload generator) from an
:class:`ExperimentConfig`; ``run_experiment`` runs it and summarizes the
measurement window into a :class:`~repro.harness.result.RunResult`.
:func:`assemble_replica` is the one place a replica's stack is put
together: the simulator calls it n times over one scheduler, a live
replica process (``repro.live.replica_proc``) once over its own.
"""

from __future__ import annotations

import gc
import os
import random
import tempfile
import time
from dataclasses import dataclass
from typing import Optional

from repro.config import ProtocolConfig
from repro.consensus import CONSENSUS_CLASSES
from repro.durability import DurabilityConfig, DurableKVStore
from repro.faults import FaultInjector
from repro.harness.config import ExperimentConfig
from repro.harness.result import RunResult, measure_window
from repro.kvstore import KVStore
from repro.mempool import MEMPOOL_CLASSES, NativeMempool, SharedPendingPool
from repro.metrics import MetricsHub
from repro.replica import Behavior, HonestBehavior, Replica, behavior_for
from repro.sim import (
    Network,
    RngRegistry,
    Simulator,
    Topology,
    lan_topology,
    wan_topology,
)
from repro.sim.interfaces import Scheduler, Transport
from repro.workload import UniformSelector, WorkloadGenerator, ZipfSelector

_TOPOLOGIES = {"lan": lan_topology, "wan": wan_topology}


@dataclass
class RunningExperiment:
    """A fully wired experiment, ready to run."""

    config: ExperimentConfig
    sim: Simulator
    network: Network
    topology: Topology
    replicas: list[Replica]
    metrics: MetricsHub
    generator: WorkloadGenerator
    injector: Optional[FaultInjector] = None
    #: Optional invariant-oracle suite (``repro.verification``), already
    #: attached to every replica's observer tap by ``build_experiment``.
    oracles: Optional[object] = None
    #: Root of the per-replica durable data dirs (durability runs only).
    data_dir: Optional[str] = None

    def run(self) -> RunResult:
        # Pause the cyclic GC for the timed section: the event loop's
        # allocations (envelopes, heap tuples, batches) are acyclic and
        # refcount-freed, so generational scans only add jitter to the
        # wall-clock the benchmark ledger divides events by. Pre-built
        # long-lived state is frozen out of the collector first.
        was_enabled = gc.isenabled()
        gc.collect()
        gc.freeze()
        if was_enabled:
            gc.disable()
        started = time.perf_counter()
        try:
            self.sim.run_until(self.config.end_time)
            wall = time.perf_counter() - started
        finally:
            if was_enabled:
                gc.enable()
            gc.unfreeze()
        if self.oracles is not None:
            self.oracles.finalize()
        return summarize(self, wall_clock_s=wall)


def _make_topology(config: ExperimentConfig) -> Topology:
    make = _TOPOLOGIES[config.topology_kind]
    n = config.protocol.n
    topo = (
        make(n) if config.bandwidth_bps is None
        else make(n, config.bandwidth_bps)
    )
    for node, bandwidth in (config.bandwidth_map or {}).items():
        topo.set_bandwidth(node, bandwidth)
    return topo


def make_selector(config: ExperimentConfig):
    """The client-to-replica selector a config names (sim and live)."""
    n = config.protocol.n
    if config.selector == "uniform":
        return UniformSelector(n)
    if config.selector == "zipf1":
        return ZipfSelector(n, s=1.01, v=1.0)
    return ZipfSelector(n, s=1.01, v=10.0)


def _make_behavior(
    config: ExperimentConfig, node_id: int
) -> Optional[Behavior]:
    if node_id not in config.byzantine_ids:
        return HonestBehavior()
    return behavior_for(config.fault, config.protocol)


def assemble_replica(
    node_id: int,
    protocol: ProtocolConfig,
    scheduler: Scheduler,
    transport: Transport,
    rng: random.Random,
    metrics: MetricsHub,
    *,
    behavior: Optional[Behavior] = None,
    leader_set: Optional[tuple[int, ...]] = None,
    shared_pool: Optional[SharedPendingPool] = None,
    mempool_cls: Optional[type] = None,
    consensus_cls: Optional[type] = None,
    durability: Optional[DurabilityConfig] = None,
    data_dir: Optional[str] = None,
    attach_executor: bool = False,
) -> Replica:
    """One replica's whole stack on any scheduler/transport pair.

    Makes the :class:`Replica`, its mempool and consensus engine (from
    the protocol's names unless a class is given) and its executor:
    durable under ``data_dir/replica-<id>`` when ``durability`` is set,
    in-memory when only ``attach_executor`` is, else none. The native
    mempool draws from ``shared_pool`` — run-wide in the simulator, the
    replica's own when none is passed (a live process: clients submit to
    every replica, so rotating leaders still find transactions).
    """
    if mempool_cls is None:
        mempool_cls = MEMPOOL_CLASSES[protocol.mempool]
    if consensus_cls is None:
        consensus_cls = CONSENSUS_CLASSES[protocol.consensus]
    replica = Replica(
        node_id=node_id,
        config=protocol,
        sim=scheduler,
        network=transport,
        rng=rng,
        metrics=metrics,
        behavior=behavior,
        leader_set=leader_set,
    )
    if issubclass(mempool_cls, NativeMempool):
        if shared_pool is None:
            shared_pool = SharedPendingPool(protocol.tx_payload)
        mempool = mempool_cls(replica, protocol, shared_pool)
    else:
        mempool = mempool_cls(replica, protocol)
    consensus = consensus_cls(replica, mempool, protocol)
    if durability is not None:
        # Keyed by node id alone: a respawned live incarnation recovers
        # from the directory its predecessor wrote.
        executor = DurableKVStore(
            os.path.join(data_dir, f"replica-{node_id}"), config=durability,
        )
    elif attach_executor:
        executor = KVStore()
    else:
        executor = None
    replica.attach(mempool, consensus, executor)
    return replica


def build_experiment(
    config: ExperimentConfig,
    oracles: Optional[object] = None,
    *,
    mempool_cls: Optional[type] = None,
    consensus_cls: Optional[type] = None,
) -> RunningExperiment:
    """Wire a complete experiment from its configuration.

    ``oracles`` is an invariant-oracle suite (``repro.verification``)
    attached to every replica's observer tap. ``mempool_cls`` /
    ``consensus_cls`` override the classes looked up from the protocol's
    names — the hook the mutation self-tests use to wire intentionally
    broken variants into an otherwise standard experiment.
    """
    protocol = config.protocol
    sim = Simulator()
    rng = RngRegistry(config.seed)
    topology = _make_topology(config)
    network = Network(
        sim, topology, rng, priority_channels=config.priority_channels,
        link_model=config.link_model,
    )
    metrics = MetricsHub(sim)

    leader_set = tuple(
        node for node in range(protocol.n)
        if node not in config.byzantine_ids
    )
    # In-sim the native mempool's pending pool is one run-wide object.
    shared_pool = SharedPendingPool(protocol.tx_payload)

    data_dir: Optional[str] = None
    if config.durability is not None:
        data_dir = config.data_dir or tempfile.mkdtemp(prefix="repro-data-")
        os.makedirs(data_dir, exist_ok=True)

    replicas: list[Replica] = []
    for node_id in range(protocol.n):
        replicas.append(assemble_replica(
            node_id, protocol, sim, network,
            rng.stream(f"replica.{node_id}"), metrics,
            behavior=_make_behavior(config, node_id),
            leader_set=leader_set,
            shared_pool=shared_pool,
            mempool_cls=mempool_cls,
            consensus_cls=consensus_cls,
            durability=config.durability,
            data_dir=data_dir,
            attach_executor=config.attach_executor,
        ))

    generator = WorkloadGenerator(
        sim=sim,
        replicas=replicas,
        rate_tps=config.rate_tps,
        tx_payload=protocol.tx_payload,
        selector=make_selector(config),
        mode=config.workload_mode,
        offered_clients=config.offered_clients,
    )

    for replica in replicas:
        replica.start()
    generator.start()

    injector: Optional[FaultInjector] = None
    if config.faults is not None:
        injector = FaultInjector(
            sim=sim,
            network=network,
            replicas=replicas,
            metrics=metrics,
            rng=rng.stream("faults"),
        )
        injector.install(config.faults)

    experiment = RunningExperiment(
        config=config,
        sim=sim,
        network=network,
        topology=topology,
        replicas=replicas,
        metrics=metrics,
        generator=generator,
        injector=injector,
        oracles=oracles,
        data_dir=data_dir,
    )
    if oracles is not None:
        oracles.attach(experiment)
    return experiment


def summarize(
    experiment: RunningExperiment, wall_clock_s: float = 0.0
) -> RunResult:
    """Measure the window ``[warmup, warmup + duration)``."""
    oracles = experiment.oracles
    return measure_window(
        experiment.config,
        experiment.metrics,
        emitted_tx=experiment.generator.emitted_tx_count,
        violations=list(oracles.violations) if oracles is not None else [],
        events_processed=experiment.sim.processed,
        wall_clock_s=wall_clock_s,
        net_bytes_sent=experiment.network.stats.total_bytes(),
        network=experiment.network,
    )


def run_experiment(
    config: ExperimentConfig,
    oracles: Optional[object] = None,
    *,
    mempool_cls: Optional[type] = None,
    consensus_cls: Optional[type] = None,
) -> RunResult:
    """Build, run, and summarize in one call."""
    return build_experiment(
        config, oracles,
        mempool_cls=mempool_cls, consensus_cls=consensus_cls,
    ).run()
