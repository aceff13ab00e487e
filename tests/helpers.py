"""Shared test fixtures: a minimal replica harness for component tests.

``make_cluster`` builds a real simulator + network + replicas with the
requested mempool/consensus, small enough for unit-style protocol tests
but using the production wiring from the harness.
"""

from __future__ import annotations

import os
import time

from repro.config import MEMPOOL_KINDS, ProtocolConfig, ShardingConfig
from repro.faults import FaultSchedule, Window
from repro.harness import ExperimentConfig, build_experiment
from repro.types import TxBatch


def byzantine_schedule(n, count, behavior, windows=()):
    """``windows`` plus the ``count`` highest ids Byzantine from the
    start: a ``swap`` to ``behavior`` at t=0 each."""
    return FaultSchedule([
        *(Window("swap", 0.0, nodes=(node,), behavior=behavior)
          for node in range(n - count, n)),
        *windows,
    ])


def byzantine_nodes(config):
    """The replicas a config makes Byzantine from the start."""
    if config.faults is None:
        return frozenset()
    return frozenset(config.faults.initial_behaviors())


def make_cluster(
    n=4,
    mempool="stratus",
    consensus="hotstuff",
    topology="lan",
    rate_tps=0.0,
    duration=5.0,
    warmup=0.0,
    seed=1,
    fault="none",
    fault_count=0,
    selector="uniform",
    attach_executor=False,
    protocol_overrides=None,
    **experiment_overrides,
):
    """Build a running experiment with zero default client load.

    Tests inject traffic explicitly via ``inject`` or rely on the
    generator by passing ``rate_tps``. ``fault_count`` replicas, the
    highest ids, are ``fault`` Byzantine from the start
    (:func:`byzantine_schedule`).
    """
    if fault_count:
        faults = experiment_overrides.pop("faults", None)
        experiment_overrides["faults"] = byzantine_schedule(
            n, fault_count, fault, faults.windows if faults else (),
        )
    overrides = dict(protocol_overrides or {})
    overrides.setdefault("mempool", mempool)
    overrides.setdefault("consensus", consensus)
    overrides.setdefault("batch_bytes", 4 * 128)  # 4 txs per microblock
    overrides.setdefault("batch_timeout", 0.05)
    overrides.setdefault("empty_view_delay", 0.002)
    protocol = ProtocolConfig(n=n, **overrides)
    config = ExperimentConfig(
        protocol=protocol,
        topology_kind=topology,
        rate_tps=rate_tps,
        duration=duration,
        warmup=warmup,
        seed=seed,
        selector=selector,
        attach_executor=attach_executor,
        **experiment_overrides,
    )
    return build_experiment(config)


#: The two Stratus cells the PAB tests run, by the name their test ids
#: carry: unsharded, and ``sharded-stratus`` at two shards.
STRATUS_KINDS = ("stratus", "sharded-stratus")

#: Every mempool kind, plus the two-shard Stratus cell.
MEMPOOL_CELLS = (*MEMPOOL_KINDS, "sharded-stratus")


def mempool_fields(cell) -> dict:
    """The protocol fields of one cell of :data:`MEMPOOL_CELLS`."""
    if cell == "sharded-stratus":
        return {"mempool": "stratus", "sharding": ShardingConfig(shards=2)}
    return {"mempool": cell}


def stratus_cluster(kind, **kwargs):
    """A cluster per Stratus cell: n=4 flat (everyone is a push peer),
    or n=8 in 2 shards ({0,2,4,6} and {1,3,5,7}), where membership is a
    strict subset and non-members only ever see the certificate."""
    overrides = dict(kwargs.pop("protocol_overrides", None) or {})
    overrides.update(mempool_fields(kind))
    n = kwargs.pop("n", 4 if kind == "stratus" else 8)
    return make_cluster(n=n, protocol_overrides=overrides, **kwargs)


def inject(experiment, replica_id, count=4, payload=128):
    """Hand one client batch to a replica at the current sim time."""
    replica = experiment.replicas[replica_id]
    batch = TxBatch(
        count=count, payload_bytes=payload,
        mean_arrival=experiment.sim.now,
    )
    replica.on_client_batch(batch)
    return batch


def probe(command):
    """Executor plumbing probe: echo, sleep, raise or die on command.

    ``command`` is ``(action, arg)``. A module-level function, so a
    spawned worker imports it as ``tests.helpers``; it gives the
    executor's ordering, clean-exception, crash-isolation and early-close
    paths something deterministic to run without building a simulation.
    """
    action, arg = command
    if action == "sleep":
        time.sleep(arg)
    elif action == "raise":
        raise RuntimeError(arg)
    elif action == "exit":
        # A hard worker death (segfault, OOM-kill): no exception, no
        # result message, just a closed pipe and a non-zero exit code.
        os._exit(arg)
    return action, arg, os.getpid()
