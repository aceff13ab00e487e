"""Shared test fixtures: a minimal replica harness for component tests.

``make_cluster`` builds a real simulator + network + replicas with the
requested mempool/consensus, small enough for unit-style protocol tests
but using the production wiring from the harness.
"""

from __future__ import annotations

from repro.config import ProtocolConfig, ShardingConfig
from repro.harness import ExperimentConfig, build_experiment
from repro.types import TxBatch


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
    generator by passing ``rate_tps``.
    """
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
        fault=fault,
        fault_count=fault_count,
        selector=selector,
        attach_executor=attach_executor,
        **experiment_overrides,
    )
    return build_experiment(config)


#: The two mempool kinds that share the PAB engine and Stratus mempool.
STRATUS_KINDS = ("stratus", "sharded-stratus")


def stratus_cluster(kind, **kwargs):
    """A cluster per Stratus kind: n=4 flat (everyone is a push peer),
    or n=8 in 2 shards ({0,2,4,6} and {1,3,5,7}), where membership is a
    strict subset and non-members only ever see the certificate."""
    if kind == "stratus":
        return make_cluster(n=kwargs.pop("n", 4), mempool=kind, **kwargs)
    overrides = dict(kwargs.pop("protocol_overrides", None) or {})
    overrides["sharding"] = ShardingConfig(shards=2)
    return make_cluster(
        n=kwargs.pop("n", 8), mempool=kind, protocol_overrides=overrides,
        **kwargs,
    )


def inject(experiment, replica_id, count=4, payload=128):
    """Hand one client batch to a replica at the current sim time."""
    replica = experiment.replicas[replica_id]
    batch = TxBatch(
        count=count, payload_bytes=payload,
        mean_arrival=experiment.sim.now,
    )
    replica.on_client_batch(batch)
    return batch
