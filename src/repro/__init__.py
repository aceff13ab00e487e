"""repro: a reproduction of "Scaling Blockchain Consensus via a Robust
Shared Mempool" (Stratus, ICDE 2023).

The package implements the Stratus shared mempool — provably available
broadcast (PAB) plus distributed load balancing (DLB) — together with the
full substrate the paper's evaluation needs: a deterministic discrete-event
network simulator with bandwidth serialization, chained HotStuff (three-
and two-chain) and Streamlet consensus engines, four baseline mempools, Byzantine
behaviours, workload generation, and an experiment harness.

Quickstart::

    from repro import ExperimentConfig, run_experiment, tuned_protocol

    protocol = tuned_protocol("S-HS", n=16, topology_kind="lan")
    result = run_experiment(ExperimentConfig(
        protocol=protocol, rate_tps=20_000, duration=3.0, warmup=1.0,
    ))
    print(result.throughput_tps, result.latency_mean)
"""

from repro.config import ProtocolConfig
from repro.harness import (
    ExperimentConfig,
    RunResult,
    build_experiment,
    run_experiment,
    tuned_protocol,
)

__version__ = "1.0.0"

__all__ = [
    "ProtocolConfig",
    "ExperimentConfig",
    "RunResult",
    "build_experiment",
    "run_experiment",
    "tuned_protocol",
    "__version__",
]
