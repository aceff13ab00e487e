"""What one run reports, whichever back end ran it.

:func:`measure_window` turns a finished run's :class:`MetricsHub` into a
:class:`RunResult`. The simulator (``runner.summarize``), a parallel
worker (which ships ``result.to_dict()`` back to its parent) and the
live orchestrator (over the hub it replays from the replicas' event
logs) all report through it, so a table, an aggregate or a differential
check reads the same fields from any of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.config import decode_fields, encode_fields
from repro.harness.config import ExperimentConfig
from repro.metrics import MetricsHub, WeightedDigest, commit_sequence_hash

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim import Network

#: Latency percentiles every result carries as plain data. Benchmarks
#: and the CLI only ever render p50/p95/p99; a result that still holds
#: its ``latency`` digest answers any percentile.
RESULT_PERCENTILES = (50, 95, 99)

#: In-process handles: live objects of the run that produced the result.
#: They are not serialised, not compared, and ``None`` after
#: :meth:`RunResult.from_dict`.
HANDLES = ("metrics", "network", "latency")
_HANDLE_FIELD = dict(default=None, repr=False, compare=False)


@dataclass
class RunResult:
    """One run's measurement window: plain data plus three handles."""

    label: str
    seed: int
    throughput_tps: float
    latency_mean: float
    latency_percentiles: dict
    committed_blocks: int
    committed_tx: int
    emitted_tx: int
    view_changes: int
    #: Determinism fingerprint over the committed sequence (block id,
    #: commit time, tx count, microblock count): serial, parallel and
    #: repeated runs of one config and seed must agree on it.
    commit_hash: str
    #: Invariant-oracle violations (empty when no suite was armed).
    violations: list = field(default_factory=list)
    #: Simulator events executed (0 for a live run) and the host seconds
    #: the run took (0.0 when a simulation was driven by hand).
    events_processed: int = 0
    wall_clock_s: float = 0.0
    fetch_count: int = 0
    forwarded_microblocks: int = 0
    #: Bytes serialized network-wide (``NetworkStats.total_bytes``);
    #: benches divide by n for mean per-replica link load.
    net_bytes_sent: float = 0.0
    #: Per-fault-window recovery metrics (``MetricsHub.fault_report``);
    #: None when the run had no fault schedule.
    fault_report: Optional[list] = None
    #: Durable-executor recovery rows; None without a durability layer.
    #: Durations are host wall clock — keep them out of determinism-gated
    #: output.
    recovery_report: Optional[list] = None
    #: ``(t, tx/s)`` throughput buckets, when the caller asked for them.
    timeline: Optional[list] = None
    #: Live runs only: one row per replica incarnation, the process
    #: faults as applied (scheduled vs actual wall time), the frame codec.
    per_replica: list = field(default_factory=list)
    fault_timeline: list = field(default_factory=list)
    wire_codec: Optional[str] = None

    metrics: Optional[MetricsHub] = field(**_HANDLE_FIELD)
    network: Optional["Network"] = field(**_HANDLE_FIELD)
    latency: Optional[WeightedDigest] = field(**_HANDLE_FIELD)

    @property
    def ok(self) -> bool:
        return not self.violations and self.committed_blocks > 0

    @property
    def events_per_sec(self) -> float:
        """Host-side event-loop rate of a simulated run."""
        if self.wall_clock_s <= 0:
            return 0.0
        return self.events_processed / self.wall_clock_s

    def latency_percentile(self, p: float) -> float:
        """Any percentile while the digest is held, else the carried ones."""
        if self.latency is not None:
            return self.latency.percentile(p)
        if p not in self.latency_percentiles:
            raise ValueError(
                f"result only carries percentiles "
                f"{sorted(self.latency_percentiles)}, asked for {p}"
            )
        return self.latency_percentiles[p]

    def to_dict(self) -> dict:
        """JSON-able form, without the handles.

        The one place ``inf`` (a fault window that never healed, a stall
        that never ended) becomes ``None``; :meth:`from_dict` is the one
        place it comes back, with the tuples JSON turns into lists.
        """
        data = encode_fields(
            self,
            violations=lambda vs: [v.to_dict() for v in vs],
            fault_report=lambda rows: [
                {k: None if v == math.inf else v for k, v in row.items()}
                for row in rows
            ],
        )
        for name in HANDLES:
            del data[name]
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "RunResult":
        from repro.verification.oracles import Violation

        return decode_fields(
            cls, data,
            latency_percentiles=lambda ps: {int(p): v for p, v in ps.items()},
            violations=lambda vs: [Violation.from_dict(v) for v in vs],
            fault_report=lambda rows: [
                {
                    k: math.inf if v is None
                    else tuple(v) if k == "nodes" else v
                    for k, v in row.items()
                }
                for row in rows
            ],
            timeline=lambda points: [tuple(point) for point in points],
        )


def measure_window(
    config: ExperimentConfig,
    metrics: MetricsHub,
    *,
    emitted_tx: int,
    violations: list,
    **known,
) -> RunResult:
    """Measure ``[warmup, warmup + duration)`` of a finished run.

    ``known`` holds the fields a back end knows and the hub does not
    (event count and wall clock, the network handle and bytes sent, a
    live run's per-replica rows).
    """
    start, end = config.warmup, config.end_time
    latency = metrics.latency_stats(start, end)
    commits = metrics.commits
    measured = dict(
        label=config.label or (
            f"{config.protocol.mempool}/{config.protocol.consensus}"
            f"-n{config.protocol.n}-{config.topology_kind}"
        ),
        seed=config.seed,
        throughput_tps=metrics.throughput_tps(start, end),
        latency_mean=latency.mean,
        latency_percentiles={
            p: latency.percentile(p) for p in RESULT_PERCENTILES
        },
        committed_blocks=len(commits),
        committed_tx=metrics.committed_tx_total,
        emitted_tx=emitted_tx,
        view_changes=metrics.view_change_count,
        commit_hash=commit_sequence_hash(commits),
        violations=violations,
        fetch_count=metrics.fetch_count,
        forwarded_microblocks=metrics.forwarded_microblocks,
        fault_report=(
            metrics.fault_report() if config.faults is not None else None
        ),
        recovery_report=(
            metrics.recovery_report()
            if config.durability is not None else None
        ),
        metrics=metrics,
        latency=latency,
    )
    measured.update(known)
    return RunResult(**measured)
