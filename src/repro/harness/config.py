"""Experiment-level configuration (topology + workload + faults)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.config import ProtocolConfig, decode_fields, encode_fields
from repro.durability import DurabilityConfig
from repro.faults import FaultSchedule

TOPOLOGIES = ("lan", "wan")
SELECTORS = ("uniform", "zipf1", "zipf10")
FAULTS = ("none", "silent", "censor", "lying")


@dataclass
class ExperimentConfig:
    """Everything needed to build and run one experiment."""

    protocol: ProtocolConfig
    topology_kind: str = "lan"  # one of TOPOLOGIES
    bandwidth_bps: Optional[float] = None  # override topology default
    # Per-replica bandwidth overrides (node -> bits/s): models the
    # heterogeneous-capacity deployments of Problem-II.
    bandwidth_map: Optional[dict[int, float]] = None
    rate_tps: float = 10_000.0
    duration: float = 5.0
    warmup: float = 1.0
    seed: int = 1
    selector: str = "uniform"
    fault: str = "none"
    fault_count: int = 0
    attach_executor: bool = False
    priority_channels: bool = True
    #: Link model: "serial" store-and-forward (Appendix-A exact) or
    #: "fair-share" (concurrent transfers split uplink/downlink capacity).
    link_model: str = "serial"
    #: Workload mode: "ticks" (per-tick batches) or "aggregate"
    #: (lazily-replayed arrival streams; identical schedules, far fewer
    #: events — see DESIGN.md "Simulator scale-out").
    workload_mode: str = "ticks"
    #: Descriptive size of the client population the offered rate stands
    #: for (recorded in benchmark metadata; arrivals are aggregate either
    #: way, so simulation cost does not depend on it).
    offered_clients: Optional[int] = None
    #: Scripted fault schedule (crashes, partitions, loss, squeeze and
    #: delay windows...), realised by :class:`repro.faults.FaultInjector`.
    faults: Optional[FaultSchedule] = None
    #: Durable state machine (WAL + checkpoints); implies an executor on
    #: every replica. None keeps the purely in-memory KVStore.
    durability: Optional[DurabilityConfig] = None
    #: Root directory for per-replica data dirs; a temp dir per run when
    #: unset and durability is enabled.
    data_dir: Optional[str] = None
    label: str = ""

    def __post_init__(self) -> None:
        # link_model and workload_mode are checked by what consumes
        # them (Network, WorkloadGenerator), which own their choices.
        for name, choices in (
            ("topology_kind", TOPOLOGIES), ("selector", SELECTORS),
            ("fault", FAULTS),
        ):
            if getattr(self, name) not in choices:
                raise ValueError(
                    f"{name} must be one of {choices}, "
                    f"got {getattr(self, name)!r}"
                )
        if self.fault == "none" and self.fault_count:
            raise ValueError("fault_count requires a fault kind")
        if self.fault != "none" and self.fault_count <= 0:
            raise ValueError(f"fault {self.fault!r} requires fault_count > 0")
        if self.fault_count > self.protocol.f:
            raise ValueError(
                f"fault_count {self.fault_count} exceeds f={self.protocol.f}"
            )
        if self.duration <= 0 or self.warmup < 0:
            raise ValueError("duration must be > 0 and warmup >= 0")
        if self.bandwidth_bps is not None and self.bandwidth_bps <= 0:
            raise ValueError(
                f"bandwidth_bps must be > 0, got {self.bandwidth_bps}"
            )
        for node, bandwidth in (self.bandwidth_map or {}).items():
            if bandwidth <= 0:
                raise ValueError(
                    f"bandwidth_map[{node}] must be > 0, got {bandwidth}"
                )
        if self.offered_clients is not None and self.offered_clients <= 0:
            raise ValueError(
                f"offered_clients must be positive, got {self.offered_clients}"
            )
        if self.faults is not None:
            self.faults.validate(self.protocol.n)

    @property
    def end_time(self) -> float:
        return self.warmup + self.duration

    @property
    def byzantine_ids(self) -> frozenset[int]:
        """Faulty replicas take the highest ids (never in the leader set)."""
        n = self.protocol.n
        return frozenset(range(n - self.fault_count, n))

    def to_dict(self) -> dict:
        """JSON-able form; round-trips through :meth:`from_dict`.

        This is the spawn-safe wire format ``repro.parallel`` and the
        live spawn spec use to hand a run to another process. Plain
        fields serialise as they are; the nested objects (protocol, fault
        schedule, durability) and the int-keyed map each name their
        flattening here.
        """
        return encode_fields(
            self,
            protocol=ProtocolConfig.to_dict,
            bandwidth_map=lambda m: {str(node): bw for node, bw in m.items()},
            faults=FaultSchedule.to_spec,
            durability=DurabilityConfig.to_spec,
        )

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        return decode_fields(
            cls, data,
            protocol=ProtocolConfig.from_dict,
            bandwidth_map=lambda m: {int(node): bw for node, bw in m.items()},
            faults=FaultSchedule.from_spec,
            durability=DurabilityConfig.from_spec,
        )
