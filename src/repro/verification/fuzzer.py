"""Randomized scenario fuzzer driven by a single root seed.

One integer root seed determines everything: iteration ``i`` derives its
own RNG stream (``scenario.{i}``) from an :class:`RngRegistry`, draws a
protocol/mempool/topology/workload combination and a randomized
self-healing :class:`FaultSchedule`, and runs the experiment with the
invariant oracles armed. The per-run simulation seed is itself derived
from the registry, so replaying a recorded scenario reproduces the run
bit-for-bit — the FoundationDB-style property the shrinker depends on.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.config import (
    CONSENSUS_KINDS,
    ProtocolConfig,
    decode_fields,
    encode_fields,
)
from repro.faults.schedule import FaultSchedule
from repro.harness.config import ExperimentConfig
from repro.harness.result import RunResult
from repro.harness.runner import run_experiment
from repro.metrics import commit_sequence_hash as metrics_commit_hash
from repro.sim.rng import RngRegistry
from repro.verification.oracles import Violation, standard_suite

#: Protocol overrides shared by every fuzz scenario: small microblocks
#: and fast timers so short simulated runs still exercise full commit
#: pipelines (mirrors ``tests/helpers.py``).
QUICK_PROTOCOL = {
    "batch_bytes": 4 * 128,
    "batch_timeout": 0.05,
    "view_timeout": 0.5,
    "empty_view_delay": 0.002,
    "streamlet_epoch": 0.1,
    # Keep the production ratio between the fetch grace period (delta in
    # Algorithm 2) and the view timeout. Leaving delta at its 0.5s
    # default would make any fetch-gated vote take a full view, so every
    # view with a not-yet-disseminated microblock would time out.
    "fetch_timeout": 0.125,
}

#: Extra slack the fuzzer leaves between the last fault healing and the
#: end of the run, on top of the liveness bound.
LIVENESS_MARGIN = 0.5

FAULT_KINDS = ("crash", "partition", "loss", "bandwidth", "delay")

#: Mempool pool the fuzzer draws from. Pinned rather than
#: aliased to ``MEMPOOL_KINDS``: scenario ``i`` is a pure function of
#: the root seed *and this tuple*, so changing the global registry must
#: not silently re-point every recorded corpus cell at a different
#: configuration. The fuzzer draws no ``ProtocolConfig.sharding``; a
#: sharded run has its own hand-rolled corpus cell instead (see
#: ``tests/test_fuzz_corpus.py``).
FUZZ_MEMPOOL_KINDS = ("native", "simple", "gossip", "narwhal", "stratus")

#: The rest of the grid, pinned for the same reason (consensus is drawn
#: from ``CONSENSUS_KINDS``): replica counts, seconds measured, offered
#: tx/s.
FUZZ_N_CHOICES = (4, 5, 7)
FUZZ_DURATION_RANGE = (3.0, 5.0)
FUZZ_RATE_RANGE = (100.0, 600.0)


def default_liveness_bound(protocol: ProtocolConfig) -> float:
    """How long after a heal the liveness oracle allows the next commit.

    Several view timeouts (a view-change cascade may need to walk past
    every crashed leader) or epoch lengths, with a one-second floor.
    """
    return max(
        4 * protocol.view_timeout,
        8 * protocol.streamlet_epoch,
        1.0,
    )


def random_fault_schedule(
    rng: random.Random,
    n: int,
    consensus: str = "hotstuff",
    earliest: float = 0.5,
    deadline: float = 3.0,
    max_events: int = 4,
) -> list[dict]:
    """Draw a valid, self-healing fault-schedule spec from ``rng``.

    Every disturbance heals by ``deadline`` (crashes restart, partitions
    expire), at most ``f`` replicas ever crash, and PBFT's fixed leader
    (replica 0) is never crashed — constraints under which the liveness
    oracle's recovery bound is a fair demand.
    """
    if deadline - earliest < 0.2 or max_events <= 0:
        return []
    f = (n - 1) // 3
    crash_pool = [
        node for node in range(n)
        if not (consensus == "pbft" and node == 0)
    ]
    crashed: set[int] = set()
    spec: list[dict] = []
    for _ in range(rng.randint(1, max_events)):
        kind = rng.choice(FAULT_KINDS)
        start = round(rng.uniform(earliest, deadline - 0.2), 3)
        duration = round(rng.uniform(0.2, deadline - start), 3)
        if kind == "crash":
            pool = [node for node in crash_pool if node not in crashed]
            if len(crashed) >= f or not pool:
                continue
            node = rng.choice(pool)
            crashed.add(node)
            spec.append({
                "kind": "crash", "start": start,
                "end": round(start + duration, 3), "nodes": [node],
            })
            continue
        entry = {"kind": kind, "start": start, "end": start + duration}
        if kind == "partition":
            nodes = list(range(n))
            rng.shuffle(nodes)
            cut = rng.randint(1, n - 1)
            entry["groups"] = [sorted(nodes[:cut]), sorted(nodes[cut:])]
        elif kind == "loss":
            entry["rate"] = round(rng.uniform(0.05, 0.35), 3)
            channel = rng.choice(("data", "consensus", None))
            if channel is not None:
                entry["channel"] = channel
        elif kind == "bandwidth":
            entry["factor"] = round(rng.uniform(0.2, 0.7), 3)
            entry["nodes"] = sorted(rng.sample(
                range(n), rng.randint(1, max(1, n // 2))
            ))
        else:  # delay
            entry["base"] = round(rng.uniform(0.02, 0.08), 4)
            entry["jitter"] = round(rng.uniform(0.0, 0.04), 4)
            entry["bandwidth_factor"] = round(rng.uniform(0.4, 1.0), 3)
        spec.append(entry)
    spec.sort(key=lambda entry: entry["start"])
    return spec


@dataclass
class Scenario:
    """One fully determined fuzz case; JSON round-trips for artifacts.

    The derived configuration objects (protocol, fault schedule, full
    experiment config) are memoized per instance: the shrinker re-runs
    the same candidate scenario's config accessors in a tight loop, and
    rebuilding a :class:`FaultSchedule` from dicts each time was pure
    waste. Mutating ``fault_spec`` in place after a config accessor has
    been called is unsupported — use :meth:`replaced`, which returns a
    fresh (cache-empty) instance.
    """

    seed: int
    consensus: str
    mempool: str
    n: int
    duration: float
    topology: str = "lan"
    rate_tps: float = 500.0
    warmup: float = 0.5
    fault_spec: list = field(default_factory=list)
    index: int = 0
    root_seed: Optional[int] = None
    _protocol_cache: Optional[ProtocolConfig] = field(
        default=None, init=False, repr=False, compare=False,
    )
    _schedule_cache: Optional[FaultSchedule] = field(
        default=None, init=False, repr=False, compare=False,
    )
    _experiment_cache: Optional[ExperimentConfig] = field(
        default=None, init=False, repr=False, compare=False,
    )

    @property
    def label(self) -> str:
        return (
            f"fuzz[{self.index}]-{self.mempool}/{self.consensus}"
            f"-n{self.n}-seed{self.seed}"
        )

    def fault_schedule(self) -> Optional[FaultSchedule]:
        if not self.fault_spec:
            return None
        if self._schedule_cache is None:
            self._schedule_cache = FaultSchedule.from_spec(self.fault_spec)
        return self._schedule_cache

    def protocol_config(self) -> ProtocolConfig:
        if self._protocol_cache is None:
            self._protocol_cache = ProtocolConfig(
                n=self.n, consensus=self.consensus, mempool=self.mempool,
                **QUICK_PROTOCOL,
            )
        return self._protocol_cache

    def experiment_config(self) -> ExperimentConfig:
        if self._experiment_cache is None:
            self._experiment_cache = ExperimentConfig(
                protocol=self.protocol_config(),
                topology_kind=self.topology,
                rate_tps=self.rate_tps,
                duration=self.duration,
                warmup=self.warmup,
                seed=self.seed,
                faults=self.fault_schedule(),
                label=self.label,
            )
        return self._experiment_cache

    def to_dict(self) -> dict:
        return encode_fields(self)

    @classmethod
    def from_dict(cls, data: dict) -> "Scenario":
        return decode_fields(cls, data)

    def replaced(self, **changes) -> "Scenario":
        data = self.to_dict()
        data.update(changes)
        return Scenario.from_dict(data)


@dataclass
class FuzzOutcome:
    """Result of one oracle-armed scenario run."""

    scenario: Scenario
    violations: list
    committed_tx: int
    commit_hash: str
    events_processed: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return encode_fields(
            self,
            scenario=Scenario.to_dict,
            violations=lambda vs: [v.to_dict() for v in vs],
        )

    @classmethod
    def from_dict(cls, data: dict) -> "FuzzOutcome":
        return decode_fields(
            cls, data,
            scenario=Scenario.from_dict,
            violations=lambda vs: [Violation.from_dict(v) for v in vs],
        )


def commit_sequence_hash(result: RunResult) -> str:
    """Digest of the committed sequence — the determinism fingerprint.

    Two runs of the same scenario must produce identical hashes; any
    divergence means nondeterminism leaked into the simulation.
    """
    return metrics_commit_hash(
        result.metrics.commits, include_microblocks=False, length=16,
    )


def run_scenario(
    scenario: Scenario,
    liveness_bound: Optional[float] = None,
    strict_availability: bool = False,
    mempool_cls: Optional[type] = None,
    consensus_cls: Optional[type] = None,
) -> FuzzOutcome:
    """Run one scenario with the oracles armed."""
    suite = standard_suite(
        liveness_bound=liveness_bound,
        strict_availability=strict_availability,
    )
    result = run_experiment(
        scenario.experiment_config(), suite,
        mempool_cls=mempool_cls, consensus_cls=consensus_cls,
    )
    return FuzzOutcome(
        scenario=scenario,
        violations=list(result.violations),
        committed_tx=result.committed_tx,
        commit_hash=commit_sequence_hash(result),
        events_processed=result.events_processed,
    )


class ScenarioFuzzer:
    """Derives and runs scenarios from one root seed."""

    def __init__(self, root_seed: int) -> None:
        self.root_seed = root_seed
        self._registry = RngRegistry(root_seed)

    def scenario(self, index: int) -> Scenario:
        """Derive scenario ``index`` (pure function of the root seed)."""
        rng = self._registry.stream(f"scenario.{index}")
        consensus = rng.choice(CONSENSUS_KINDS)
        mempool = rng.choice(FUZZ_MEMPOOL_KINDS)
        n = rng.choice(FUZZ_N_CHOICES)
        duration = round(rng.uniform(*FUZZ_DURATION_RANGE), 3)
        rate = round(rng.uniform(*FUZZ_RATE_RANGE), 1)
        warmup = 0.5
        protocol = ProtocolConfig(
            n=n, consensus=consensus, mempool=mempool, **QUICK_PROTOCOL
        )
        bound = default_liveness_bound(protocol)
        deadline = warmup + duration - bound - LIVENESS_MARGIN
        fault_spec = random_fault_schedule(
            rng, n=n, consensus=consensus,
            earliest=warmup * 0.8, deadline=deadline,
        )
        return Scenario(
            seed=self._registry.derive_seed(f"scenario.{index}.run"),
            consensus=consensus,
            mempool=mempool,
            n=n,
            duration=duration,
            rate_tps=rate,
            warmup=warmup,
            fault_spec=fault_spec,
            index=index,
            root_seed=self.root_seed,
        )

    def run(
        self,
        iterations: int,
        start: int = 0,
        stop_on_failure: bool = False,
        on_outcome: Optional[Callable[[FuzzOutcome], None]] = None,
        jobs: int = 1,
        executor: Optional[object] = None,
    ) -> list[FuzzOutcome]:
        """Run ``iterations`` scenarios; optionally stop at first failure.

        Every width takes one path: ``jobs`` (or an explicit
        :class:`repro.parallel.ParallelExecutor`) sets how many worker
        processes the scenarios fan out across, ``1`` running each in
        this process. Outcomes are reported in submission (index) order,
        so the returned list is always the contiguous prefix
        ``start..k`` ending at the first failure under
        ``stop_on_failure``. Each scenario's simulation is seeded from
        the root seed alone, so the outcomes — including every
        commit-sequence hash — are bit-for-bit the same at any width.
        """
        from repro.parallel import ParallelExecutor, scenario_job

        if executor is None:
            executor = ParallelExecutor(jobs=jobs)
        specs = [
            scenario_job(self.scenario(index))
            for index in range(start, start + iterations)
        ]
        outcomes: list[FuzzOutcome] = []
        for job in executor.imap(specs):
            if job.error is not None:
                raise RuntimeError(
                    f"fuzz worker failed on {specs[job.index].label}: "
                    f"{job.error}"
                )
            outcome = FuzzOutcome.from_dict(job.value["outcome"])
            outcomes.append(outcome)
            if on_outcome is not None:
                on_outcome(outcome)
            if stop_on_failure and not outcome.ok:
                break  # imap cleanup cancels the still-running jobs
        return outcomes
