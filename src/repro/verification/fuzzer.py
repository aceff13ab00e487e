"""Randomized scenario fuzzer driven by a single root seed.

One integer root seed determines everything: iteration ``i`` derives its
own RNG stream (``scenario.{i}``) from an :class:`RngRegistry`, draws a
protocol/mempool/topology/workload combination and a randomized
self-healing :class:`FaultSchedule`, and returns them as one
:class:`ExperimentConfig` — a fuzz case is a config like any other run,
and its outcome the :class:`RunResult` the oracle-armed run returns. The
per-run simulation seed is itself derived from the registry, so
replaying a recorded case reproduces the run bit-for-bit — the
FoundationDB-style property the shrinker depends on.
"""

from __future__ import annotations

import random
from typing import Callable, Optional

from repro.config import CONSENSUS_KINDS, ProtocolConfig
from repro.faults.schedule import FaultSchedule
from repro.harness.config import ExperimentConfig
from repro.harness.result import RunResult
from repro.harness.runner import run_experiment
from repro.sim.rng import RngRegistry
from repro.verification.oracles import standard_suite

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


def run_scenario(
    config: ExperimentConfig,
    liveness_bound: Optional[float] = None,
    strict_availability: bool = False,
    mempool_cls: Optional[type] = None,
    consensus_cls: Optional[type] = None,
) -> RunResult:
    """Run one fuzz case with the oracles armed.

    The case fails exactly when ``violations`` is non-empty
    (``RunResult.ok`` also asks for a commit, which a case need not
    make).
    """
    suite = standard_suite(
        liveness_bound=liveness_bound,
        strict_availability=strict_availability,
    )
    return run_experiment(
        config, suite, mempool_cls=mempool_cls, consensus_cls=consensus_cls,
    )


class ScenarioFuzzer:
    """Derives and runs fuzz cases from one root seed."""

    def __init__(self, root_seed: int) -> None:
        self.root_seed = root_seed

    def scenario(self, index: int) -> ExperimentConfig:
        """Derive case ``index`` (pure function of the root seed).

        A fresh registry per call: a registry's stream continues where
        its last draw stopped, and a case must come out the same however
        often it is asked for (the CLI derives a failing case again to
        shrink it).
        """
        registry = RngRegistry(self.root_seed)
        rng = registry.stream(f"scenario.{index}")
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
        seed = registry.derive_seed(f"scenario.{index}.run")
        return ExperimentConfig(
            protocol=protocol,
            rate_tps=rate,
            duration=duration,
            warmup=warmup,
            seed=seed,
            faults=FaultSchedule.from_spec(fault_spec) if fault_spec else None,
            label=f"fuzz[{index}]-{mempool}/{consensus}-n{n}-seed{seed}",
        )

    def run(
        self,
        iterations: int,
        start: int = 0,
        stop_on_failure: bool = False,
        on_outcome: Optional[Callable[[RunResult], None]] = None,
        jobs: int = 1,
    ) -> list[RunResult]:
        """Run ``iterations`` cases; optionally stop at first failure.

        Every width takes one path: each case is an oracle-armed
        :func:`~repro.parallel.run_config` call, and ``jobs`` sets how
        many worker processes they fan out across, ``1`` running each in
        this process. Results are reported in submission (index) order,
        so the returned list is always the contiguous prefix
        ``start..k`` ending at the first failure under
        ``stop_on_failure``. Each case's simulation is seeded from the
        root seed alone, so the results — including every commit hash —
        are bit-for-bit the same at any width.
        """
        from repro.parallel import run_configs

        cases = (self.scenario(i) for i in range(start, start + iterations))
        results: list[RunResult] = []
        for result in run_configs(cases, jobs, oracles=True):
            results.append(result)
            if on_outcome is not None:
                on_outcome(result)
            if stop_on_failure and result.violations:
                break  # closing run_configs cancels the running cases
        return results
