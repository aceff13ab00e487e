"""Replay a live run's event logs into the simulator's own hub and oracles.

Every replica process streams its hub calls and observer taps as
JSONL records (:class:`repro.live.replica_proc.LiveRecorder`). The
orchestrator merges the streams of every incarnation, killed ones
included, and :func:`replay_events` feeds them in time order to one
:class:`~repro.metrics.MetricsHub` and one
:class:`~repro.verification.oracles.OracleSuite` holding the *unchanged*
:class:`~repro.verification.oracles.SafetyOracle` and
:class:`~repro.verification.oracles.LedgerOracle`. The hub is what the
run reports, as the simulator's is, and the acceptance bar is that the
live run satisfies the same invariants the simulator is held to.

The other three oracles are not replayed. The availability and
conservation oracles inspect live mempool state (stores, proofs,
queues), which is gone once the processes exit. A live chaos run's
fault windows are judged by the per-window recovery metrics of its
report, not by the liveness oracle.
"""

from __future__ import annotations

from types import SimpleNamespace

from repro.harness.config import ExperimentConfig
from repro.live.wire import from_wire
from repro.metrics import MetricsHub
from repro.verification.oracles import (
    LedgerOracle,
    OracleSuite,
    SafetyOracle,
    Violation,
)

__all__ = ["replay_events"]


def replay_events(
    events: list[dict], config: ExperimentConfig, emitted_tx: int
) -> tuple[MetricsHub, list[Violation]]:
    """The run's hub and the safety and SMP-integrity violations.

    ``events`` is the merged per-replica record list (``{"t", "node",
    "kind", "data"}``): a ``record_*`` kind is that hub call with
    ``data`` as its arguments, ``commit`` and ``mb`` are observer taps
    with wire-encoded data. The replay clock steps to each record's
    time, so hub stamps and violation times point at the event; it ends
    at ``config.end_time``. ``config`` is the run's own: its fault
    windows go to the hub, and a Stratus run gets the shard-aware ledger
    checks. No violations means the live run passed.
    """
    clock = SimpleNamespace(now=0.0)
    hub = MetricsHub(clock)
    if config.faults is not None:
        for window in config.faults.windows:
            hub.record_fault_window(window)
    suite = OracleSuite([SafetyOracle(), LedgerOracle()]).attach(
        SimpleNamespace(
            config=config, sim=clock, metrics=hub, replicas=[],
            generator=SimpleNamespace(emitted_tx_count=emitted_tx),
        )
    )
    taps = {"commit": suite.on_local_commit, "mb": suite.on_microblock_created}
    for event in sorted(events, key=lambda e: (e["t"], e["node"])):
        clock.now = event["t"]
        kind, data = event["kind"], event["data"]
        if kind in taps:
            taps[kind](SimpleNamespace(node_id=event["node"]), from_wire(data))
        else:
            getattr(hub, kind)(*data)
    clock.now = config.end_time
    return hub, suite.finalize()
