"""Replay live protocol events through the real invariant oracles.

Every replica process records its commits and microblock creations as
wire-encoded events (:class:`repro.live.replica_proc.LiveRecorder`).
The orchestrator merges the streams, sorts by wall-clock time, decodes
them back into protocol objects, and feeds them through the *unchanged*
:class:`~repro.verification.oracles.SafetyOracle` and
:class:`~repro.verification.oracles.LedgerOracle` — the acceptance bar
is that the live run satisfies the same invariants the simulator is held
to.

The other three oracles are not replayed. The availability and
conservation oracles inspect live mempool state (stores, proofs,
queues), which is gone once the processes exit. The liveness oracle
reads a run's metrics hub and clock; a live chaos run's fault windows
are judged instead by the per-window recovery metrics in its merged
report.
"""

from __future__ import annotations

from types import SimpleNamespace

from repro.harness.config import ExperimentConfig
from repro.live.wire import from_wire
from repro.verification.oracles import LedgerOracle, SafetyOracle, Violation

__all__ = ["verify_events"]


class _LiveSuite:
    """Duck-typed stand-in for :class:`OracleSuite` during replay.

    Oracles touch exactly three suite surfaces when reporting and
    finalizing: ``record``, ``now``, and
    ``experiment.generator.emitted_tx_count``. ``now`` is stepped to
    each event's recorded time so violation timestamps point at the
    offending event.
    """

    def __init__(self, emitted_tx: int, config: ExperimentConfig) -> None:
        self.violations: list[Violation] = []
        self.now = 0.0
        self.experiment = SimpleNamespace(
            generator=SimpleNamespace(emitted_tx_count=emitted_tx),
            config=config,
        )

    def record(self, violation: Violation) -> None:
        self.violations.append(violation)


def verify_events(
    events: list[dict], emitted_tx: int, config: ExperimentConfig
) -> list[Violation]:
    """Run the safety and SMP-integrity oracles over recorded events.

    ``events`` is the merged per-replica record list
    (``{"t", "node", "kind", "data"}`` with wire-encoded data); returns
    every violation found, empty meaning the live run passed. ``config``
    is the run's own: a Stratus run gets the shard-aware ledger checks.
    """
    suite = _LiveSuite(emitted_tx, config)
    oracles = [SafetyOracle(), LedgerOracle()]
    for oracle in oracles:
        oracle.bind(suite)
        oracle.on_attach()

    for event in sorted(events, key=lambda e: (e["t"], e["node"])):
        suite.now = event["t"]
        replica = SimpleNamespace(node_id=event["node"])
        data = from_wire(event["data"])
        for oracle in oracles:
            if event["kind"] == "commit":
                oracle.on_local_commit(replica, data)
            elif event["kind"] == "mb":
                oracle.on_microblock_created(replica, data)

    for oracle in oracles:
        oracle.finalize()
    return suite.violations
