"""Realises a :class:`FaultSchedule` on the simulator.

A schedule is events and windows. The injector puts what is an *event*
on the queue — crash/restart call :meth:`repro.replica.node.Replica.crash`
and :meth:`~repro.replica.node.Replica.restart`, a behavior swap rebuilds
the replica's :class:`Behavior` from its name — and hands the *windows*
over: every one to the metrics hub, so
:meth:`repro.metrics.MetricsHub.fault_report` can compute per-window
throughput, commit gaps and time-to-recover, and the link kinds
(partition, loss, bandwidth, delay) to the network as one
:class:`~repro.faults.windows.LinkFaults`, which the topology and the
delivery path ask at ``now``. No queue event opens or closes a window.
"""

from __future__ import annotations

import random
from typing import Sequence, TYPE_CHECKING

from repro.faults.schedule import (
    CrashReplica,
    FaultSchedule,
    RestartReplica,
    SwapBehavior,
)
from repro.faults.windows import LinkFaults
from repro.metrics import MetricsHub
from repro.replica.behavior import behavior_for
from repro.sim.engine import Simulator
from repro.sim.network import Network

if TYPE_CHECKING:  # pragma: no cover
    from repro.replica.node import Replica


class FaultInjector:
    """Executes one fault schedule against a wired experiment."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        replicas: Sequence["Replica"],
        metrics: MetricsHub,
        rng: random.Random,
    ) -> None:
        self._sim = sim
        self._network = network
        self._replicas = list(replicas)
        self._metrics = metrics
        self._rng = rng
        self._installed = False

    def install(self, schedule: FaultSchedule) -> None:
        """Validate the schedule, hand its windows over, queue its events.

        Loss windows draw their coins from the injector's ``rng``.
        """
        if self._installed:
            raise RuntimeError("injector already holds a schedule")
        schedule.validate(len(self._replicas))
        self._installed = True
        windows = schedule.windows()
        for window in windows:
            self._metrics.record_fault_window(window)
        if any(window.kind != "crash" for window in windows):
            self._network.set_link_faults(LinkFaults(windows, self._rng))
        for event in schedule.events:
            if isinstance(event, CrashReplica):
                self._sim.schedule_at(
                    event.at, self._replicas[event.node].crash
                )
            elif isinstance(event, RestartReplica):
                self._sim.schedule_at(
                    event.at, self._replicas[event.node].restart
                )
            elif isinstance(event, SwapBehavior):
                self._sim.schedule_at(
                    event.at, lambda e=event: self._swap(e)
                )

    def _swap(self, event: SwapBehavior) -> None:
        replica = self._replicas[event.node]
        behavior = behavior_for(event.behavior, replica.config)
        if replica.crashed:
            # Swapping while down shapes what the node becomes on restart.
            replica._pre_crash_behavior = behavior
        else:
            replica.behavior = behavior
