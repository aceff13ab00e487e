"""Realises a :class:`FaultSchedule` on the simulator.

The injector queues the schedule's :meth:`~FaultSchedule.timeline` —
crash/restart call :meth:`repro.replica.node.Replica.crash` and
:meth:`~repro.replica.node.Replica.restart`, a behavior swap rebuilds
the replica's :class:`Behavior` from its name — and hands the windows
over: every fault window to the metrics hub, so
:meth:`repro.metrics.MetricsHub.fault_report` can compute per-window
throughput, commit gaps and time-to-recover, and the link kinds
(partition, loss, bandwidth, delay) to the network as one
:class:`~repro.faults.windows.LinkFaults`, which the topology and the
delivery path ask at ``now``. No queue event opens or closes a window.
"""

from __future__ import annotations

import random
from typing import Sequence, TYPE_CHECKING

from repro.faults.schedule import FaultSchedule
from repro.faults.windows import LinkFaults, Window
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
        """Validate the schedule, hand its windows over, queue its timeline.

        Loss windows draw their coins from the injector's ``rng``.
        """
        if self._installed:
            raise RuntimeError("injector already holds a schedule")
        schedule.validate(len(self._replicas))
        self._installed = True
        faults = [w for w in schedule.windows if w.kind != "swap"]
        for window in faults:
            self._metrics.record_fault_window(window)
        if any(window.kind != "crash" for window in faults):
            self._network.set_link_faults(LinkFaults(faults, self._rng))
        for at, step, window in schedule.timeline():
            replica = self._replicas[window.nodes[0]]
            if step == "crash":
                self._sim.schedule_at(at, replica.crash)
            elif step == "restart":
                self._sim.schedule_at(at, replica.restart)
            else:
                self._sim.schedule_at(at, lambda w=window: self._swap(w))

    def _swap(self, window: Window) -> None:
        replica = self._replicas[window.nodes[0]]
        behavior = behavior_for(window.behavior, replica.config)
        if replica.crashed:
            # Swapping while down shapes what the node becomes on restart.
            replica._pre_crash_behavior = behavior
        else:
            replica.behavior = behavior
