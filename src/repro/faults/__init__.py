"""Scripted fault injection (the chaos layer).

A fault is one :class:`Window`: an interval ``[start, end)`` and its
kind's parameters — a replica crash (restarting at ``end``), a set-based
network partition, a loss window, a bandwidth squeeze, a delay spike,
or a mid-run behavior swap (an instant at ``start``). A
:class:`FaultSchedule` holds a run's windows in start order. A
:class:`FaultInjector` queues the schedule's :meth:`~FaultSchedule.timeline`
(crash, restart, swap) on the simulator and hands the link windows to
the network as one :class:`LinkFaults`, evaluated at ``now`` as traffic
passes; it composes with user drop filters
(:meth:`repro.sim.network.Network.set_drop_filter` keeps working) and
records every fault window in the metrics hub so runs report per-window
throughput, commit gaps, and time-to-recover.

The same schedule also runs against the live asyncio TCP backend: its
timeline's crashes and restarts become SIGKILL + respawn, and the same
windows, through the same :class:`LinkFaults`, shape each replica's
egress per frame (:mod:`repro.live.chaos`).
"""

from repro.faults.schedule import FaultSchedule
from repro.faults.windows import LinkFaults, Window
from repro.faults.injector import FaultInjector

__all__ = ["FaultSchedule", "FaultInjector", "LinkFaults", "Window"]
