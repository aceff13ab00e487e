"""Scripted fault injection (the chaos layer).

A :class:`FaultSchedule` declares timed events — replica crashes and
restarts, set-based network partitions with automatic healing, loss
windows, bandwidth squeezes, delay spikes, and mid-run behavior swaps —
which :meth:`FaultSchedule.windows` resolves once into :class:`Window`
intervals. A :class:`FaultInjector` queues what is an event (crash,
restart, swap) on the simulator and hands the link windows to the
network as one :class:`LinkFaults`, evaluated at ``now`` as traffic
passes; it composes with user drop filters
(:meth:`repro.sim.network.Network.set_drop_filter` keeps working) and
records every window in the metrics hub so runs report per-window
throughput, commit gaps, and time-to-recover.

The same schedule also runs against the live asyncio TCP backend:
:meth:`FaultSchedule.process_events` is its process-level timeline
(SIGKILL + respawn) and the same windows, through the same
:class:`LinkFaults`, shape each replica's egress per frame
(:mod:`repro.live.chaos`).
"""

from repro.faults.schedule import (
    BandwidthSqueeze,
    CrashReplica,
    DelaySpike,
    FaultEvent,
    FaultSchedule,
    Heal,
    LossWindow,
    Partition,
    RestartReplica,
    SwapBehavior,
)
from repro.faults.windows import LinkFaults, Window
from repro.faults.injector import FaultInjector

__all__ = [
    "FaultEvent",
    "FaultSchedule",
    "FaultInjector",
    "LinkFaults",
    "Window",
    "CrashReplica",
    "RestartReplica",
    "Partition",
    "Heal",
    "LossWindow",
    "BandwidthSqueeze",
    "DelaySpike",
    "SwapBehavior",
]
