"""Discrete-event simulation substrate.

This package provides the deterministic event loop, seeded RNG streams,
network links with bandwidth serialization, and topology presets on which
every protocol in :mod:`repro` runs.
"""

from repro.sim.engine import Simulator, Timer
from repro.sim.interfaces import Envelope, Scheduler, TimerHandle, Transport
from repro.sim.rng import RngRegistry
from repro.sim.topology import Topology, lan_topology, wan_topology
from repro.sim.network import Channel, Network, NetworkStats

__all__ = [
    "Simulator", "Timer", "Scheduler", "TimerHandle", "Transport", "Envelope",
    "RngRegistry", "Topology", "lan_topology", "wan_topology", "Channel",
    "Network", "NetworkStats",
]
