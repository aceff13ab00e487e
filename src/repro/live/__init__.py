"""Live runtime: the real protocol stack over asyncio TCP.

This package runs the **unmodified** consensus + mempool + replica
classes from :mod:`repro` over real sockets, one OS process per replica.
It provides the second backend for the scheduler/transport seam defined
in :mod:`repro.sim.interfaces`:

========================  ==========================  ==========================
surface                   simulated backend           live backend
========================  ==========================  ==========================
:class:`Scheduler`        ``repro.sim.engine``        :class:`RealtimeScheduler`
:class:`Transport`        ``repro.sim.network``       :class:`LiveNetwork`
message encoding          in-memory object passing    :mod:`repro.live.wire`
workload                  ``repro.workload``          :mod:`repro.live.client`
process model             one process, n replicas     n processes + 1 client
========================  ==========================  ==========================

Entry point: :func:`repro.live.orchestrator.run_live` (CLI:
``python -m repro live``).

Chaos runs reuse the declarative :class:`repro.faults.FaultSchedule`:
crash/restart become SIGKILL + respawn, link faults become per-frame
egress shaping — see :mod:`repro.live.chaos`.
"""

from repro.live.orchestrator import LiveConfig, run_live
from repro.live.scheduler import RealtimeScheduler
from repro.live.wire import get_codec

__all__ = ["LiveConfig", "RealtimeScheduler", "get_codec", "run_live"]
