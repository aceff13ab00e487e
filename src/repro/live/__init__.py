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
crash/restart become SIGKILL + respawn (:class:`LiveFaultInjector`),
link faults become per-frame egress shaping (:class:`LinkShaper`) — see
:mod:`repro.live.chaos`.
"""

from repro.live.chaos import LinkShaper, LiveFaultInjector
from repro.live.orchestrator import LiveConfig, run_live
from repro.live.scheduler import RealtimeScheduler
from repro.live.wire import (
    CODECS,
    MESSAGE_REGISTRY,
    WireCodec,
    WireError,
    decode_frame,
    decode_frame_binary,
    encode_frame,
    encode_frame_binary,
    from_wire,
    get_codec,
    to_wire,
)

__all__ = [
    "LiveConfig",
    "run_live",
    "LinkShaper",
    "LiveFaultInjector",
    "RealtimeScheduler",
    "MESSAGE_REGISTRY",
    "CODECS",
    "WireCodec",
    "WireError",
    "get_codec",
    "encode_frame",
    "decode_frame",
    "encode_frame_binary",
    "decode_frame_binary",
    "to_wire",
    "from_wire",
]
