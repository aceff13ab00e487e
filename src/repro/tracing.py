"""Protocol event tracing.

A :class:`Tracer` attached to a replica records timestamped protocol
events (proposals, votes, commits, microblock lifecycle, DLB decisions)
into a bounded ring buffer. Tracing is opt-in: replicas default to no
tracer and every call site guards with a truthiness check, so the hot
path pays one attribute read when disabled.

Usage::

    from repro.tracing import Tracer
    experiment = build_experiment(config)
    tracer = Tracer()
    experiment.replicas[0].tracer = tracer
    experiment.run()
    for event in tracer.query(kind="commit"):
        print(event)
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterator, Optional


@dataclass(frozen=True)
class TraceEvent:
    """One protocol event at one replica."""

    time: float
    node: int
    kind: str
    details: dict = field(default_factory=dict)

    def __str__(self) -> str:
        fields = " ".join(
            f"{key}={value}" for key, value in sorted(self.details.items())
        )
        return f"[{self.time:10.6f}] r{self.node} {self.kind} {fields}".rstrip()


class Tracer:
    """Bounded in-memory event log."""

    def __init__(self, capacity: int = 100_000) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self._events: deque[TraceEvent] = deque(maxlen=capacity)

    def record(self, time: float, node: int, kind: str, **details) -> None:
        self._events.append(
            TraceEvent(time=time, node=node, kind=kind, details=details)
        )

    def query(
        self,
        kind: Optional[str] = None,
        node: Optional[int] = None,
        start: float = 0.0,
        end: float = float("inf"),
    ) -> Iterator[TraceEvent]:
        """Iterate events matching the filters, in recording order."""
        for event in self._events:
            if kind is not None and event.kind != kind:
                continue
            if node is not None and event.node != node:
                continue
            if not start <= event.time < end:
                continue
            yield event

    def counts(self) -> dict[str, int]:
        """Event counts by kind."""
        totals: dict[str, int] = {}
        for event in self._events:
            totals[event.kind] = totals.get(event.kind, 0) + 1
        return totals
