"""Declarative fault schedules.

A schedule is an ordered list of timed :class:`FaultEvent` objects. Times
are absolute simulated seconds (the warmup phase counts), so a schedule
written for one experiment replays bit-for-bit in another with the same
seed. Schedules round-trip through JSON for the CLI's ``--faults`` flag::

    [{"event": "crash", "at": 2.0, "node": 3},
     {"event": "restart", "at": 4.0, "node": 3},
     {"event": "partition", "at": 2.5, "duration": 1.0, "groups": [[0, 1]]},
     {"event": "loss", "at": 2.0, "duration": 2.0, "rate": 0.2,
      "channel": "data"},
     {"event": "bandwidth", "at": 1.0, "duration": 2.0, "factor": 0.1,
      "nodes": [0]},
     {"event": "delay", "at": 5.0, "duration": 10.0, "base": 0.1,
      "jitter": 0.05, "bandwidth_factor": 0.15},
     {"event": "swap", "at": 3.0, "node": 2, "behavior": "censor"}]

Every event that opens a disturbance interval (a crash awaiting its
restart, a partition awaiting its heal, a loss/bandwidth/delay window)
resolves to one :class:`~repro.faults.windows.Window` via
:meth:`FaultSchedule.windows` — the form the metrics hub reports
recovery per, and the form both network backends evaluate link faults
from (:class:`~repro.faults.windows.LinkFaults`).
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

from repro.faults.windows import Window
from repro.replica.behavior import BEHAVIOR_KINDS

CHANNEL_NAMES = ("consensus", "control", "data")


@dataclass(frozen=True)
class FaultEvent:
    """Base class: one timed event on the chaos timeline."""

    at: float

    def validate(self, n: int) -> None:
        if self.at < 0:
            raise ValueError(f"fault event time must be >= 0, got {self.at}")

    def _check_node(self, node: int, n: int) -> None:
        if not 0 <= node < n:
            raise ValueError(f"fault event node {node} outside [0, {n})")


@dataclass(frozen=True)
class CrashReplica(FaultEvent):
    """Crash ``node``: flush its network queues, silence it, freeze its
    consensus timers. State held before the crash survives (crash-recovery
    model with durable protocol state; see DESIGN.md)."""

    node: int = 0

    def validate(self, n: int) -> None:
        super().validate(n)
        self._check_node(self.node, n)


@dataclass(frozen=True)
class RestartReplica(FaultEvent):
    """Restart a previously crashed ``node``: re-enable its network
    endpoint, restore its pre-crash behavior, re-arm consensus timers.
    The replica resyncs through the ordinary chain-sync / PAB-fetch
    paths — restart itself transfers no state."""

    node: int = 0

    def validate(self, n: int) -> None:
        super().validate(n)
        self._check_node(self.node, n)


@dataclass(frozen=True)
class Partition(FaultEvent):
    """Bidirectional set-based partition.

    ``groups`` lists disjoint replica groups; replicas in different groups
    cannot exchange messages, and replicas not named in any group form one
    implicit remainder group. ``duration`` heals the partition
    automatically; alternatively a later :class:`Heal` event with a
    matching ``label`` ends it.
    """

    groups: tuple[tuple[int, ...], ...] = ()
    duration: Optional[float] = None
    label: str = ""

    def validate(self, n: int) -> None:
        super().validate(n)
        if not self.groups:
            raise ValueError("partition needs at least one group")
        seen: set[int] = set()
        for group in self.groups:
            if not group:
                raise ValueError("partition groups must be non-empty")
            for node in group:
                self._check_node(node, n)
                if node in seen:
                    raise ValueError(
                        f"node {node} appears in two partition groups"
                    )
                seen.add(node)
        if self.duration is not None and self.duration <= 0:
            raise ValueError("partition duration must be positive")


@dataclass(frozen=True)
class Heal(FaultEvent):
    """Heal active partitions: those with a matching ``label``, or every
    active partition when the label is empty."""

    label: str = ""


@dataclass(frozen=True)
class LossWindow(FaultEvent):
    """Drop each matching message with probability ``rate`` during
    ``[at, at + duration)``. Empty ``kinds``/``nodes`` match everything;
    ``kinds`` entries are message-kind prefixes (``"mb"`` matches
    ``"mb.fetch"``); ``nodes`` matches source or destination."""

    duration: float = 0.0
    rate: float = 0.1
    kinds: tuple[str, ...] = ()
    channel: Optional[str] = None  # "consensus" | "control" | "data"
    nodes: tuple[int, ...] = ()

    def validate(self, n: int) -> None:
        super().validate(n)
        if self.duration <= 0:
            raise ValueError("loss window duration must be positive")
        if not 0.0 < self.rate <= 1.0:
            raise ValueError(f"loss rate must be in (0, 1], got {self.rate}")
        if self.channel is not None and self.channel not in CHANNEL_NAMES:
            raise ValueError(
                f"channel must be one of {CHANNEL_NAMES}, got {self.channel!r}"
            )
        for node in self.nodes:
            self._check_node(node, n)


@dataclass(frozen=True)
class BandwidthSqueeze(FaultEvent):
    """Scale egress bandwidth of ``nodes`` (all replicas when empty) by
    ``factor`` during ``[at, at + duration)``. Overlapping squeezes on the
    same node stack multiplicatively."""

    duration: float = 0.0
    factor: float = 0.5
    nodes: tuple[int, ...] = ()

    def validate(self, n: int) -> None:
        super().validate(n)
        if self.duration <= 0:
            raise ValueError("bandwidth squeeze duration must be positive")
        if self.factor <= 0:
            raise ValueError(f"bandwidth factor must be > 0, got {self.factor}")
        for node in self.nodes:
            self._check_node(node, n)


@dataclass(frozen=True)
class DelaySpike(FaultEvent):
    """Network-wide delay disturbance: every message sees ``base`` ±
    ``jitter`` one-way delay during ``[at, at + duration)``, with link
    bandwidth scaled by ``bandwidth_factor`` — the Fig. 7 NetEm window
    (the paper's round trip fluctuates between 100 and 300 ms; one-way
    figures are half).

    ``bandwidth_factor`` models what heavy jitter does to TCP bulk
    transfers: reordering is mistaken for loss, so the goodput of large
    flows collapses while small control messages still get through (a
    documented substitution for full TCP dynamics; see DESIGN.md)."""

    duration: float = 0.0
    base: float = 0.1
    jitter: float = 0.0
    bandwidth_factor: float = 1.0

    def validate(self, n: int) -> None:
        super().validate(n)
        if self.duration <= 0:
            raise ValueError("delay spike duration must be positive")
        if self.base < 0 or self.jitter < 0:
            raise ValueError("delay base and jitter must be >= 0")
        if not 0.0 < self.bandwidth_factor <= 1.0:
            raise ValueError(
                "bandwidth_factor must be in (0, 1], "
                f"got {self.bandwidth_factor}"
            )


@dataclass(frozen=True)
class SwapBehavior(FaultEvent):
    """Swap ``node``'s behavior mid-run (e.g. turn it Byzantine).

    ``behavior`` is one of :data:`repro.replica.behavior.BEHAVIOR_KINDS`.
    """

    node: int = 0
    behavior: str = "honest"

    def validate(self, n: int) -> None:
        super().validate(n)
        self._check_node(self.node, n)
        if self.behavior not in BEHAVIOR_KINDS:
            raise ValueError(
                f"behavior must be one of {BEHAVIOR_KINDS}, "
                f"got {self.behavior!r}"
            )


_EVENT_NAMES = {
    "crash": CrashReplica,
    "restart": RestartReplica,
    "partition": Partition,
    "heal": Heal,
    "loss": LossWindow,
    "bandwidth": BandwidthSqueeze,
    "delay": DelaySpike,
    "swap": SwapBehavior,
}

_EVENT_CLASSES = {cls: name for name, cls in _EVENT_NAMES.items()}

_TUPLE_FIELDS = ("kinds", "nodes")


def _event_to_dict(event: FaultEvent) -> dict:
    name = _EVENT_CLASSES.get(type(event))
    if name is None:
        raise ValueError(f"unknown fault event class {type(event).__name__}")
    spec: dict = {"event": name}
    for f in dataclasses.fields(event):
        value = getattr(event, f.name)
        default = f.default
        if default is not dataclasses.MISSING and value == default:
            continue
        if f.name == "groups":
            value = [list(group) for group in value]
        elif isinstance(value, tuple):
            value = list(value)
        spec[f.name] = value
    return spec


def _event_from_dict(entry: dict) -> FaultEvent:
    spec = dict(entry)
    name = spec.pop("event", None)
    if name not in _EVENT_NAMES:
        raise ValueError(
            f"unknown fault event {name!r}; "
            f"choose from {sorted(_EVENT_NAMES)}"
        )
    if "groups" in spec:
        spec["groups"] = tuple(tuple(group) for group in spec["groups"])
    for key in _TUPLE_FIELDS:
        if key in spec:
            spec[key] = tuple(spec[key])
    try:
        return _EVENT_NAMES[name](**spec)
    except TypeError as exc:
        raise ValueError(f"bad {name!r} event spec {entry!r}: {exc}") from exc


@dataclass(frozen=True)
class FaultSchedule:
    """An immutable, time-ordered list of fault events."""

    events: tuple[FaultEvent, ...] = ()

    def __init__(self, events: Sequence[FaultEvent] = ()) -> None:
        ordered = tuple(sorted(events, key=lambda event: event.at))
        object.__setattr__(self, "events", ordered)

    @classmethod
    def from_spec(cls, spec: Sequence[dict]) -> "FaultSchedule":
        """Build a schedule from a list of plain dicts (parsed JSON)."""
        if isinstance(spec, dict):
            spec = [spec]
        return cls([_event_from_dict(entry) for entry in spec])

    @classmethod
    def from_json(cls, text: str) -> "FaultSchedule":
        """Parse the CLI's JSON schedule format."""
        return cls.from_spec(json.loads(text))

    def to_spec(self) -> list[dict]:
        """Plain-dict form; round-trips through :meth:`from_spec`.

        Fields left at their defaults are omitted, so the spec matches
        what a human would write in a ``--faults`` JSON file.
        """
        return [_event_to_dict(event) for event in self.events]

    def validate(self, n: int) -> None:
        """Check every event against a network of ``n`` replicas."""
        for event in self.events:
            event.validate(n)
        alive = set(range(n))
        for event in self.events:
            if isinstance(event, CrashReplica):
                if event.node not in alive:
                    raise ValueError(
                        f"node {event.node} crashed twice without a restart"
                    )
                alive.discard(event.node)
            elif isinstance(event, RestartReplica):
                if event.node in alive:
                    raise ValueError(
                        f"restart of node {event.node} without a prior crash"
                    )
                alive.add(event.node)

    def process_events(self) -> list[FaultEvent]:
        """The crash/restart timeline, in time order.

        These are the events a live backend realizes at the *process*
        level (SIGKILL + respawn) rather than inside the network fabric;
        the link faults reach it as :meth:`windows`.
        """
        return [
            event for event in self.events
            if isinstance(event, (CrashReplica, RestartReplica))
        ]

    def validate_live(self, n: int) -> None:
        """Validate for the live backend (stricter than :meth:`validate`).

        Behavior swaps have no live realization yet — a running OS
        process cannot be handed a new ``Behavior`` object over the wall
        — so schedules containing them are rejected up front instead of
        silently dropping the event.
        """
        self.validate(n)
        for event in self.events:
            if isinstance(event, SwapBehavior):
                raise ValueError(
                    "behavior swaps are not supported on the live backend "
                    f"(swap of node {event.node} at t={event.at})"
                )

    def windows(self) -> list[Window]:
        """Resolve the schedule into fault windows — the one resolution.

        Start order, schedule order breaking ties. A crash runs to its
        restart, a partition to the earlier of ``at + duration`` and the
        first later :class:`Heal` that matches it; either is unbounded
        (``end = inf``) when the schedule never closes it.
        """
        windows: list[Window] = []
        open_crashes: dict[int, int] = {}  # node -> index in ``windows``
        for event in self.events:
            if isinstance(event, CrashReplica):
                open_crashes[event.node] = len(windows)
                windows.append(Window(
                    "crash", event.at, math.inf, nodes=(event.node,),
                ))
            elif isinstance(event, RestartReplica):
                index = open_crashes.pop(event.node, None)
                if index is not None:
                    windows[index] = replace(windows[index], end=event.at)
            elif isinstance(event, Partition):
                windows.append(Window(
                    "partition", event.at,
                    math.inf if event.duration is None
                    else event.at + event.duration,
                    nodes=tuple(sorted(
                        node for group in event.groups for node in group
                    )),
                    label=event.label, groups=event.groups,
                ))
            elif isinstance(event, Heal):
                for index, window in enumerate(windows):
                    if (
                        window.kind == "partition" and window.end > event.at
                        and (not event.label or window.label == event.label)
                    ):
                        windows[index] = replace(window, end=event.at)
            elif isinstance(event, LossWindow):
                windows.append(Window(
                    "loss", event.at, event.at + event.duration,
                    nodes=event.nodes, rate=event.rate, kinds=event.kinds,
                    channel=event.channel,
                ))
            elif isinstance(event, BandwidthSqueeze):
                windows.append(Window(
                    "bandwidth", event.at, event.at + event.duration,
                    nodes=event.nodes, factor=event.factor,
                ))
            elif isinstance(event, DelaySpike):
                windows.append(Window(
                    "delay", event.at, event.at + event.duration,
                    base=event.base, jitter=event.jitter,
                    bandwidth_factor=event.bandwidth_factor,
                ))
        windows.sort(key=lambda window: window.start)
        return windows
