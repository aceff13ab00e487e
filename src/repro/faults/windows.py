"""Fault windows: the one fault value, and the evaluator of its link kinds.

A fault is a frozen :class:`Window`: a half-open interval ``[start, end)``
on the backend's clock plus the kind's own parameters. A
:class:`~repro.faults.FaultSchedule` is a start-ordered tuple of them.
The metrics hub reports recovery per window; :class:`LinkFaults`
answers, for the link kinds (partition, loss, bandwidth, delay), the
three questions a network asks as traffic passes. The simulator
(``Topology`` / ``Network``) and the live runtime (``LinkShaper``) ask
this one class, so a schedule means the same thing on both: shaping is
a property of the link evaluated at ``now``, not a mutation somebody
must undo.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from repro.sim.interfaces import Channel


@dataclass(frozen=True)
class Window:
    """One fault's active interval ``[start, end)`` and its parameters.

    ``kind`` is ``crash``, ``partition``, ``loss``, ``bandwidth``,
    ``delay`` or ``swap``; ``end`` is ``math.inf`` for a fault never
    healed within the schedule (recovery gauges then report infinity,
    rendered as "never"). A crash or swap names its one replica in
    ``nodes``; a partition's ``nodes`` are derived from its ``groups``.
    A swap is an instant: at ``start`` the replica's behavior becomes
    ``behavior``, and it has no end. A ``bandwidth`` window scales its
    nodes' uplink by ``factor``: one from t=0 that never heals is a
    replica slower than the run's base rate. Fields past ``nodes``
    belong to one kind each and keep their defaults on the others.
    """

    kind: str
    start: float
    end: float = math.inf
    nodes: tuple[int, ...] = ()
    groups: tuple[tuple[int, ...], ...] = ()  # partition
    rate: float = 0.0  # loss
    kinds: tuple[str, ...] = ()  # loss: message-kind prefixes
    channel: Optional[str] = None  # loss
    factor: float = 1.0  # bandwidth
    base: float = 0.0  # delay
    jitter: float = 0.0  # delay
    behavior: str = ""  # swap

    def __post_init__(self) -> None:
        if self.kind == "partition":
            object.__setattr__(self, "nodes", tuple(sorted(
                node for group in self.groups for node in group
            )))


#: ``(src, dst, kind, channel) -> dropped`` for one partition or loss window.
_Predicate = Callable[[int, int, str, Channel], bool]


def _crosses(window: Window) -> _Predicate:
    """Partition predicate: src and dst sit in different groups (nodes
    named in no group form one implicit remainder group)."""
    group_of = {
        node: index
        for index, group in enumerate(window.groups) for node in group
    }
    rest = len(window.groups)
    return lambda src, dst, kind, channel: (
        group_of.get(src, rest) != group_of.get(dst, rest)
    )


def _lossy(window: Window, rng: random.Random) -> _Predicate:
    """Loss predicate: a frame the window's filters match is dropped
    with probability ``rate``; only a matching frame draws from ``rng``."""
    only = Channel[window.channel.upper()] if window.channel else None
    nodes, kinds, rate = window.nodes, window.kinds, window.rate
    return lambda src, dst, kind, channel: (
        (only is None or channel is only)
        and (not nodes or src in nodes or dst in nodes)
        and (not kinds or kind.startswith(kinds))
        and rng.random() < rate
    )


class LinkFaults:
    """Evaluates a schedule's link windows at an instant ``now``.

    A window is active while ``start <= now < end``. Windows are held in
    start order, schedule order breaking ties (the order a
    :class:`~repro.faults.FaultSchedule` holds them in), and tested in
    that order: the first partition or loss window that drops a frame
    decides it, the first active delay window sets the delay. Loss coins
    come from the ``rng`` given here, so a seeded evaluator replays
    exactly for the same frame sequence and clock readings. Crash and
    swap windows are not link faults and are skipped.
    """

    def __init__(self, windows: Sequence[Window], rng: random.Random) -> None:
        #: ``(start, end, predicate)`` of partition and loss windows.
        self.cuts: list[tuple[float, float, _Predicate]] = []
        self.delays: list[Window] = []
        self.squeezes: list[Window] = []
        for window in sorted(windows, key=lambda w: w.start):
            if window.kind == "partition":
                self.cuts.append((window.start, window.end, _crosses(window)))
            elif window.kind == "loss":
                self.cuts.append(
                    (window.start, window.end, _lossy(window, rng))
                )
            elif window.kind == "delay":
                self.delays.append(window)
            elif window.kind == "bandwidth":
                self.squeezes.append(window)
            elif window.kind not in ("crash", "swap"):
                raise ValueError(f"unknown fault window kind {window.kind!r}")

    def drops(
        self, now: float, src: int, dst: int, kind: str, channel: Channel
    ) -> bool:
        """Whether a frame ``src -> dst`` passing at ``now`` is dropped."""
        for start, end, matches in self.cuts:
            if start <= now < end and matches(src, dst, kind, channel):
                return True
        return False

    def delay(self, now: float, rng: random.Random) -> Optional[float]:
        """The one-way delay of a frame sent at ``now`` inside a delay
        window, jitter drawn from the caller's stream; ``None`` outside
        every window (the link's own delay applies)."""
        for window in self.delays:
            if window.start <= now < window.end:
                return max(
                    0.0,
                    window.base + rng.uniform(-window.jitter, window.jitter),
                )
        return None

    def squeeze_factor(self, now: float, node: int) -> float:
        """What ``node``'s egress bandwidth is scaled by at ``now``:
        the product of its active squeezes."""
        factor = 1.0
        for window in self.squeezes:
            if window.start <= now < window.end and (
                not window.nodes or node in window.nodes
            ):
                factor *= window.factor
        return factor
