"""Declarative fault schedules.

A schedule is a start-ordered tuple of
:class:`~repro.faults.windows.Window` values, one per fault. Times are
absolute simulated seconds (the warmup phase counts), so a schedule
written for one experiment replays bit-for-bit in another with the same
seed. Schedules round-trip through JSON for the CLI's ``--faults`` flag,
one entry per window, ``end`` omitted when the fault never heals::

    [{"kind": "crash", "start": 2.0, "end": 4.0, "nodes": [3]},
     {"kind": "partition", "start": 2.5, "end": 3.5, "groups": [[0, 1]]},
     {"kind": "loss", "start": 2.0, "end": 4.0, "rate": 0.2,
      "channel": "data"},
     {"kind": "bandwidth", "start": 1.0, "end": 3.0, "factor": 0.1,
      "nodes": [0]},
     {"kind": "delay", "start": 5.0, "end": 15.0, "base": 0.1,
      "jitter": 0.05},
     {"kind": "bandwidth", "start": 5.0, "end": 15.0, "factor": 0.15},
     {"kind": "swap", "start": 3.0, "nodes": [2], "behavior": "censor"}]

A swap at ``start`` 0 is how a replica is Byzantine for the whole run:
it is built with that behavior and never leads. A ``bandwidth`` window
at ``start`` 0 with no ``end`` is how a replica's uplink is slower than
the run's base rate; one over a delay window's interval is the TCP
goodput collapse under that window's jitter (Fig. 7).

The windows are what the metrics hub reports recovery per and what both
network backends evaluate link faults from
(:class:`~repro.faults.windows.LinkFaults`); :meth:`FaultSchedule.timeline`
is the crash/restart/swap sequence both injectors execute.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from typing import Sequence

from repro.faults.windows import Window
from repro.replica.behavior import BEHAVIOR_KINDS

CHANNEL_NAMES = ("consensus", "control", "data")

#: Per kind, besides ``kind`` and ``start``: the keys an entry must
#: carry, and the keys it may carry.
_KEYS = {
    "crash": (("nodes",), ("end",)),
    "partition": (("groups",), ("end",)),
    "loss": (("end", "rate"), ("kinds", "channel", "nodes")),
    "bandwidth": (("factor",), ("end", "nodes")),
    "delay": (("end", "base"), ("jitter",)),
    "swap": (("nodes", "behavior"), ()),
}


def _real(value, key: str) -> float:
    if (
        isinstance(value, bool) or not isinstance(value, (int, float))
        or not math.isfinite(value)
    ):
        raise ValueError(f"{key!r} must be a finite number, got {value!r}")
    return float(value)


def _list(value, key: str, item: type) -> tuple:
    if not isinstance(value, list) or any(
        isinstance(entry, bool) or not isinstance(entry, item)
        for entry in value
    ):
        raise ValueError(
            f"{key!r} must be a list of {item.__name__}, got {value!r}"
        )
    return tuple(value)


def _str(value, key: str) -> str:
    if not isinstance(value, str):
        raise ValueError(f"{key!r} must be a string, got {value!r}")
    return value


_PARSERS = {
    "start": _real, "end": _real, "rate": _real, "factor": _real,
    "base": _real, "jitter": _real,
    "nodes": lambda value, key: _list(value, key, int),
    "groups": lambda value, key: tuple(
        _list(group, key, int) for group in _list(value, key, list)
    ),
    "kinds": lambda value, key: _list(value, key, str),
    "channel": _str, "behavior": _str,
}


def _window_from_dict(entry) -> Window:
    """Parse one ``--faults`` entry; every key and type is checked here."""
    if not isinstance(entry, dict):
        raise ValueError(f"a fault entry must be an object, got {entry!r}")
    kind = entry.get("kind")
    if kind not in _KEYS:
        raise ValueError(
            f"unknown fault kind {kind!r} in {entry!r}; "
            f"choose from {sorted(_KEYS)}"
        )
    required, optional = _KEYS[kind]
    missing = [key for key in ("start", *required) if key not in entry]
    unknown = sorted(
        set(entry) - {"kind", "start", *required, *optional}
    )
    if missing or unknown:
        raise ValueError(
            f"bad {kind!r} fault {entry!r}: "
            f"missing keys {missing}, unknown keys {unknown}"
        )
    try:
        fields = {
            key: _PARSERS[key](value, key)
            for key, value in entry.items() if key != "kind"
        }
    except ValueError as exc:
        raise ValueError(f"bad {kind!r} fault {entry!r}: {exc}") from exc
    return Window(kind, **fields)


_DEFAULTS = {
    field.name: field.default for field in dataclasses.fields(Window)
}


def _window_to_dict(window: Window) -> dict:
    required, optional = _KEYS[window.kind]
    spec: dict = {"kind": window.kind, "start": window.start}
    if window.end != math.inf:
        spec["end"] = window.end
    for key in (*required, *optional):
        value = getattr(window, key)
        if key == "end" or (key in optional and value == _DEFAULTS[key]):
            continue
        if key == "groups":
            value = [list(group) for group in value]
        elif isinstance(value, tuple):
            value = list(value)
        spec[key] = value
    return spec


def _check(window: Window, n: int) -> None:
    """Value ranges of one window against ``n`` replicas."""
    kind = window.kind
    if kind not in _KEYS:
        raise ValueError(f"unknown fault kind {kind!r}")
    if not 0 <= window.start < window.end:
        raise ValueError(
            f"{kind} window needs 0 <= start < end, "
            f"got [{window.start}, {window.end})"
        )
    if "end" in _KEYS[kind][0] and window.end == math.inf:
        raise ValueError(f"a {kind} window needs an end")
    if kind == "swap" and window.end != math.inf:
        raise ValueError("a swap has no end")
    for node in window.nodes:
        if not 0 <= node < n:
            raise ValueError(f"fault node {node} outside [0, {n})")
    if kind in ("crash", "swap") and len(window.nodes) != 1:
        raise ValueError(
            f"a {kind} names exactly one node, got {window.nodes}"
        )
    if kind == "partition":
        if not window.groups or not all(window.groups):
            raise ValueError("partition needs non-empty groups")
        if len(set(window.nodes)) != len(window.nodes):
            raise ValueError(
                f"partition groups {window.groups} are not disjoint"
            )
    elif kind == "loss":
        if not 0.0 < window.rate <= 1.0:
            raise ValueError(f"loss rate must be in (0, 1], got {window.rate}")
        if window.channel is not None and window.channel not in CHANNEL_NAMES:
            raise ValueError(
                f"channel must be one of {CHANNEL_NAMES}, "
                f"got {window.channel!r}"
            )
    elif kind == "bandwidth":
        if window.factor <= 0:
            raise ValueError(
                f"bandwidth factor must be > 0, got {window.factor}"
            )
    elif kind == "delay":
        if window.base < 0 or window.jitter < 0:
            raise ValueError("delay base and jitter must be >= 0")
    elif kind == "swap" and window.behavior not in BEHAVIOR_KINDS:
        raise ValueError(
            f"behavior must be one of {BEHAVIOR_KINDS}, "
            f"got {window.behavior!r}"
        )


@dataclass(frozen=True)
class FaultSchedule:
    """An immutable tuple of fault windows in start order (the given
    order breaking ties)."""

    windows: tuple[Window, ...] = ()

    def __init__(self, windows: Sequence[Window] = ()) -> None:
        ordered = tuple(sorted(windows, key=lambda window: window.start))
        object.__setattr__(self, "windows", ordered)

    @classmethod
    def from_spec(cls, spec: Sequence[dict]) -> "FaultSchedule":
        """Build a schedule from a list of plain dicts (parsed JSON)."""
        if not isinstance(spec, list):
            raise ValueError(
                f"a fault schedule is a list of entries, got {spec!r}"
            )
        return cls([_window_from_dict(entry) for entry in spec])

    @classmethod
    def from_json(cls, text: str) -> "FaultSchedule":
        """Parse the CLI's JSON schedule format."""
        return cls.from_spec(json.loads(text))

    def to_spec(self) -> list[dict]:
        """Plain-dict form; round-trips through :meth:`from_spec`.

        Optional fields left at their defaults are omitted, so the spec
        matches what a human would write in a ``--faults`` JSON file.
        """
        return [_window_to_dict(window) for window in self.windows]

    def validate(self, n: int) -> None:
        """Check every window against a network of ``n`` replicas, that
        no replica's crashes overlap, and that at most f = (n-1)//3
        replicas are Byzantine from the start."""
        down_until: dict[int, float] = {}  # node -> end of its last crash
        for window in self.windows:
            _check(window, n)
            if window.kind == "crash":
                node = window.nodes[0]
                if window.start < down_until.get(node, 0.0):
                    raise ValueError(
                        f"crashes of node {node} overlap at "
                        f"t={window.start}"
                    )
                down_until[node] = window.end
        byzantine, f = len(self.initial_behaviors()), (n - 1) // 3
        if byzantine > f:
            raise ValueError(
                f"{byzantine} replicas are Byzantine from the start; "
                f"n={n} tolerates f={f}"
            )

    def initial_behaviors(self) -> dict[int, str]:
        """Node -> behavior of each replica Byzantine from construction.

        A swap at ``start`` 0 is not an event: the last one naming a
        replica is the behavior it is built with, and a non-honest one
        keeps it out of the leader set.
        """
        at_start = {
            window.nodes[0]: window.behavior for window in self.windows
            if window.kind == "swap" and window.start == 0.0
        }
        return {
            node: kind for node, kind in at_start.items() if kind != "honest"
        }

    def validate_live(self, n: int) -> None:
        """Validate for the live backend (stricter than :meth:`validate`).

        Behavior swaps have no live realization yet — a running OS
        process cannot be handed a new ``Behavior`` object over the wall,
        nor is one built with it — so schedules containing them (at t=0
        too) are rejected up front instead of silently running honest.
        """
        self.validate(n)
        for window in self.windows:
            if window.kind == "swap":
                raise ValueError(
                    "behavior swaps are not supported on the live backend "
                    f"(swap of node {window.nodes[0]} at t={window.start})"
                )

    def timeline(self) -> list[tuple[float, str, Window]]:
        """``(at, "crash" | "restart" | "swap", window)`` in time order.

        A crash restarts at its ``end`` (never when unbounded); a swap
        acts at its ``start``, except at 0, where it is the replica's
        behavior from construction (:meth:`initial_behaviors`). Steps at
        one instant keep the order of their windows, so a restart comes
        before any crash or swap that starts at that instant (its own
        window started earlier).
        """
        steps: list[tuple[float, str, Window]] = []
        for window in self.windows:
            if window.kind == "crash":
                steps.append((window.start, "crash", window))
                if window.end != math.inf:
                    steps.append((window.end, "restart", window))
            elif window.kind == "swap" and window.start > 0.0:
                steps.append((window.start, "swap", window))
        steps.sort(key=lambda step: step[0])
        return steps
