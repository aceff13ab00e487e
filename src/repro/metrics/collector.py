"""Run-wide metrics hub.

Commits are deduplicated by block id: the first (earliest simulated time)
correct replica to commit a block reports it, mirroring the server-side
measurement in the paper's benchmark. Throughput and latency queries take
a measurement window so warmup can be excluded.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.metrics.digest import WeightedDigest
from repro.sim.interfaces import Scheduler

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults.windows import Window


@dataclass
class CommitRecord:
    """One committed block as observed by the first committing replica."""

    block_id: int
    commit_time: float
    tx_count: int
    microblock_count: int


class MetricsHub:
    """Aggregates commits, latencies, and protocol events for one run."""

    def __init__(self, sim: Scheduler) -> None:
        self._sim = sim
        #: Block ids recorded so far: only a block's first report is
        #: kept, so reporters test this first.
        self.recorded: set[int] = set()
        # Commit-time order is maintained incrementally: commits arrive
        # in (almost always) nondecreasing simulated time, so the insort
        # is O(1) amortized and every windowed query below bisects
        # instead of re-sorting the full commit set.
        self._commit_times: list[float] = []
        self._commit_order: list[CommitRecord] = []
        self._tx_total = 0
        self._latency_samples: list[tuple[float, float, float]] = []
        self._view_changes: list[tuple[float, int, int]] = []
        self._stable_times = WeightedDigest()
        self._forwarded_microblocks = 0
        self._fetches = 0
        self._fetches_abandoned = 0
        self._fault_windows: list[Window] = []
        self._recoveries: list[dict] = []

    # -- recording ---------------------------------------------------------

    def record_commit(
        self,
        block_id: int,
        tx_count: int,
        microblock_count: int,
        latencies: list[tuple[float, float]],
        commit_time: Optional[float] = None,
    ) -> bool:
        """Record a block commit; returns False on duplicate block ids.

        ``latencies`` holds per-microblock ``(latency_seconds, tx_weight)``
        pairs computed against the commit time.
        """
        if block_id in self.recorded:
            return False
        self.recorded.add(block_id)
        when = self._sim.now if commit_time is None else commit_time
        record = CommitRecord(
            block_id=block_id,
            commit_time=when,
            tx_count=tx_count,
            microblock_count=microblock_count,
        )
        if not self._commit_times or when >= self._commit_times[-1]:
            self._commit_times.append(when)
            self._commit_order.append(record)
        else:
            # Out-of-order commit time (explicit commit_time in the
            # past): insert right of equal keys to keep ties in arrival
            # order, matching the stable sort this replaces.
            index = bisect_right(self._commit_times, when)
            self._commit_times.insert(index, when)
            self._commit_order.insert(index, record)
        self._tx_total += tx_count
        for latency, weight in latencies:
            if weight > 0:
                self._latency_samples.append((when, max(0.0, latency), weight))
        return True

    def record_view_change(self, replica: int, view: int) -> None:
        self._view_changes.append((self._sim.now, replica, view))

    def record_stable_time(self, seconds: float) -> None:
        self._stable_times.add(max(0.0, seconds))

    def record_forward(self) -> None:
        self._forwarded_microblocks += 1

    def record_fetch(self) -> None:
        self._fetches += 1

    def record_fetch_abandoned(self) -> None:
        """A fetch gave up after ``FETCH_MAX_ROUNDS`` retry rounds."""
        self._fetches_abandoned += 1

    def record_fault_window(self, window: Window) -> None:
        """Register one of the fault schedule's windows."""
        self._fault_windows.append(window)

    def record_recovery(self, node: int, info: dict) -> None:
        """Register one durable-executor recovery (restart or join).

        ``info`` is ``RecoveryInfo.to_dict()``: recovery source
        (checkpoint / wal / checkpoint+wal / snapshot / fresh),
        recovery_time, WAL replay throughput, and checkpoint size.
        """
        self._recoveries.append({"node": node, "at": self._sim.now, **info})

    # -- queries -----------------------------------------------------------

    @property
    def commits(self) -> list[CommitRecord]:
        """Commits in commit-time order (maintained incrementally)."""
        return list(self._commit_order)

    @property
    def committed_tx_total(self) -> int:
        return self._tx_total

    @property
    def view_change_count(self) -> int:
        return len(self._view_changes)

    @property
    def forwarded_microblocks(self) -> int:
        return self._forwarded_microblocks

    @property
    def fetch_count(self) -> int:
        return self._fetches

    @property
    def fetch_abandoned_count(self) -> int:
        return self._fetches_abandoned

    @property
    def fault_windows(self) -> list[Window]:
        return sorted(self._fault_windows, key=lambda w: (w.start, w.kind))

    def recovery_report(self) -> list[dict]:
        """Durable-executor recoveries in injection order."""
        return [dict(entry) for entry in self._recoveries]

    def throughput_tps(self, start: float, end: float) -> float:
        """Committed transactions per second over ``[start, end)``."""
        if end <= start:
            raise ValueError(f"bad window [{start}, {end})")
        lo = bisect_left(self._commit_times, start)
        hi = bisect_left(self._commit_times, end)
        txs = sum(rec.tx_count for rec in self._commit_order[lo:hi])
        return txs / (end - start)

    def throughput_series(
        self, start: float, end: float, bucket: float = 1.0
    ) -> list[tuple[float, float]]:
        """Time-bucketed throughput (for the Fig. 7 timeline)."""
        if bucket <= 0:
            raise ValueError("bucket must be positive")
        buckets: dict[int, int] = {}
        lo = bisect_left(self._commit_times, start)
        hi = bisect_left(self._commit_times, end)
        for rec in self._commit_order[lo:hi]:
            index = int((rec.commit_time - start) / bucket)
            buckets[index] = buckets.get(index, 0) + rec.tx_count
        count = int((end - start) / bucket + 0.5)
        return [
            (start + i * bucket, buckets.get(i, 0) / bucket)
            for i in range(count)
        ]

    def latency_stats(
        self, start: float = 0.0, end: float = float("inf")
    ) -> WeightedDigest:
        """Latency digest restricted to commits inside the window."""
        digest = WeightedDigest()
        for when, latency, weight in self._latency_samples:
            if start <= when < end:
                digest.add(latency, weight)
        return digest

    @property
    def stable_times(self) -> WeightedDigest:
        return self._stable_times

    def view_changes_in(self, start: float, end: float) -> int:
        return sum(1 for when, _, _ in self._view_changes if start <= when < end)

    # -- fault-window gauges -----------------------------------------------

    def time_to_recover(self, window: Window) -> float:
        """Seconds from the fault healing to the next commit.

        Measured from ``window.end`` to the first commit at or after it;
        infinity when the fault never healed or no commit followed (the
        system did not recover within the run).
        """
        if math.isinf(window.end):
            return math.inf
        index = bisect_left(self._commit_times, window.end)
        if index >= len(self._commit_times):
            return math.inf
        return self._commit_times[index] - window.end

    def commit_gap(self, window: Window) -> float:
        """Longest commit-free interval overlapping the fault window.

        The gauge the paper's Fig. 7 discussion cares about: how long the
        chain stalls while the fault is active. Gaps are measured between
        consecutive commits (run start counts as a commit at t=0) and
        count when they intersect ``[window.start, window.end)``;
        infinity when commits never resume after the window opens.
        """
        end = min(window.end, self._sim.now)
        times = self._commit_times
        longest = 0.0
        prev = 0.0
        for t in times:
            if t > window.start and prev < end:
                longest = max(longest, t - prev)
            prev = t
            if prev >= end:
                break
        if prev < end:
            # Commits never resumed once the window opened: unresolved stall.
            return math.inf
        return longest

    def fault_report(self) -> list[dict]:
        """Per-fault-window recovery summary (one dict per window)."""
        report = []
        for window in self.fault_windows:
            end = min(window.end, self._sim.now)
            tps = (
                self.throughput_tps(window.start, end)
                if end > window.start
                else 0.0
            )
            report.append(
                {
                    "kind": window.kind,
                    "start": window.start,
                    "end": window.end,
                    "nodes": window.nodes,
                    "throughput_tps": tps,
                    "commit_gap": self.commit_gap(window),
                    "time_to_recover": self.time_to_recover(window),
                }
            )
        return report
