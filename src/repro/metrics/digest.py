"""Weighted sample digest for latency percentiles.

Commit latency is recorded per microblock weighted by its transaction
count, so percentiles are over *transactions* without materializing one
sample per transaction.

Percentile queries used to re-sort every sample and scan cumulative
weights linearly — O(n log n) per query. The digest now consolidates
once per add-batch (a dirty flag marks the cached order stale) into a
sorted value array plus a prefix-sum array, and answers each percentile
with one bisect: repeated queries (p50/p95/p99 on the same window) cost
O(log n); ``percentile(0)`` and ``percentile(100)`` are the extremes.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_left
from itertools import accumulate
from typing import Iterable


class WeightedDigest:
    """Collects (value, weight) samples; answers mean and percentiles."""

    def __init__(self) -> None:
        self._samples: list[tuple[float, float]] = []
        self._total_weight = 0.0
        self._weighted_sum = 0.0
        self._dirty = True
        self._ordered_values: list[float] = []
        self._cum_weights: list[float] = []

    def add(self, value: float, weight: float = 1.0) -> None:
        if weight <= 0:
            raise ValueError(f"weight must be positive, got {weight}")
        self._samples.append((value, weight))
        self._total_weight += weight
        self._weighted_sum += value * weight
        self._dirty = True

    def extend(self, samples: Iterable[tuple[float, float]]) -> None:
        for value, weight in samples:
            self.add(value, weight)

    def __len__(self) -> int:
        return len(self._samples)

    @property
    def mean(self) -> float:
        if self._total_weight == 0:
            return 0.0
        return self._weighted_sum / self._total_weight

    def _consolidate(self) -> None:
        """Rebuild the sorted-value and prefix-weight caches."""
        ordered = sorted(self._samples)
        self._ordered_values = [value for value, _ in ordered]
        self._cum_weights = list(
            accumulate(weight for _, weight in ordered)
        )
        self._dirty = False

    def percentile(self, p: float) -> float:
        """Weighted percentile, ``p`` in [0, 100].

        The answer is the smallest sample value whose cumulative weight
        reaches ``p`` percent of the total; ``p=0`` is the minimum and
        ``p=100`` the maximum. An empty digest reports 0.0.
        """
        if not 0 <= p <= 100:
            raise ValueError(f"percentile must be in [0, 100], got {p}")
        if not self._samples:
            return 0.0
        if self._dirty:
            self._consolidate()
        target = self._total_weight * (p / 100.0)
        # Weights are strictly positive, so the prefix sums increase
        # strictly and bisect finds the first bucket reaching target.
        # Clamp: float summation order can leave target a hair above
        # the final prefix sum when p == 100.
        index = bisect_left(self._cum_weights, target)
        if index >= len(self._ordered_values):
            index = len(self._ordered_values) - 1
        return self._ordered_values[index]


def commit_sequence_hash(commits: Iterable) -> str:
    """Digest of a run's committed sequence — the determinism fingerprint.

    Two runs of the same configuration must produce identical hashes;
    any divergence means nondeterminism leaked into the simulation. The
    parallel executor gates every fan-out path on this: a worker
    process's hash must equal the serial run's.
    """
    digest = hashlib.sha256()
    for record in commits:
        digest.update(
            f"{record.block_id}:{record.commit_time:.9f}:"
            f"{record.tx_count}:{record.microblock_count};".encode()
        )
    return digest.hexdigest()
