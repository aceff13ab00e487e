"""Stable-time workload estimation (Section V-B, Fig. 4).

The *stable time* (ST) of a microblock is the interval between the pusher
broadcasting it and the ack quorum arriving. The estimator keeps a
sliding window of the latest STs, summarizes it with the n-th percentile,
and compares that against a baseline — the smallest ST ever observed,
which approximates the uncongested constant the paper calls alpha. A
replica is *busy* when the percentile exceeds the baseline by the
configured margin, mirroring the observation that delay rises sharply
under overload while staying flat otherwise (Appendix B).

The window is maintained as an incrementally sorted list (one bisect
removal plus one insort per sample) and the percentile is cached until
the next :meth:`record`, so a DLB decision that consults both
:meth:`is_busy` and :meth:`load_status` costs one order-statistic lookup
instead of two full sorts.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from collections import deque
from typing import Optional

_MIN_SAMPLES = 5


class StableTimeEstimator:
    """Sliding-window percentile estimator for one replica's load."""

    def __init__(
        self,
        window: int = 100,
        percentile: float = 95.0,
        busy_margin: float = 2.0,
        busy_slack: float = 0.05,
    ) -> None:
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        if not 0 < percentile <= 100:
            raise ValueError(f"percentile must be in (0, 100], got {percentile}")
        if busy_margin < 1.0:
            raise ValueError(f"busy_margin must be >= 1, got {busy_margin}")
        self._window: deque[float] = deque(maxlen=window)
        self._sorted: list[float] = []
        self._percentile = percentile
        self._busy_margin = busy_margin
        self._busy_slack = busy_slack
        self._baseline: Optional[float] = None
        self._recorded = 0
        self._cached_estimate: Optional[float] = None
        self._cache_valid = False
        self._recomputes = 0

    @property
    def sample_count(self) -> int:
        return self._recorded

    @property
    def estimate_recomputes(self) -> int:
        """How many times the percentile was actually recomputed.

        Test hook for the caching contract: an ``is_busy()`` +
        ``load_status()`` call chain between two ``record()`` calls must
        bump this at most once.
        """
        return self._recomputes

    @property
    def baseline(self) -> Optional[float]:
        """Smallest ST observed: the uncongested constant (alpha)."""
        return self._baseline

    def record(self, stable_time: float) -> None:
        """Add a new ST sample (the window slides, Fig. 4)."""
        if stable_time < 0:
            raise ValueError(f"stable time must be >= 0, got {stable_time}")
        window = self._window
        if len(window) == window.maxlen:
            # The deque is about to evict its oldest sample; mirror the
            # eviction in the sorted view before inserting the new one.
            evicted = window[0]
            self._sorted.pop(bisect_left(self._sorted, evicted))
        window.append(stable_time)
        insort(self._sorted, stable_time)
        self._recorded += 1
        self._cache_valid = False
        if self._baseline is None or stable_time < self._baseline:
            self._baseline = stable_time

    def estimate(self) -> Optional[float]:
        """Current ST estimate: the n-th percentile over the window.

        Cached between :meth:`record` calls; the recompute is a single
        index into the incrementally maintained sorted window.
        """
        if not self._cache_valid:
            if not self._sorted:
                self._cached_estimate = None
            else:
                # Nearest-rank percentile (ceil convention).
                rank = max(
                    0,
                    math.ceil(len(self._sorted) * self._percentile / 100.0) - 1,
                )
                self._cached_estimate = self._sorted[rank]
                self._recomputes += 1
            self._cache_valid = True
        return self._cached_estimate

    def is_busy(self) -> bool:
        """IsBusy() in Algorithm 4.

        A replica with too few samples is never busy — it has not pushed
        enough to be congested, and declaring cold replicas busy would
        stop them from ever volunteering capacity.
        """
        if self._recorded < _MIN_SAMPLES or self._baseline is None:
            return False
        estimate = self.estimate()
        if estimate is None:
            return False
        threshold = self._busy_margin * self._baseline + self._busy_slack
        return estimate > threshold

    def load_status(self) -> Optional[float]:
        """GetLoadStatus() in Algorithm 4.

        Returns the ST estimate (smaller means more spare capacity), or
        ``None`` when busy — a busy replica must not advertise itself as
        a proxy. Replicas without samples report 0.0: a cold replica has
        maximal spare dissemination capacity. Shares the cached estimate
        with :meth:`is_busy`, so the pair costs one computation.
        """
        if self.is_busy():
            return None
        estimate = self.estimate()
        if estimate is None:
            return 0.0
        return estimate
