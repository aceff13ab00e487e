"""Network topologies: delays, bandwidth, link faults.

Two presets mirror the paper's testbeds (Section VII-A):

* :func:`lan_topology` — "national" deployment: 1 Gb/s per replica,
  inter-replica RTT under 10 ms.
* :func:`wan_topology` — "regional" deployment emulated with NetEm:
  100 Mb/s per replica, 100 ms inter-replica RTT.

A topology may hold the run's :class:`repro.faults.LinkFaults`; its
delay windows replace the base delay and its squeezes scale bandwidth
while they are active (the Fig. 7 experiment is one delay window, every
message seeing 100 ms ± 50 ms one-way instead of the normal link delay,
and a squeeze over the same interval; a slower replica is a squeeze on
it from t=0 that never ends).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

import random

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults.windows import LinkFaults

GBPS = 1_000_000_000
MBPS = 1_000_000


class Topology:
    """Static delay/bandwidth description of a replica network.

    Parameters
    ----------
    n:
        Number of replicas.
    one_way_delay:
        Base one-way propagation delay in seconds between distinct
        replicas (RTT / 2).
    bandwidth_bps:
        Default egress bandwidth in bits per second for every replica.
    delay_jitter:
        Half-width of the uniform jitter applied to each message's
        propagation delay in the normal case (small for private networks,
        per Appendix B).
    """

    def __init__(
        self,
        n: int,
        one_way_delay: float,
        bandwidth_bps: float,
        delay_jitter: float = 0.0,
        name: str = "custom",
        proc_per_message: float = 0.0,
    ) -> None:
        if n <= 0:
            raise ValueError(f"topology needs at least one node, got n={n}")
        if one_way_delay < 0 or bandwidth_bps <= 0:
            raise ValueError("delay must be >= 0 and bandwidth > 0")
        if proc_per_message < 0:
            raise ValueError("proc_per_message must be >= 0")
        self.n = n
        self.name = name
        #: Receive-side CPU cost per message (handler + signature checks).
        #: This is what makes O(n^2)-message protocols (reliable broadcast,
        #: all-to-all voting) processing-bound at scale, as the paper's
        #: Narwhal discussion describes.
        self.proc_per_message = proc_per_message
        self._base_delay = one_way_delay
        self._jitter = delay_jitter
        self._default_bandwidth = float(bandwidth_bps)
        #: Evaluator of the run's link-fault windows, asked at ``now`` by
        #: :meth:`delay` and :meth:`bandwidth` (and by the network's
        #: delivery path for drops); ``None`` without such windows.
        self.link_faults: Optional[LinkFaults] = None
        #: What :meth:`bandwidth` returns for every node and instant while
        #: no squeeze window can move it, else ``None``: the link models'
        #: one "is the topology plain" test, kept current by
        #: :meth:`set_link_faults`.
        self._plain_bandwidth: Optional[float] = (
            self._default_bandwidth if self._default_bandwidth > 1.0 else 1.0
        )

    # -- configuration ----------------------------------------------------

    def set_link_faults(self, faults: LinkFaults) -> None:
        """Hold the evaluator of the run's link-fault windows."""
        self.link_faults = faults
        self._plain_bandwidth = (
            None if faults.squeezes else max(self._default_bandwidth, 1.0)
        )

    # -- queries -----------------------------------------------------------

    def bandwidth(self, node: int, now: Optional[float] = None) -> float:
        """Egress bandwidth of ``node`` in bits per second.

        When ``now`` is given, the bandwidth squeezes active at that
        instant scale it.
        """
        self._check_node(node)
        base = self._default_bandwidth
        if now is not None and self.link_faults is not None:
            base *= self.link_faults.squeeze_factor(now, node)
        return max(base, 1.0)

    def base_delay(self, src: int, dst: int) -> float:
        """Base one-way delay of the (src, dst) link, before jitter."""
        self._check_node(src)
        self._check_node(dst)
        if src == dst:
            return 0.0
        return self._base_delay

    def delay(self, src: int, dst: int, now: float, rng: random.Random) -> float:
        """One-way delay for a message sent now on the (src, dst) link.

        An active delay window takes precedence over the base delay,
        which models a network-wide disturbance (the Fig. 7 NetEm window).
        """
        if self.link_faults is not None:
            sampled = self.link_faults.delay(now, rng)
            if sampled is not None:
                return sampled
        base = self.base_delay(src, dst)
        if self._jitter > 0 and src != dst:
            base = max(0.0, base + rng.uniform(-self._jitter, self._jitter))
        return base

    def _check_node(self, node: int) -> None:
        if not 0 <= node < self.n:
            raise ValueError(f"node {node} outside [0, {self.n})")


#: Default receive-side processing cost: dominated by verifying the
#: signature on each small control message (ECDSA verify is tens of
#: microseconds in Go, the prototype's language).
DEFAULT_PROC_PER_MESSAGE = 50e-6


def lan_topology(
    n: int,
    bandwidth_bps: float = GBPS,
    proc_per_message: float = DEFAULT_PROC_PER_MESSAGE,
) -> Topology:
    """The paper's LAN testbed: 1 Gb/s, RTT < 10 ms (we use 2 ms one-way)."""
    return Topology(
        n,
        one_way_delay=0.002,
        bandwidth_bps=bandwidth_bps,
        delay_jitter=0.0005,
        name="lan",
        proc_per_message=proc_per_message,
    )


def wan_topology(
    n: int,
    bandwidth_bps: float = 100 * MBPS,
    proc_per_message: float = DEFAULT_PROC_PER_MESSAGE,
) -> Topology:
    """The paper's emulated WAN: 100 Mb/s, 100 ms RTT (50 ms one-way)."""
    return Topology(
        n,
        one_way_delay=0.050,
        bandwidth_bps=bandwidth_bps,
        delay_jitter=0.002,
        name="wan",
        proc_per_message=proc_per_message,
    )
