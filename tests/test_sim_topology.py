"""Unit tests for topologies and the delay windows they hold."""

import random

import pytest

from repro.faults import LinkFaults, Window
from repro.sim.topology import (
    GBPS,
    MBPS,
    Topology,
    lan_topology,
    wan_topology,
)


@pytest.fixture
def rng():
    return random.Random(1)


def test_lan_preset_parameters():
    topo = lan_topology(8)
    assert topo.n == 8
    assert topo.bandwidth(0) == GBPS
    assert topo.base_delay(0, 1) == pytest.approx(0.002)
    assert topo.name == "lan"


def test_wan_preset_parameters():
    topo = wan_topology(8)
    assert topo.bandwidth(3) == 100 * MBPS
    assert topo.base_delay(2, 5) == pytest.approx(0.050)


def test_self_delay_is_zero(rng):
    topo = lan_topology(4)
    assert topo.base_delay(2, 2) == 0.0
    assert topo.delay(2, 2, now=0.0, rng=rng) == 0.0


def test_delay_jitter_bounded():
    topo = Topology(4, one_way_delay=0.01, bandwidth_bps=GBPS,
                    delay_jitter=0.002)
    rng = random.Random(3)
    for _ in range(200):
        delay = topo.delay(0, 1, now=0.0, rng=rng)
        assert 0.008 <= delay <= 0.012


def test_fluctuation_window_overrides_base_delay():
    topo = wan_topology(4)
    topo.set_link_faults(LinkFaults(
        [Window("delay", 10.0, 15.0, base=0.2, jitter=0.1)],
        random.Random(0),
    ))
    rng = random.Random(4)
    # Inside the window: delays in [0.1, 0.3].
    for _ in range(100):
        delay = topo.delay(0, 1, now=12.0, rng=rng)
        assert 0.1 <= delay <= 0.3
    # Outside the window: back to base.
    delay = topo.delay(0, 1, now=20.0, rng=rng)
    assert delay < 0.06


def test_fluctuation_window_edges():
    faults = LinkFaults(
        [Window("delay", 10.0, 15.0, base=0.2),
         Window("bandwidth", 10.0, 15.0, factor=0.5)],
        random.Random(0),
    )
    rng = random.Random(5)
    assert faults.delay(9.999, rng) is None
    assert faults.delay(10.0, rng) == pytest.approx(0.2)
    assert faults.delay(14.999, rng) == pytest.approx(0.2)
    assert faults.delay(15.0, rng) is None
    # The goodput collapse over the same interval follows the same
    # edges, through the topology.
    topo = wan_topology(4)
    topo.set_link_faults(faults)
    assert [topo.bandwidth(0, now=now) for now in (9.999, 10.0, 15.0)] == [
        100 * MBPS, 50 * MBPS, 100 * MBPS,
    ]
    assert topo.bandwidth(0) == 100 * MBPS  # no instant, no window


def test_invalid_topology_rejected():
    with pytest.raises(ValueError):
        Topology(0, 0.01, GBPS)
    with pytest.raises(ValueError):
        Topology(4, -1, GBPS)
    with pytest.raises(ValueError):
        Topology(4, 0.01, 0)
    with pytest.raises(ValueError):
        Topology(4, 0.01, GBPS, proc_per_message=-1)


def test_node_bounds_checked():
    topo = lan_topology(4)
    with pytest.raises(ValueError):
        topo.bandwidth(4)
    with pytest.raises(ValueError):
        topo.base_delay(0, 9)
