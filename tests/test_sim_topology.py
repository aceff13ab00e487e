"""Unit tests for topologies and the delay windows they hold."""

import random

import pytest

from repro.faults import LinkFaults, Window
from repro.sim.topology import (
    GBPS,
    MBPS,
    Topology,
    lan_topology,
    transmission_time,
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


def test_bandwidth_override():
    topo = lan_topology(4)
    topo.set_bandwidth(1, 5 * MBPS)
    assert topo.bandwidth(1) == 5 * MBPS
    assert topo.bandwidth(0) == GBPS


def test_link_delay_override(rng):
    topo = Topology(4, one_way_delay=0.01, bandwidth_bps=GBPS)
    topo.set_link_delay(0, 1, 0.5)
    assert topo.base_delay(0, 1) == 0.5
    assert topo.base_delay(1, 0) == 0.01  # directed override


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
        [Window("delay", 10.0, 15.0, base=0.2, bandwidth_factor=0.5)],
        random.Random(0),
    )
    rng = random.Random(5)
    assert faults.delay(9.999, rng) is None
    assert faults.delay(10.0, rng) == pytest.approx(0.2)
    assert faults.delay(14.999, rng) == pytest.approx(0.2)
    assert faults.delay(15.0, rng) is None
    # The goodput factor follows the same edges, through the topology.
    topo = wan_topology(4)
    topo.set_link_faults(faults)
    assert [topo.bandwidth(0, now=now) for now in (9.999, 10.0, 15.0)] == [
        100 * MBPS, 50 * MBPS, 100 * MBPS,
    ]
    assert topo.bandwidth(0) == 100 * MBPS  # no instant, no window


def test_transmission_time():
    # 1 MB over 8 Mb/s = 1 second.
    assert transmission_time(1_000_000, 8_000_000) == pytest.approx(1.0)
    assert transmission_time(0, GBPS) == 0.0


def test_transmission_time_invalid():
    with pytest.raises(ValueError):
        transmission_time(100, 0)
    with pytest.raises(ValueError):
        transmission_time(-1, GBPS)


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
        topo.set_bandwidth(-1, GBPS)
    with pytest.raises(ValueError):
        topo.base_delay(0, 9)


class TestGeoTopology:
    def test_round_robin_assignment(self):
        from repro.sim.topology import geo_topology
        topo = geo_topology(8)
        assert topo.regions == ["SG", "SN", "VG", "LD"] * 2

    def test_intra_region_fast_inter_region_slow(self):
        from repro.sim.topology import geo_topology
        topo = geo_topology(8)
        # replicas 0 and 4 are both SG; 0 and 2 are SG-VG.
        assert topo.base_delay(0, 4) == pytest.approx(0.001)
        assert topo.base_delay(0, 2) == pytest.approx(0.110)
        assert topo.base_delay(2, 0) == pytest.approx(0.110)  # symmetric

    def test_custom_assignment(self):
        from repro.sim.topology import geo_topology
        topo = geo_topology(4, assignment=["SG", "SG", "LD", "LD"])
        assert topo.base_delay(0, 1) == pytest.approx(0.001)
        assert topo.base_delay(0, 2) == pytest.approx(0.085)

    def test_bad_assignment_rejected(self):
        from repro.sim.topology import geo_topology
        with pytest.raises(ValueError):
            geo_topology(4, assignment=["SG"])
        with pytest.raises(ValueError):
            geo_topology(2, assignment=["SG", "MARS"])

    def test_runs_a_full_experiment(self):
        """A hand-wired Stratus deployment across the four regions."""
        from repro.config import ProtocolConfig
        from repro.consensus import HotStuff
        from repro.mempool import StratusMempool
        from repro.metrics import MetricsHub
        from repro.replica import Replica
        from repro.sim import Network, RngRegistry, Simulator
        from repro.sim.topology import geo_topology

        protocol = ProtocolConfig(n=8, batch_bytes=1024)
        sim = Simulator()
        rng = RngRegistry(4)
        network = Network(sim, geo_topology(8), rng)
        metrics = MetricsHub(sim)
        replicas = []
        for node in range(8):
            replica = Replica(node, protocol, sim, network,
                              rng.stream(f"r{node}"), metrics)
            mempool = StratusMempool(replica, protocol)
            replica.attach(mempool, HotStuff(replica, mempool, protocol))
            replicas.append(replica)
        from repro.types import TxBatch
        for replica in replicas:
            replica.start()
        replicas[0].on_client_batch(
            TxBatch(count=8, payload_bytes=128, mean_arrival=0.0))
        sim.run_until(3.0)
        assert metrics.committed_tx_total == 8
