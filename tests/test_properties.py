"""Property-based tests (hypothesis) on core data structures and invariants."""

import dataclasses
import json
import math
import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import ProtocolConfig, ShardingConfig
from repro.crypto import sign
from repro.durability import DurabilityConfig
from repro.faults import FaultSchedule, LinkFaults, Window
from repro.harness import (
    CHAOS_PRESET_NAMES,
    ExperimentConfig,
    NetBenchConfig,
    chaos_schedule,
)
from repro.live.chaos import LIVE_LINK_BANDWIDTH_BPS, LinkShaper
from repro.metrics import WeightedDigest
from repro.mempool.batching import MicroBlockBatcher
from repro.mempool.stratus.estimator import StableTimeEstimator
from repro.sharding import ONE_SHARD, ShardMap, ShardScope
from repro.sim.engine import Simulator
from repro.sim.interfaces import Channel, Envelope
from repro.sim.network import LINK_MODELS, Network
from repro.sim.rng import RngRegistry
from repro.sim.topology import Topology
from repro.types import TxBatch
from repro.types.microblock import MicroBlock
from repro.workload import ZipfSelector, zipf_weights


# -- weighted digest -----------------------------------------------------

samples = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=1e6,
                  allow_nan=False, allow_infinity=False),
        st.floats(min_value=1e-3, max_value=1e3,
                  allow_nan=False, allow_infinity=False),
    ),
    min_size=1, max_size=200,
)


@given(samples)
def test_digest_percentiles_within_range(data):
    digest = WeightedDigest()
    digest.extend(data)
    values = [value for value, _ in data]
    for p in (0, 25, 50, 75, 95, 100):
        assert min(values) <= digest.percentile(p) <= max(values)


@given(samples)
def test_digest_mean_within_range(data):
    digest = WeightedDigest()
    digest.extend(data)
    assert min(v for v, _ in data) - 1e-9 <= digest.mean
    assert digest.mean <= max(v for v, _ in data) + 1e-9


@given(samples)
def test_digest_percentiles_monotone(data):
    digest = WeightedDigest()
    digest.extend(data)
    points = [digest.percentile(p) for p in range(0, 101, 10)]
    assert all(a <= b for a, b in zip(points, points[1:]))


# -- simulation engine -----------------------------------------------------

@given(st.lists(st.floats(min_value=0.0, max_value=100.0,
                          allow_nan=False), min_size=1, max_size=100))
def test_engine_executes_in_time_order(delays):
    sim = Simulator()
    fired = []
    for delay in delays:
        sim.schedule(delay, lambda: fired.append(sim.now))
    sim.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)


# -- availability proofs -----------------------------------------------

@given(
    n=st.integers(min_value=4, max_value=200),
    data=st.data(),
)
def test_proof_roundtrip_iff_quorum(n, data):
    f = (n - 1) // 3
    quorum = data.draw(st.integers(min_value=f + 1, max_value=2 * f + 1))
    signer_count = data.draw(st.integers(min_value=0, max_value=n))
    signers = data.draw(st.permutations(range(n))) [:signer_count]
    acks = [sign(s, 7) for s in signers]
    scope = ShardScope(0, ShardMap(n, ONE_SHARD, quorum=quorum))
    mb = MicroBlock(
        id=7, origin=0, tx_count=1, tx_payload=128, created_at=0.0,
        sum_arrival=0.0,
    )
    if len(set(signers)) >= quorum:
        proof = scope.make(mb, acks)
        assert scope.verify(proof, 7)
        # At most f Byzantine replicas: a quorum of f+1 must contain a
        # correct one, i.e. the signer set cannot fit inside any f-subset.
        assert len(set(proof.signers)) > f or quorum <= f
    else:
        try:
            scope.make(mb, acks)
            assert False, "proof formed without a quorum"
        except ValueError:
            pass


# -- batching conservation ------------------------------------------------

batches = st.lists(
    st.tuples(st.integers(min_value=1, max_value=50),
              st.floats(min_value=0.0, max_value=10.0, allow_nan=False)),
    min_size=1, max_size=50,
)


class _Host:
    def __init__(self):
        self.node_id = 0
        self.sim = Simulator()
        self.crashed = False

    def notify_microblock(self, microblock):
        pass  # observer tap; no oracle suite in these tests


@given(batches)
@settings(max_examples=50)
def test_batcher_conserves_transactions(batch_specs):
    host = _Host()
    config = ProtocolConfig(n=4, batch_bytes=8 * 128, tx_payload=128,
                            batch_timeout=0.01)
    emitted = []
    batcher = MicroBlockBatcher(host, config, emitted.append)
    total = 0
    for count, when in batch_specs:
        total += count
        batcher.add(TxBatch(count=count, payload_bytes=128,
                            mean_arrival=when))
    host.sim.run_until(1.0)  # fire the flush timer
    assert sum(mb.tx_count for mb in emitted) == total
    assert all(mb.tx_count <= 8 for mb in emitted)
    ids = [mb.id for mb in emitted]
    assert len(set(ids)) == len(ids)


# -- estimator ---------------------------------------------------------

@given(st.lists(st.floats(min_value=0.001, max_value=10.0,
                          allow_nan=False), min_size=1, max_size=300))
def test_estimator_estimate_within_window_range(values):
    estimator = StableTimeEstimator(window=50)
    for value in values:
        estimator.record(value)
    window = values[-50:]
    estimate = estimator.estimate()
    assert min(window) <= estimate <= max(window)
    # The baseline is the all-time minimum, window or no window.
    assert estimator.baseline == min(values)


@given(st.floats(min_value=0.001, max_value=10.0, allow_nan=False),
       st.integers(min_value=6, max_value=100))
def test_estimator_constant_load_never_busy(value, count):
    estimator = StableTimeEstimator(window=50)
    for _ in range(count):
        estimator.record(value)
    assert not estimator.is_busy()


# -- zipf ------------------------------------------------------------------

@given(st.integers(min_value=1, max_value=500),
       st.floats(min_value=1.001, max_value=4.0, allow_nan=False),
       st.floats(min_value=1.0, max_value=50.0, allow_nan=False))
def test_zipf_shares_valid_distribution(n, s, v):
    selector = ZipfSelector(n, s=s, v=v)
    shares = selector.shares()
    assert abs(sum(shares) - 1.0) < 1e-9
    assert all(share > 0 for share in shares)
    assert all(a >= b for a, b in zip(shares, shares[1:]))


@given(st.integers(min_value=2, max_value=300))
def test_zipf_weights_strictly_decreasing(n):
    weights = zipf_weights(n, s=1.01, v=1.0)
    assert all(a > b for a, b in zip(weights, weights[1:]))


# -- network delivery conservation ---------------------------------------

@given(
    st.lists(
        st.tuples(st.integers(min_value=0, max_value=3),
                  st.integers(min_value=0, max_value=3),
                  st.integers(min_value=1, max_value=100_000)),
        min_size=1, max_size=60,
    )
)
@settings(max_examples=40)
def test_network_delivers_every_sent_message_exactly_once(sends):
    from repro.sim import Network, RngRegistry, Simulator
    from repro.sim.topology import Topology

    sim = Simulator()
    topo = Topology(4, one_way_delay=0.01, bandwidth_bps=1e8)
    net = Network(sim, topo, RngRegistry(1))
    received = []
    for node in range(4):
        net.register(node, lambda env: received.append(env))
    for src, dst, size in sends:
        net.send(src, dst, "m", size, (src, dst, size))
    sim.run()
    assert len(received) == len(sends)
    assert sorted(env.payload for env in received) == sorted(sends)


@given(
    st.lists(st.integers(min_value=1, max_value=1_000_000),
             min_size=1, max_size=30)
)
@settings(max_examples=40)
def test_uplink_serialization_total_time(sizes_bytes):
    """Back-to-back sends take exactly the sum of transmission times."""
    from repro.sim import Network, RngRegistry, Simulator
    from repro.sim.topology import Topology

    bandwidth = 8e6  # 1 byte per microsecond
    sim = Simulator()
    topo = Topology(2, one_way_delay=0.0, bandwidth_bps=bandwidth)
    net = Network(sim, topo, RngRegistry(1))
    arrivals = []
    net.register(0, lambda env: None)
    net.register(1, lambda env: arrivals.append(sim.now))
    for size in sizes_bytes:
        net.send(0, 1, "m", size, None)
    sim.run()
    expected_total = sum(size * 8 / bandwidth for size in sizes_bytes)
    assert arrivals[-1] == pytest.approx(expected_total)
    assert arrivals == sorted(arrivals)


# -- config codec ------------------------------------------------------------

def _positive(lo=1e3, hi=1e10):
    return st.floats(min_value=lo, max_value=hi, allow_nan=False)


@st.composite
def experiment_configs(draw):
    """An :class:`ExperimentConfig` with every optional part drawn."""
    n = draw(st.sampled_from([4, 7, 16]))
    f = (n - 1) // 3
    sharded = draw(st.booleans())
    fault_count = draw(st.integers(0, f))
    protocol = ProtocolConfig(
        n=n,
        mempool="stratus",
        consensus=draw(st.sampled_from(["hotstuff", "streamlet", "pbft"])),
        sharding=draw(st.builds(
            ShardingConfig,
            shards=st.integers(1, 4),
            epoch=st.integers(0, 5),
        )) if sharded else None,
        pab_quorum=(
            None if sharded
            else draw(st.none() | st.integers(f + 1, 2 * f + 1))
        ),
        view_timeout=draw(_positive(0.1, 10.0)),
    )
    return ExperimentConfig(
        protocol,
        topology_kind=draw(st.sampled_from(["lan", "wan"])),
        bandwidth_bps=draw(st.none() | _positive()),
        bandwidth_map=draw(st.none() | st.dictionaries(
            st.integers(0, n - 1), _positive(), max_size=3,
        )),
        rate_tps=draw(_positive(0.0, 1e6)),
        seed=draw(st.integers(0, 2 ** 32)),
        selector=draw(st.sampled_from(["uniform", "zipf1", "zipf10"])),
        fault="silent" if fault_count else "none",
        fault_count=fault_count,
        attach_executor=draw(st.booleans()),
        priority_channels=draw(st.booleans()),
        link_model=draw(st.sampled_from(LINK_MODELS)),
        workload_mode=draw(st.sampled_from(["ticks", "aggregate"])),
        offered_clients=draw(st.none() | st.integers(1, 10 ** 6)),
        faults=draw(
            st.none()
            | st.sampled_from(CHAOS_PRESET_NAMES).map(
                lambda name: chaos_schedule(name, n)
            )
            | st.builds(
                lambda start, duration, **spike: FaultSchedule([
                    Window("delay", start, start + duration, **spike),
                ]),
                start=_positive(0.0, 10.0), duration=_positive(0.1, 10.0),
                base=_positive(0.0, 1.0), jitter=_positive(0.0, 1.0),
                bandwidth_factor=_positive(0.01, 1.0),
            )
        ),
        durability=draw(st.none() | st.builds(
            DurabilityConfig,
            fsync=st.sampled_from(["always", "interval", "off"]),
            checkpoint_interval=st.integers(1, 64),
        )),
        data_dir=draw(st.none() | st.text(max_size=12)),
        label=draw(st.text(max_size=12)),
    )


@given(experiment_configs())
@settings(max_examples=60, deadline=None)
def test_experiment_config_round_trips_through_json(config):
    data = config.to_dict()
    assert ExperimentConfig.from_dict(json.loads(json.dumps(data))) == config


@given(experiment_configs())
@settings(max_examples=20, deadline=None)
def test_every_config_field_is_serialised(config):
    """``to_dict`` walks ``dataclasses.fields``: a field added later
    cannot be left out of the spawn spec by forgetting to copy it."""
    for obj in (
        config,
        config.protocol,
        config.protocol.sharding or ShardingConfig(),
        NetBenchConfig(),
    ):
        names = [spec.name for spec in dataclasses.fields(obj)]
        assert list(obj.to_dict()) == names


# -- one fault evaluator under both backends ---------------------------------

_N = 4
#: Times sit on a coarse grid so windows share edges with each other
#: and frames land exactly on them.
_ticks = st.integers(0, 24).map(lambda k: k * 0.25)
_spans = st.integers(1, 12).map(lambda k: k * 0.25)
_node_sets = st.lists(st.integers(0, _N - 1), unique=True).map(tuple)


@st.composite
def _partition_groups(draw):
    side = draw(st.lists(st.integers(0, 2), min_size=_N, max_size=_N).filter(
        lambda sides: 0 in sides
    ))  # 2 = named in no group
    groups = [
        tuple(node for node in range(_N) if side[node] == index)
        for index in (0, 1)
    ]
    return tuple(group for group in groups if group)



def _window(kind, start, span, **params):
    return Window(kind, start, start + span, **params)


_link_windows = st.one_of(
    st.builds(_window, st.just("partition"), _ticks,
              st.just(math.inf) | _spans, groups=_partition_groups()),
    st.builds(_window, st.just("loss"), _ticks, _spans,
              rate=st.floats(0.05, 1.0),
              kinds=st.sampled_from([(), ("mb",), ("vote", "mb.fetch")]),
              channel=st.sampled_from([None, "data", "consensus"]),
              nodes=_node_sets),
    st.builds(_window, st.just("bandwidth"), _ticks, _spans,
              factor=st.floats(0.05, 1.0), nodes=_node_sets),
    # jitter < base: a delay sampled inside a window is never 0.0, which
    # is what the shaper reports outside every window.
    st.builds(lambda start, span, base, share, bandwidth_factor: _window(
                  "delay", start, span, base=base, jitter=base * share,
                  bandwidth_factor=bandwidth_factor),
              _ticks, _spans, st.floats(0.001, 0.5), st.floats(0.0, 0.9),
              st.floats(0.05, 1.0)),
)
_frames = st.lists(
    st.tuples(
        st.integers(0, 72).map(lambda k: k * 0.125),
        st.integers(1, _N - 1),
        st.sampled_from(["mb", "mb.fetch", "vote", "proposal"]),
        st.sampled_from(list(Channel)),
    ),
    max_size=40,
).map(lambda frames: sorted(frames, key=lambda frame: frame[0]))


@given(st.lists(_link_windows, max_size=6), st.integers(0, 2 ** 32), _frames)
@settings(max_examples=80, deadline=None)
def test_sim_and_live_adapters_decide_link_faults_alike(windows, seed, frames):
    """Node 0's egress through the simulator's adapter (``Network`` +
    ``Topology``) and the live one (``LinkShaper``), both built from
    ``schedule.windows`` with equal seeds: the same drops, the same
    delays and the same bandwidth factor for every frame."""
    schedule = FaultSchedule(windows)
    schedule.validate(_N)
    windows = schedule.windows
    plain_delay, burst = 7.0, 256 * 1024  # live/chaos.py's bucket burst
    sim = Simulator()
    network = Network(
        sim,
        Topology(_N, one_way_delay=plain_delay,
                 bandwidth_bps=LIVE_LINK_BANDWIDTH_BPS),
        RngRegistry(0),
    )
    topology = network.topology
    network.set_link_faults(LinkFaults(windows, random.Random(seed)))
    clock = SimpleNamespace(now=0.0)
    shaper = LinkShaper(0, windows, clock, random.Random(seed))
    jitter = random.Random(seed + 1)
    for now, dst, kind, channel in frames:
        sim.run_until(now)
        clock.now = now
        envelope = Envelope(0, dst, kind, 0.0, None, channel, now)
        assert network._should_drop(envelope, now) == shaper.drops(
            0, dst, kind, channel
        )
        # Delay and bandwidth on a fresh shaper whose only draw is this
        # frame's jitter, from a copy of the stream the topology reads.
        stream = random.Random()
        stream.setstate(jitter.getstate())
        pacer = LinkShaper(0, windows, clock, stream)
        held = pacer.write_delay(dst, 2 * burst, channel)
        delay = topology.delay(0, dst, now, jitter)
        factor = topology.bandwidth(0, now=now) / LIVE_LINK_BANDWIDTH_BPS
        throttle = 0.0 if factor >= 1.0 else burst / (
            LIVE_LINK_BANDWIDTH_BPS * factor / 8.0
        )
        if delay == plain_delay:  # outside every delay window
            assert held == pytest.approx(throttle)
        else:
            assert held == pytest.approx(delay + throttle)
