"""Delivery traces pinned across commits: same instants, same order.

``tests/test_golden_hashes.py`` pins *what* a run commits. These cells
pin *when every handler runs*: each handler is wrapped where it is
registered with the network, and the trace is a sha256 over
``repr((sim.now, dst, src, kind))`` at every call, in call order. A
change to how the network or a timer schedules its events (fewer heap
entries, an event moved to the instant its outcome is known) claims that
no handler moved; a commit hash cannot see a handler that ran at another
instant with the same outcome, this can.

The hashes were recorded on 8db03bb, where every delivered copy cost an
arrival event and an ingress-finish event, every serial-uplink segment a
drain event and every deferred fetch a timer of its own, and must
reproduce on any commit that claims to schedule fewer events for the
same run. The cells: the dissemination bench under light load (n=8),
with uplinks saturated and with ingresses saturated (n=16), all at zero
jitter, where simultaneous arrivals are the rule; S-HS n=7 under four
chaos presets and both link models (loss coins drawn per arrival, a
partition edge, a crash that cuts copies on the wire and in the ingress,
a restart, a squeezed uplink); and one delay window under serial links,
which takes the uplink's fan-out through ``Topology.delay``.

One cell is *not* the parent's: ``fuzz7-6-clipped-delay`` (corpus
scenario root 7 index 6) runs under a delay window whose jitter exceeds
its base, so delays clip to 0 and a copy's wire time plus propagation can
be shorter than the receive-side processing cost. There the order of
same-instant handlers of *different* nodes follows the order the events
were pushed in: service-start order on 8db03bb (trace 80dfbeae…),
dispatch order in PR 20 (six pairs swap; every instant, each node's
own order and the commit hash are equal), and since PR 23 the order the
ingresses armed their service ends in (two more pairs swap, with the
same equalities). The hash below is PR 23's, so
that a later change to tie-breaking is checked against a cell.
"""

import hashlib

import pytest

from repro.config import ProtocolConfig
from repro.faults import FaultSchedule, Window
from repro.harness.config import ExperimentConfig
from repro.harness.netbench import NetBenchConfig, run_netbench
from repro.harness.presets import chaos_schedule
from repro.harness.runner import build_experiment
from repro.sim.network import Network
from repro.verification import ScenarioFuzzer

from tests.test_golden_hashes import QUICK


def delivery_trace(monkeypatch, run) -> str:
    """sha256 over every handler call ``run()`` makes, in call order."""
    hasher = hashlib.sha256()
    register = Network.register

    def tapped_register(network, node, handler):
        sim = network.sim

        def tapped(envelope):
            hasher.update(repr(
                (sim.now, envelope.dst, envelope.src, envelope.kind)
            ).encode())
            handler(envelope)

        register(network, node, tapped)

    monkeypatch.setattr(Network, "register", tapped_register)
    run()
    return hasher.hexdigest()


def _netbench(
    n: int, rate_per_node: float, msg_bytes: float, duration: float
):
    config = NetBenchConfig(
        n=n, msg_bytes=msg_bytes, rate_per_node=rate_per_node,
        duration=duration, seed=7,
    )
    return lambda: run_netbench(config)


def _shs(link_model: str, faults: FaultSchedule, duration: float = 5.0):
    protocol = ProtocolConfig(
        n=7, mempool="stratus", consensus="hotstuff", **QUICK,
    )
    config = ExperimentConfig(
        protocol=protocol, rate_tps=1000.0, duration=duration, warmup=0.5,
        seed=5, bandwidth_bps=10e6, link_model=link_model, faults=faults,
    )
    return lambda: build_experiment(config).run()


def _preset(name: str, link_model: str):
    return _shs(link_model, chaos_schedule(name, 7))


#: cell -> (runner, delivery-trace hash recorded on 8db03bb; eight on PR 23)
TRACES = {
    # 7 copies of 1 KB every 10 ms per node: no uplink ever queues.
    "netbench8-idle": (
        _netbench(8, 100.0, 1024.0, 1.0),
        "be4e60fd7ead994bf8dd8082cebfa6cdace3e45af1220cb408e07ca26ca38fce",
    ),
    # 15 copies of 128 KB every 2.5 ms per node into 1 Gb/s: uplinks ~6x
    # over, ingresses ~70 % busy.
    "netbench16-saturated": (
        _netbench(16, 400.0, 131_072.0, 0.5),
        "d2bfb82140bce4091f5598a71ed90be568c5c0316c2366f344ab0e0b32b53a51",
    ),
    # 4 KB copies: each ingress is offered 30k a second and processes
    # 20k, so its queue only grows and every service follows another.
    "netbench16-ingress-bound": (
        _netbench(16, 2000.0, 4096.0, 0.2),
        "e75ecbe72ee07e39bca6f2de4e5e75d592eba1d9bbe8f7cbc7b2a0955fe508fa",
    ),
    # The four loss cells were re-recorded with the per-ingress arrival
    # queues (PR 23; 2a324822..., 1d92eda3..., e13b5c90..., 19cd2be5...
    # before): a copy is judged at the service end that finds it arrived,
    # so the window's coins are drawn per ingress and not in global
    # arrival order, and other copies are lost.
    # Three fair-share cells (crash-partition, crash-restart and
    # leader-squeeze; 9fd6c3c8... and 387644e6... before, f844ca67... after
    # the arrival queues) were re-recorded with one wake per uplink
    # (PR 23): unchanged rates are not settled, so finishes round
    # otherwise, and one uplink's same-instant finishes complete in
    # start order. ``shs7-flaky-data-fair`` did not move.
    "shs7-flaky-data-serial": (
        _preset("flaky-data", "serial"),
        "af09e926e9fa5d220eb75a796375f70bc5b37ad832cc1fdd4ffd2379385eb603",
    ),
    "shs7-flaky-data-fair": (
        _preset("flaky-data", "fair-share"),
        "6adcada1d63f58412318916b204af574811daedf0ee2c6af9064fe832e06e75f",
    ),
    "shs7-crash-partition-serial": (
        _preset("crash-partition", "serial"),
        "460ad8d9750b90a9983e6f8e3b565f648b77143166b9ec555827c9945509f416",
    ),
    "shs7-crash-partition-fair": (
        _preset("crash-partition", "fair-share"),
        "56f7c10628035a2385b95de3753e768cfa649e69d0b403b4853b9e9a73791880",
    ),
    "shs7-crash-restart-serial": (
        _preset("crash-restart", "serial"),
        "1262e055fa760e37b53b13eacd11539c44dcfc9e092c4fe86cd9854f8cf4c300",
    ),
    "shs7-crash-restart-fair": (
        _preset("crash-restart", "fair-share"),
        "91b6b604b858db94f83befc300fad1d2dceec1edfafcf02d2a0b32177e86ee2a",
    ),
    "shs7-leader-squeeze-serial": (
        _preset("leader-squeeze", "serial"),
        "2513459fa22891094e8c4381f4907254205a1b6cc421ce152a5c21038cafeacd",
    ),
    "shs7-leader-squeeze-fair": (
        _preset("leader-squeeze", "fair-share"),
        "1e3d1c106f6bba30e630ef206f04b8b0e916b2911b60cb27c2ee9dc2e8e83946",
    ),
    "shs7-delay-spike-serial": (
        _shs("serial", FaultSchedule([
            Window("delay", 1.0, 2.0, base=0.06, jitter=0.03),
        ]), duration=3.0),
        "50e57b291c68ecf738c21078f865bae3a5b28ae53f778e9f6bafa9ede7dab78e",
    ),
    # Streamlet/Narwhal n=5, a delay window (24.5 ms, jitter 33 ms), a
    # crash and a restart. Recorded on PR 20, not on 8db03bb (see above),
    # and again on PR 23 (191f8289... before): a service's entry is pushed
    # when it is armed, so same-instant handlers of different nodes follow
    # arming order; each node's own instants and order are unchanged.
    # Then a898a9eb... -> de03146b... in the same PR (d0-i): the crashed
    # replica's pending batch is cut after its restart, not while down.
    "fuzz7-6-clipped-delay": (
        lambda: build_experiment(
            ScenarioFuzzer(7).scenario(6).experiment_config()
        ).run(),
        "de03146b7eeba1911309d607d50f8e16cd20d8ee437932752f91b60ff11aa07d",
    ),
}


@pytest.mark.parametrize("cell", sorted(TRACES))
def test_delivery_trace_matches_recorded(monkeypatch, cell):
    run, expected = TRACES[cell]
    assert delivery_trace(monkeypatch, run) == expected
