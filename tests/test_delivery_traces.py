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

One cell is *not* the parent's: ``fuzz7-6-clipped-delay`` (scenario
root 7 index 6 as the fuzzer drew it from four consensus engines, now
spelled out) runs under a delay window whose jitter exceeds
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
from repro.verification.fuzzer import QUICK_PROTOCOL

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
#:
#: The ten protocol cells were re-recorded when every certificate became
#: one aggregate signature (``sizes.certificate_bytes``): proposals and
#: proof broadcasts change size, so every copy after the first proposal
#: leaves its uplink at another instant. The three netbench cells carry
#: no certificate and did not move. The four crash cells moved again
#: when at most ``FETCH_WINDOW`` fetches run at once: the restarted
#: replica's requests leave in another order (crash-partition serial
#: 4d373427, fair eb253a8a; crash-restart serial b4c45a2a, fair 862649d2
#: before). Six moved again with one-round-trip chain sync: a sync
#: answer carries the requested block and its ancestors above the
#: requester's committed height, so a lagging replica's missing blocks
#: arrive in one burst instead of one round trip each (crash-partition
#: serial e9c78af4, fair 0cc49e28; crash-restart serial 71c35a6a, fair
#: 923f5043; leader-squeeze serial 66279bda, fair 0f1dbd11 before).
#: The nine S-HS cells moved again when a leader with nothing to commit
#: began to park: an empty view whose QC commits no payload is proposed
#: when an id becomes proposable (or a quarter view timeout later), not
#: 2 ms after the view opened, so there are fewer empty blocks and the
#: votes and proposals leave at other instants (crash-partition serial
#: ea21bc3d, fair e0ce0ddd; crash-restart serial 128a18cf, fair
#: 6d5a2016; flaky-data serial a66f8f6f, fair ab5e2447; leader-squeeze
#: serial cd34aa59, fair 86b8c42f; delay-spike 2e4dcc0a before).
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
        "ec0893e5f26e15b327ea3493a226a693a69c767cefe34bdef0e046035fccd765",
    ),
    "shs7-flaky-data-fair": (
        _preset("flaky-data", "fair-share"),
        "010e195bd6b160958a69fad98ad7cfc03b691fcfcf963fd5d9425e28ced4e18f",
    ),
    "shs7-crash-partition-serial": (
        _preset("crash-partition", "serial"),
        "c67d776ecc50893c17c9656e8724e2205b99398fb32c9205ca09d758c8c1723c",
    ),
    "shs7-crash-partition-fair": (
        _preset("crash-partition", "fair-share"),
        "3f80380c169a4c69b565b02ed40cbfff4e72f73baa38f4cb1f175f52332661b4",
    ),
    "shs7-crash-restart-serial": (
        _preset("crash-restart", "serial"),
        "b5b67c7b870cad39dd684554ba2763bb0e1509e7295bbcf00878c21f2e4b1dac",
    ),
    "shs7-crash-restart-fair": (
        _preset("crash-restart", "fair-share"),
        "a7f100e5c1be947e6a128fcc0d28738e2028544766d79699274d63190a72be1f",
    ),
    "shs7-leader-squeeze-serial": (
        _preset("leader-squeeze", "serial"),
        "6833652958b8962a471752d2cf40b4ff62add6ce1836ebd3b54c24ce86f095be",
    ),
    "shs7-leader-squeeze-fair": (
        _preset("leader-squeeze", "fair-share"),
        "9621deaecdc6fd806ba0db1d5a52497efd183252476750bc50d6fd15698b3870",
    ),
    "shs7-delay-spike-serial": (
        _shs("serial", FaultSchedule([
            Window("delay", 1.0, 2.0, base=0.06, jitter=0.03),
        ]), duration=3.0),
        "0b8398f02203ca78d9aac3747fb244df33e051c3221c9241a7ddfd11a5f09c50",
    ),
    # Streamlet/Narwhal n=5, a delay window (24.5 ms, jitter 33 ms), a
    # crash and a restart. Recorded on PR 20, not on 8db03bb (see above),
    # and again on PR 23 (191f8289... before): a service's entry is pushed
    # when it is armed, so same-instant handlers of different nodes follow
    # arming order; each node's own instants and order are unchanged.
    # Then a898a9eb... -> de03146b... in the same PR (d0-i): the crashed
    # replica's pending batch is cut after its restart, not while down.
    # And with one-round-trip chain sync (634fba4e... before): the
    # restarted replica's two sync answers carry 3 and 2 blocks; the
    # run commits the same 643 tx.
    "fuzz7-6-clipped-delay": (
        lambda: build_experiment(ExperimentConfig(
            protocol=ProtocolConfig(
                n=5, mempool="narwhal", consensus="streamlet",
                **QUICK_PROTOCOL,
            ),
            rate_tps=154.1, duration=3.909, warmup=0.5,
            seed=2029791996802715077,
            faults=FaultSchedule.from_spec([
                {"kind": "delay", "start": 0.715, "end": 1.5619999999999998,
                 "base": 0.0245, "jitter": 0.033},
                {"kind": "bandwidth", "start": 0.715,
                 "end": 1.5619999999999998, "factor": 0.656},
                {"kind": "crash", "start": 1.611, "end": 1.83, "nodes": [1]},
            ]),
        )).run(),
        "37d25751f283a0f28cdd132bd798434bf5aa42651c9f043036c915e3ca1a01c0",
    ),
}


@pytest.mark.parametrize("cell", sorted(TRACES))
def test_delivery_trace_matches_recorded(monkeypatch, cell):
    run, expected = TRACES[cell]
    assert delivery_trace(monkeypatch, run) == expected
