"""Simulator workloads: protocol cells and the dissemination control.

One run reports either the end-to-end metrics (``trace=0``: one pass
carrying the commit tap, under cProfile for the call count) or the
per-layer metrics (``trace=1``: timed x3, profile x1, checked + traced
x1, all of which must commit the same sequence).
"""

from __future__ import annotations

import dataclasses
from contextlib import contextmanager
from typing import Iterator

import repro.harness.netbench as netbench_module
from repro.harness import build_experiment
from repro.harness.runner import summarize
from repro.metrics import WeightedDigest
from repro.verification import standard_suite
from repro.verification.oracles import Oracle, OracleSuite

import spans
import timing
from workloads import REFERENCE_SECONDS, Workload

#: Timed (plain, untapped) passes per ``trace=1`` run.
TIMED_REPS = 3


class CommitTap(Oracle):
    """First commit of every microblock id at any honest replica.

    ``MetricsHub`` deduplicates by *block* id, so a microblock proposed
    again in a later block is counted twice in its throughput. The tap
    keys on the microblock id: goodput, latency and ``dup_commit_share``
    are over unique microblocks. It calls nothing in ``repro`` beyond
    the suite's clock, which keeps a tapped profile pass exact.
    """

    name = "commit-tap"

    def on_attach(self) -> None:
        #: mb id -> (tx count, mean client arrival)
        self.created: dict[int, tuple[int, float]] = {}
        #: mb id -> (first commit time, certificate or None)
        self.first_commit: dict[int, tuple] = {}
        #: block id -> proposal, at its first commit
        self.blocks: dict[int, object] = {}
        self.repeat_commits = 0

    def on_microblock_created(self, replica, microblock) -> None:
        self.created[microblock.id] = (
            microblock.tx_count,
            microblock.sum_arrival / microblock.tx_count,
        )

    def on_local_commit(self, replica, proposal) -> None:
        if proposal.block_id in self.blocks:
            return
        self.blocks[proposal.block_id] = proposal
        now = self.suite.now
        first_commit = self.first_commit
        for entry in proposal.payload.entries:
            if entry.mb_id in first_commit:
                self.repeat_commits += 1
            else:
                first_commit[entry.mb_id] = (now, entry.cert)

    def unique_commits(self) -> Iterator[tuple[float, int, float]]:
        """(first commit time, tx count, mean arrival) per microblock.

        Certificate-only ordering commits ids whose bodies this tap may
        never see created by an honest origin it observed, so the
        certificate's own accounting scalars win when present.
        """
        for mb_id, (when, cert) in self.first_commit.items():
            if cert is not None:
                yield when, cert.tx_count, cert.mean_arrival
            else:
                tx_count, mean_arrival = self.created[mb_id]
                yield when, tx_count, mean_arrival


def tapped_suite(checked: bool) -> tuple[OracleSuite, CommitTap]:
    tap = CommitTap()
    suite = standard_suite() if checked else OracleSuite([])
    suite.oracles.append(tap)
    return suite, tap


def _warm_up(config) -> None:
    """The cell's warm-up second (and a quarter more) before anything is
    counted or timed, so that lazy work is paid: bytecode specialisation,
    the interpreter's ABC subclass caches, and the process-wide memo on
    the genesis certificate. Each costs a few calls the first time only;
    without this an end-to-end pass counts 10-15 calls (of millions)
    more than the profile pass of a traced run, which follows three
    whole runs. It is the benchmark's own cache filling, not the
    program's set-up, and is not part of ``setup_s``."""
    build_experiment(dataclasses.replace(config, duration=0.25)).run()


def profiled_run(experiment) -> tuple[object, timing.CallCount]:
    """The event loop alone under cProfile, then the usual summary.

    ``RunningExperiment.run`` also finalizes oracles and summarizes,
    which costs calls only a tapped experiment makes.
    """
    with timing.quiet_gc():
        _, calls = timing.profiled(
            experiment.sim.run_until, experiment.config.end_time
        )
    if experiment.oracles is not None:
        experiment.oracles.finalize()
    return summarize(experiment), calls


def commit_stats(config, tap: CommitTap, result) -> dict:
    """Everything the tap and the hub say about one finished run."""
    start, end = config.warmup, config.end_time
    latency = WeightedDigest()
    window_tx = unique_tx = 0
    for when, tx_count, mean_arrival in tap.unique_commits():
        unique_tx += tx_count
        if start <= when < end:
            window_tx += tx_count
            latency.add(max(0.0, when - mean_arrival), tx_count)
    hub_tx = result.committed_tx
    return {
        "unique_tx": unique_tx,
        "hub_tx": hub_tx,
        "emitted_tx": result.emitted_tx,
        "goodput_tps": window_tx / config.duration,
        "hub_tps": result.throughput_tps,
        "latency": latency,
        "dup_commit_share": (hub_tx - unique_tx) / hub_tx if hub_tx else 0.0,
        "events": result.events_processed,
    }


def _end_to_end(stats: dict, calls: timing.CallCount, setup_s: float) -> dict:
    ops = stats["unique_tx"]
    return {
        "setup_s": setup_s,
        "goodput_ops_per_s": stats["goodput_tps"],
        "latency_p50_ms": stats["latency"].percentile(50) * 1000.0,
        "completed_share": ops / stats["emitted_tx"],
        "unique_commit_share": 1.0 - stats["dup_commit_share"],
        "events_per_op": stats["events"] / ops,
        "py_calls_per_op": calls.total / ops,
        "peak_rss_mb": timing.peak_rss_mb(),
    }


def conservation_problems(stats: dict) -> tuple[list[str], int]:
    """Conservation: what committed was submitted, once. Returns the
    problems and the number of transactions committed but never emitted."""
    problems = []
    if stats["unique_tx"] <= 0:
        problems.append("nothing committed")
    excess = max(0, stats["unique_tx"] - stats["emitted_tx"])
    if excess:
        problems.append(
            f"{stats['unique_tx']} unique tx committed but only "
            f"{stats['emitted_tx']} emitted"
        )
    return problems, excess


def run_protocol(
    workload: Workload, seed: int, seconds: float, trace: int
) -> dict:
    scale = seconds / REFERENCE_SECONDS
    config = workload.build(seed, scale)
    if trace == 0:
        return _protocol_end_to_end(config)
    return _protocol_layers(workload.name, config)


def _protocol_end_to_end(config) -> dict:
    _warm_up(config)
    suite, tap = tapped_suite(checked=False)
    experiment = build_experiment(config, suite)
    setup_s = timing.setup_seconds()
    result, calls = profiled_run(experiment)
    stats = commit_stats(config, tap, result)
    problems, excess = conservation_problems(stats)
    return {
        "problems": problems,
        "attempted": stats["emitted_tx"],
        "failed": excess,
        "metrics": _end_to_end(stats, calls, setup_s),
        "detail": {
            "commit_hash": result.commit_hash,
            "unique_tx": stats["unique_tx"],
            "hub_tx": stats["hub_tx"],
            "latency_samples": len(stats["latency"]),
        },
    }


def _layer_calls(calls: timing.CallCount) -> dict:
    metrics = {}
    for layer in (
        "sim.engine", "sim.network", "workload", "mempool", "consensus",
        "replica", "crypto", "types", "metrics", "config",
    ):
        metrics[f"{layer}.py_calls"] = calls.by_layer.get(layer, 0)
        metrics[f"{layer}.profile_s"] = calls.seconds_by_layer.get(layer, 0.0)
    metrics["replica.handle_calls"] = calls.calls_of.get("replica:handle", 0)
    return metrics


def _host_metrics(
    walls: list[float], cpus: list[float], sim_seconds: float,
    events: int, ops: int,
) -> tuple[dict, dict]:
    """``host.*`` medians plus their per-rep raws and quartiles."""
    series = {
        "host.wall_s": walls,
        "host.cpu_s": cpus,
        "host.s_per_sim_s": [wall / sim_seconds for wall in walls],
        "host.us_per_op": [wall * 1e6 / ops for wall in walls],
        "host.events_per_s": [events / wall for wall in walls],
    }
    spreads = {name: timing.spread(values) for name, values in series.items()}
    return {name: entry["median"] for name, entry in spreads.items()}, spreads


def _timed_passes(build_and_run) -> tuple[list, list[float], list[float]]:
    results, walls, cpus = [], [], []
    for _ in range(TIMED_REPS):
        cpu_before = timing.cpu_seconds()
        result = build_and_run()
        cpus.append(timing.cpu_seconds() - cpu_before)
        walls.append(result.wall_clock_s)
        results.append(result)
    return results, walls, cpus


def _protocol_layers(name: str, config) -> dict:
    _warm_up(config)

    timed, walls, cpus = _timed_passes(
        lambda: build_experiment(config).run()
    )
    profile_result, calls = profiled_run(build_experiment(config))

    suite, tap = tapped_suite(checked=True)
    experiment = build_experiment(config, suite)
    recorder = spans.SpanRecorder()
    spans.install(recorder, experiment)
    traced = experiment.run()
    recorder.dump(timing.OUT_DIR / f"{name}.spans.jsonl")

    hashes = {
        "timed": sorted({result.commit_hash for result in timed}),
        "profile": profile_result.commit_hash,
        "traced": traced.commit_hash,
    }
    stats = commit_stats(config, tap, traced)
    problems, excess = conservation_problems(stats)
    if hashes["timed"] != [hashes["profile"]] or \
            hashes["profile"] != hashes["traced"]:
        problems.append(f"commit hashes differ between passes: {hashes}")
    problems.extend(str(violation) for violation in traced.violations)

    ops = stats["unique_tx"]
    timed_wall = timing.spread(walls)["median"]
    metrics, host_spreads = _host_metrics(
        walls, cpus, config.end_time, stats["events"], ops
    )
    metrics.update(_layer_calls(calls))
    metrics.update(_network_metrics(traced.network.stats, config.protocol.n, ops))
    metrics.update(_span_metrics(recorder, traced.wall_clock_s, timed_wall))

    hub = traced.metrics
    commits = hub.commits
    created = len(tap.created)
    sent = traced.network.stats.messages_sent
    acks = sent.get("pab.ack", 0) + sent.get("pab.ack.shard", 0)
    proposal_bytes = sum(p.size_bytes for p in tap.blocks.values())
    gaps = [
        entry["commit_gap"] for entry in hub.fault_report()
        if entry["kind"] == "crash"
    ]
    metrics.update({
        "sim.engine.events": stats["events"],
        "sim.engine.compactions": experiment.sim.compactions,
        "latency_p99_ms": stats["latency"].percentile(99) * 1000.0,
        "dup_commit_share": stats["dup_commit_share"],
        "workload.emitted_tx": stats["emitted_tx"],
        "mempool.microblocks_created": created,
        "mempool.acks_per_microblock": acks / created if created else 0.0,
        "mempool.stable_time_p50_ms": hub.stable_times.percentile(50) * 1000.0,
        "mempool.forwards": hub.forwarded_microblocks,
        "mempool.fetches": hub.fetch_count,
        "mempool.dup_committed_microblocks": tap.repeat_commits,
        "consensus.blocks_committed": len(commits),
        "consensus.microblocks_per_block": (
            sum(record.microblock_count for record in commits) / len(commits)
            if commits else 0.0
        ),
        "consensus.proposal_bytes_per_block": (
            proposal_bytes / len(tap.blocks) if tap.blocks else 0.0
        ),
        "consensus.view_changes": traced.view_changes,
        "metrics.hub_tps": stats["hub_tps"],
    })
    if gaps:  # only a cell with a crash has a crash window
        metrics["commit_gap_s"] = max(gaps)
    return {
        "problems": problems,
        "attempted": stats["emitted_tx"],
        "failed": excess,
        "metrics": metrics,
        "detail": {
            "commit_hashes": hashes,
            "host": host_spreads,
            "unique_tx": ops,
            "hub_tx": stats["hub_tx"],
            "goodput_tps": stats["goodput_tps"],
            "py_calls_per_op": calls.total / ops,
            "py_calls_by_layer": calls.by_layer,
        },
    }


def _network_metrics(stats, n: int, ops: int) -> dict:
    total_bytes = stats.total_bytes()
    return {
        "sim.network.msgs_per_op": sum(stats.messages_sent.values()) / ops,
        "sim.network.bytes_per_op": total_bytes / ops,
        "sim.network.max_node_bytes_share": (
            max(stats.node_bytes(node) for node in range(n)) / total_bytes
            if total_bytes else 0.0
        ),
        "sim.network.dropped_msgs": stats.messages_dropped,
    }


def _span_metrics(
    recorder: spans.SpanRecorder, traced_wall: float, timed_wall: float
) -> dict:
    calls, self_s = recorder.calls, recorder.self_s
    tap_s = self_s("verification.tap")
    return {
        "sim.network.calls": (
            calls("sim.network.send") + calls("sim.network.broadcast")
        ),
        "sim.network.call_self_s": (
            self_s("sim.network.send") + self_s("sim.network.broadcast")
        ),
        "sim.fabric.self_s": traced_wall - recorder.top_level_s,
        "workload.ingest_calls": calls("workload.ingest"),
        "mempool.on_message_calls": calls("mempool.on_message"),
        "mempool.on_message_self_s": self_s("mempool.on_message"),
        "mempool.ingest_self_s": (
            self_s("mempool.ingest") + self_s("workload.ingest")
        ),
        "mempool.make_payload_self_s": self_s("mempool.make_payload"),
        "mempool.verify_payload_self_s": self_s("mempool.verify_payload"),
        "mempool.on_commit_self_s": self_s("mempool.on_commit"),
        "consensus.on_message_calls": calls("consensus.on_message"),
        "consensus.on_message_self_s": self_s("consensus.on_message"),
        "metrics.record_commit_calls": calls("metrics.record_commit"),
        "metrics.record_commit_s": self_s("metrics.record_commit"),
        "verification.tap_calls": calls("verification.tap"),
        "verification.tap_s": tap_s,
        # Oracle time per second of the plain run: the budget line for
        # the event-spine item. Taken from spans, not from a difference
        # of two wall clocks, which this host cannot resolve.
        "verification.overhead_share": tap_s / timed_wall,
        "trace.overhead_ratio": traced_wall / timed_wall,
    }


# -- disseminate-128 ------------------------------------------------------


@contextmanager
def _captured_networks(on_create) -> Iterator[None]:
    """``run_netbench`` builds its ``Network`` inside the call; hand each
    one to ``on_create`` before handlers are registered on it."""
    original = netbench_module.Network

    def factory(*args, **kwargs):
        network = original(*args, **kwargs)
        on_create(network)
        return network

    netbench_module.Network = factory
    try:
        yield
    finally:
        netbench_module.Network = original


def _tapped_netbench(config, recorder=None):
    """One run with a delivery tap: (result, network, latency digest)."""
    latency = WeightedDigest()
    networks = []

    def on_create(network) -> None:
        networks.append(network)
        register, sim = network.register, network.sim

        def tapped_register(node, handler):
            def deliver(envelope):
                latency.add(sim.now - envelope.enqueued_at)
                handler(envelope)
            register(node, deliver)

        network.register = tapped_register
        if recorder is not None:
            spans.install_network(recorder, network)

    with _captured_networks(on_create):
        result = netbench_module.run_netbench(config)
    return result, networks[0], latency


def run_netbench(
    workload: Workload, seed: int, seconds: float, trace: int
) -> dict:
    scale = seconds / REFERENCE_SECONDS
    config = workload.build(seed, scale)
    sent = config.n * (config.n - 1) * round(
        config.rate_per_node * config.duration
    )
    # Warm-up; the fabric itself is built inside the measured call.
    netbench_module.run_netbench(
        dataclasses.replace(config, duration=max(0.05, 0.1 * scale))
    )
    if trace == 0:
        setup_s = timing.setup_seconds()
        result, calls = timing.profiled(netbench_module.run_netbench, config)
        tapped, _network, latency = _tapped_netbench(config)
        problems = []
        if tapped.fingerprint != result.fingerprint:
            problems.append("fingerprints differ between passes")
        ops = result.delivered
        return {
            "problems": problems,
            "attempted": sent,
            "failed": result.dropped,
            "metrics": {
                "setup_s": setup_s,
                "goodput_ops_per_s": result.delivered_per_sim_sec,
                "latency_p50_ms": latency.percentile(50) * 1000.0,
                # Uplinks are offered ~13x their capacity on purpose, so
                # most of what is sent is still queued at the horizon;
                # only a dropped message is a failure.
                "completed_share": ops / (ops + result.dropped),
                # A message reaches its handler once: never more
                # deliveries than copies sent.
                "unique_commit_share": min(sent, ops) / ops,
                "events_per_op": result.events_processed / ops,
                "py_calls_per_op": calls.total / ops,
                "peak_rss_mb": timing.peak_rss_mb(),
            },
            "detail": {"fingerprint": result.fingerprint, "delivered": ops},
        }

    timed, walls, cpus = _timed_passes(lambda: netbench_module.run_netbench(config))
    profile_result, calls = timing.profiled(netbench_module.run_netbench, config)
    recorder = spans.SpanRecorder()
    traced, network, latency = _tapped_netbench(config, recorder)
    recorder.dump(timing.OUT_DIR / f"{workload.name}.spans.jsonl")

    fingerprints = {result.fingerprint for result in timed}
    fingerprints.update((profile_result.fingerprint, traced.fingerprint))
    problems = []
    if len(fingerprints) != 1:
        problems.append(f"fingerprints differ between passes: {fingerprints}")
    ops = traced.delivered
    timed_wall = timing.spread(walls)["median"]
    metrics, host_spreads = _host_metrics(
        walls, cpus, config.duration, traced.events_processed, ops
    )
    metrics.update(_layer_calls(calls))
    metrics.update(_network_metrics(network.stats, config.n, ops))
    metrics.update(_span_metrics(recorder, traced.wall_clock_s, timed_wall))
    metrics.update({
        "sim.engine.events": traced.events_processed,
        "sim.engine.compactions": network.sim.compactions,
        "latency_p99_ms": latency.percentile(99) * 1000.0,
    })
    return {
        "problems": problems,
        "attempted": sent,
        "failed": traced.dropped,
        "metrics": metrics,
        "detail": {
            "fingerprints": sorted(fingerprints),
            "host": host_spreads,
            "py_calls_per_op": calls.total / ops,
            "py_calls_by_layer": calls.by_layer,
        },
    }
