"""The TCP path: ``live-shs-tcp-4`` (a real n=4 cluster) and
``live-wire-pair`` (codec and one connection in one process).

Both are open loops at the rate the protocol itself produces: host time
does not repeat on this machine, results at a fixed rate do. Unpaced
rates (codec frames/s, closed-loop pair frames/s) are host time and
therefore per-layer entries of the traced run.
"""

from __future__ import annotations

import asyncio
import resource
import statistics
import time
from collections import deque
from functools import partial

from repro.harness import build_experiment
from repro.live import LiveConfig, RealtimeScheduler, get_codec
from repro.live.orchestrator import allocate_ports, run_live as run_cluster
from repro.live.network import LiveNetwork
from repro.live.wire import FrameDecoder
from repro.sim.interfaces import Channel

import simrun
import timing
from workloads import REFERENCE_SECONDS, Workload, live_experiment

#: Seconds between spawning the replicas and protocol t=0.
STARTUP_GRACE = 2.5

#: Share of ``--seconds`` the wire pair replays the recorded trace for.
REPLAY_SHARE = 0.6
#: Frames in flight in the closed-loop (per-layer) pair run.
WINDOW = 2048
PAIR_REPS = 3
#: At ``--seconds 5``: codec round trips, and frames per closed-loop rep.
CODEC_FRAMES = 20_000
PAIR_FRAMES = 40_000


# -- live-shs-tcp-4 --------------------------------------------------------


def _run_cluster(config) -> tuple[object, float]:
    """One live run; (result, CPU seconds of parent + replicas)."""
    timing.OUT_DIR.mkdir(parents=True, exist_ok=True)
    cpu_before = (
        timing.cpu_seconds() + timing.cpu_seconds(resource.RUSAGE_CHILDREN)
    )
    result = run_cluster(LiveConfig(
        config, startup_grace=STARTUP_GRACE, wire_codec="binary",
        scratch_dir=str(timing.OUT_DIR),
    ))
    cpu = (
        timing.cpu_seconds() + timing.cpu_seconds(resource.RUSAGE_CHILDREN)
        - cpu_before
    )
    return result, cpu


def _twin(config) -> tuple[float, float, list[str]]:
    """The same configuration in the simulator: calls per committed tx,
    unique commit share, conservation problems.

    The replicas are separate OS processes a profiler in this one cannot
    see, and no observer reaches into them. They run the simulator's
    protocol classes unchanged, so the handler cost per transaction and
    the re-commits are counted there; what TCP adds on top is
    ``live-wire-pair``'s call count.
    """
    suite, tap = simrun.tapped_suite(checked=False)
    experiment = build_experiment(config, suite)
    result, calls = simrun.profiled_run(experiment)
    stats = simrun.commit_stats(config, tap, result)
    problems, _excess = simrun.conservation_problems(stats)
    return (
        calls.total / stats["unique_tx"],
        1.0 - stats["dup_commit_share"],
        problems,
    )


def run_live(
    workload: Workload, seed: int, seconds: float, trace: int
) -> dict:
    config = workload.build(seed, seconds / REFERENCE_SECONDS)
    # Protocol t=0 is ``startup_grace`` after the call; the replicas are
    # spawned inside the grace.
    setup_s = timing.setup_seconds() + STARTUP_GRACE
    result, cpu_s = _run_cluster(config)
    problems = [str(violation) for violation in result.violations]
    committed = result.committed_tx
    if committed <= 0:
        problems.append("the cluster committed nothing")
        committed = 1
    replicas = result.per_replica
    frames = sum(row["messages_delivered"] for row in replicas)
    latency = result.latency
    detail = {
        "committed_tx": result.committed_tx,
        "emitted_tx": result.emitted_tx,
        "latency_samples": len(latency),
        "wall_clock_s": result.wall_clock_s,
    }
    if trace == 0:
        calls_per_tx, unique_share, twin_problems = _twin(config)
        problems.extend(twin_problems)
        detail["py_calls_per_op"] = calls_per_tx
        metrics = {
            "setup_s": setup_s,
            "goodput_ops_per_s": result.throughput_tps,
            "latency_p50_ms": latency.percentile(50) * 1000.0,
            "completed_share": min(1.0, committed / result.emitted_tx),
            "unique_commit_share": unique_share,
            "events_per_op": frames / committed,
            "py_calls_per_op": calls_per_tx,
            "peak_rss_mb": timing.peak_rss_mb(resource.RUSAGE_CHILDREN),
        }
    else:
        offered = config.rate_tps * config.end_time
        metrics = {
            "latency_p99_ms": latency.percentile(99) * 1000.0,
            "live.cpu_us_per_committed_tx": cpu_s * 1e6 / committed,
            "live.frames_per_committed_tx": frames / committed,
            "live.bytes_per_committed_tx": (
                sum(row["bytes_out"] for row in replicas) / committed
            ),
            "live.latency_p90_ms": latency.percentile(90) * 1000.0,
            "live.client.emit_shortfall_share": (
                1.0 - result.emitted_tx / offered
            ),
            "live.view_changes": result.view_changes,
            "live.queue_high_watermark": max(
                row["queue_high_watermark"] for row in replicas
            ),
            "live.network.frames_dropped": sum(
                row["frames_dropped"] for row in replicas
            ),
            "live.startup_s": result.wall_clock_s - config.end_time,
            "metrics.hub_tps": result.throughput_tps,
            "workload.emitted_tx": result.emitted_tx,
            "consensus.blocks_committed": result.committed_blocks,
        }
    return {
        "problems": problems,
        "attempted": result.emitted_tx,
        # The cluster is far under capacity and drains before it stops,
        # so a transaction it never committed is a lost one.
        "failed": max(0, result.emitted_tx - result.committed_tx),
        "metrics": metrics,
        "detail": detail,
    }


# -- live-wire-pair --------------------------------------------------------


def record_trace(seed: int) -> tuple[list[tuple], list[float], float]:
    """Every ``(kind, payload, channel)`` node 0 hands the network during
    2 sim-s of the live configuration, and when: real protocol messages
    in the real mix (acks, votes, microblocks, proofs, proposals) at the
    real rate. Returns the messages, their send times and the period."""
    config = live_experiment(seed, duration=1.0)
    experiment = build_experiment(config)
    network, sim = experiment.network, experiment.sim
    send, broadcast = network.send, network.broadcast
    messages, times = [], []

    def tapped_send(src, dst, kind, size_bytes, payload,
                    channel=Channel.DATA):
        if src == 0 and dst != 0:
            messages.append((kind, payload, channel))
            times.append(sim.now)
        send(src, dst, kind, size_bytes, payload, channel)

    def tapped_broadcast(src, kind, size_bytes, payload,
                         channel=Channel.DATA, **kwargs):
        if src == 0:
            messages.append((kind, payload, channel))
            times.append(sim.now)
        broadcast(src, kind, size_bytes, payload, channel, **kwargs)

    network.send, network.broadcast = tapped_send, tapped_broadcast
    experiment.run()
    return messages, times, config.end_time


def _round_trip(codec, trace: list[tuple], frames: int) -> int:
    """``codec.encode`` -> ``FrameDecoder.feed`` for ``frames`` messages."""
    decoder = FrameDecoder(codec)
    encode, feed = codec.encode, decoder.feed
    size = len(trace)
    decoded = 0
    for index in range(frames):
        kind, payload, channel = trace[index % size]
        for _message in feed(encode(0, kind, channel, payload)):
            decoded += 1
    return decoded


def _codec_costs(name: str, trace: list[tuple], frames: int) -> dict:
    """Encode and decode microseconds and bytes per frame of one codec."""
    codec = get_codec(name)
    size = len(trace)
    with timing.quiet_gc():
        started = time.perf_counter()
        encoded = []
        for index in range(frames):
            kind, payload, channel = trace[index % size]
            encoded.append(codec.encode(0, kind, channel, payload))
        encode_s = time.perf_counter() - started
        decoder = FrameDecoder(codec)
        started = time.perf_counter()
        decoded = sum(1 for frame in encoded for _ in decoder.feed(frame))
        decode_s = time.perf_counter() - started
    return {
        "decoded": decoded,
        "encode_us": encode_s * 1e6 / frames,
        "decode_us": decode_s * 1e6 / frames,
        "bytes": sum(len(frame) for frame in encoded) / frames,
    }


class _Pair:
    """Two ``LiveNetwork`` endpoints in one event loop, alice -> bob."""

    def __init__(self, trace: list[tuple]) -> None:
        self.trace = trace
        self.sent = 0
        self.received = 0
        #: Delivery time - due time, per frame.
        self.latencies: list[float] = []
        #: Send time - due time, per frame: how late the generator ran.
        self.lateness: list[float] = []
        #: Due times of frames in flight; TCP is FIFO per channel class.
        self._due = {}
        self._done = asyncio.Event()
        self._expected = float("inf")  # set once everything is sent
        self._on_frame = None

    async def open(self) -> None:
        loop = asyncio.get_running_loop()
        self.scheduler = RealtimeScheduler(loop)
        ports = allocate_ports(2)
        self.bob = LiveNetwork(1, {1: ports[1]}, self.scheduler, codec="binary")
        self.bob.register(1, self._deliver)
        await self.bob.start()
        self.alice = LiveNetwork(0, ports, self.scheduler, codec="binary")
        await self.alice.start(listen=False)
        while not self.alice.liveness()[1]:
            await asyncio.sleep(0.001)

    async def close(self) -> None:
        await self.alice.close()
        await self.bob.close()

    def send_next(self, due: float) -> None:
        kind, payload, channel = self.trace[self.sent % len(self.trace)]
        self._due.setdefault(channel, deque()).append(due)
        self.lateness.append(time.perf_counter() - due)
        self.sent += 1
        self.alice.send(0, 1, kind, 0.0, payload, channel)

    def _deliver(self, envelope) -> None:
        due = self._due[envelope.channel].popleft()
        self.latencies.append(time.perf_counter() - due)
        self.received += 1
        if self._on_frame is not None:
            self._on_frame()
        if self.received >= self._expected:
            self._done.set()

    async def _finish(self, frames: int) -> None:
        self._expected = frames - self.alice.stats.frames_dropped
        if self.received < self._expected:
            try:
                await asyncio.wait_for(self._done.wait(), timeout=60.0)
            except asyncio.TimeoutError:
                pass  # the caller reports the undelivered frames

    async def replay(self, times: list[float], period: float,
                     seconds: float) -> float:
        """Open loop: each frame is due when node 0 sent it (the trace
        repeats every ``period``) and leaves on the program's own timer,
        as a replica's sends do; returns elapsed seconds."""
        started = time.perf_counter()
        frames = 0
        while True:
            cycle, index = divmod(frames, len(times))
            offset = cycle * period + times[index]
            if offset >= seconds:
                break
            due = started + offset
            self.scheduler.schedule(
                due - time.perf_counter(), partial(self.send_next, due)
            )
            frames += 1
        await asyncio.sleep(started + seconds - time.perf_counter())
        await self._finish(frames)
        return time.perf_counter() - started

    async def windowed(self, frames: int) -> float:
        """Closed loop, ``WINDOW`` frames in flight, topped up by the
        receive handler (no polling); returns elapsed seconds."""
        def top_up() -> None:
            while self.sent < frames and self.sent - self.received < WINDOW:
                self.send_next(time.perf_counter())

        self._on_frame = top_up
        started = time.perf_counter()
        top_up()
        await self._finish(frames)
        return time.perf_counter() - started


async def _with_pair(trace: list[tuple], drive, *args) -> dict:
    """Open a pair, run ``drive`` (``_Pair.replay`` or ``_Pair.windowed``)
    on it, close it; what was sent and what arrived."""
    pair = _Pair(trace)
    await pair.open()
    try:
        with timing.quiet_gc():
            elapsed = await drive(pair, *args)
    finally:
        await pair.close()
    return {
        "elapsed_s": elapsed,
        "sent": pair.sent,
        "received": pair.received,
        "dropped": pair.alice.stats.frames_dropped,
        "enqueued": sum(pair.alice.stats.messages_sent.values()),
        "latencies": pair.latencies,
        "lateness": pair.lateness,
    }


def run_wire(
    workload: Workload, seed: int, seconds: float, trace: int
) -> dict:
    seed, scale = workload.build(seed, seconds / REFERENCE_SECONDS)
    codec_frames = max(1000, int(CODEC_FRAMES * scale))

    messages, times, period = record_trace(seed)
    binary = get_codec("binary")
    setup_s = timing.setup_seconds()
    with timing.quiet_gc():
        decoded, calls = timing.profiled(
            _round_trip, binary, messages, codec_frames
        )
    problems = []
    if decoded != codec_frames:
        problems.append(f"codec decoded {decoded} of {codec_frames} frames")

    if trace == 0:
        run = asyncio.run(_with_pair(
            messages, _Pair.replay, times, period,
            max(0.3, REPLAY_SHARE * seconds),
        ))
        undelivered = run["sent"] - run["received"]
        if undelivered:
            problems.append(f"{undelivered} frames sent but not delivered")
        return {
            "problems": problems,
            "attempted": run["sent"] + codec_frames,
            "failed": undelivered + codec_frames - decoded,
            "metrics": {
                "setup_s": setup_s,
                "goodput_ops_per_s": run["received"] / run["elapsed_s"],
                "latency_p50_ms": statistics.median(run["latencies"]) * 1000.0,
                "completed_share": run["received"] / run["sent"],
                # TCP hands a frame to its handler once: never more
                # deliveries than sends.
                "unique_commit_share": (
                    min(run["sent"], run["received"]) / run["received"]
                ),
                # Frames put on the wire per frame delivered.
                "events_per_op": run["enqueued"] / run["received"],
                "py_calls_per_op": calls.total / codec_frames,
                "peak_rss_mb": timing.peak_rss_mb(),
            },
            "detail": {
                "trace_messages": len(messages),
                "replayed_frames": run["sent"],
                "generator_late_p50_ms": (
                    statistics.median(run["lateness"]) * 1000.0
                ),
            },
        }

    costs = {
        name: _codec_costs(name, messages, codec_frames)
        for name in ("binary", "json")
    }
    for name, cost in costs.items():
        if cost["decoded"] != codec_frames:
            problems.append(f"{name} codec lost frames")
    with timing.quiet_gc():
        started = time.perf_counter()
        _round_trip(binary, messages, codec_frames)
        round_trip_s = time.perf_counter() - started
    frames = max(2 * WINDOW, int(PAIR_FRAMES * scale))
    runs = [
        asyncio.run(_with_pair(messages, _Pair.windowed, frames))
        for _ in range(PAIR_REPS)
    ]
    rates = timing.spread([run["received"] / run["elapsed_s"] for run in runs])
    dropped = sum(run["dropped"] for run in runs)
    undelivered = sum(run["sent"] - run["received"] for run in runs)
    if undelivered:
        problems.append(f"{undelivered} frames sent but not delivered")
    pair_us = 1e6 / rates["median"]
    kinds: dict[str, int] = {}
    for kind, _payload, _channel in messages:
        kinds[kind] = kinds.get(kind, 0) + 1
    return {
        "problems": problems,
        "attempted": PAIR_REPS * frames + 3 * codec_frames,
        "failed": undelivered,
        "metrics": {
            "live.wire.py_calls": calls.by_layer.get("live", 0),
            "live.wire.encode_us_per_frame": costs["binary"]["encode_us"],
            "live.wire.decode_us_per_frame": costs["binary"]["decode_us"],
            "live.wire.bytes_per_frame": costs["binary"]["bytes"],
            "live.wire.json_encode_us_per_frame": costs["json"]["encode_us"],
            "live.wire.json_decode_us_per_frame": costs["json"]["decode_us"],
            "live.wire.json_bytes_per_frame": costs["json"]["bytes"],
            "live.wire.codec_frames_per_s": codec_frames / round_trip_s,
            "live.network.pair_frames_per_s": rates["median"],
            "live.network.socket_us_per_frame": (
                pair_us - costs["binary"]["encode_us"]
                - costs["binary"]["decode_us"]
            ),
            "live.network.frames_dropped": dropped,
        },
        "detail": {
            "trace_messages": len(messages),
            "trace_kinds": kinds,
            "trace_frames_per_s": len(messages) / period,
            "pair_frames_per_s": rates,
            "py_calls_per_op": calls.total / codec_frames,
        },
    }
