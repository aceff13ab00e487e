"""Protocol presets matching the paper's acronyms (Table II).

``tuned_protocol`` applies the paper's tuning rules: 128 KB microblocks
for networks up to 128 replicas and 256 KB beyond (Fig. 5's conclusion),
plus topology-aware timers so native protocols get view timeouts long
enough to ship their full-data proposals.
"""

from __future__ import annotations

from pathlib import Path

from repro.config import ProtocolConfig, ShardingConfig
from repro.faults import FaultSchedule, Window
from repro.sim.topology import GBPS, MBPS

PROTOCOL_PRESETS: dict[str, tuple[str, str]] = {
    "N-HS": ("native", "hotstuff"),
    "N-SL": ("native", "streamlet"),
    "SMP-HS": ("simple", "hotstuff"),
    "SMP-SL": ("simple", "streamlet"),
    "SMP-HS-G": ("gossip", "hotstuff"),
    "Narwhal": ("narwhal", "hotstuff"),
    "S-HS": ("stratus", "hotstuff"),
    "S-SL": ("stratus", "streamlet"),
    "SS-HS": ("stratus", "hotstuff"),
    "S-HS2": ("stratus", "twochain"),
    "N-HS2": ("native", "twochain"),
}

#: Presets that shard their Stratus mempool, with their default layout.
SHARDED_PRESETS: dict[str, ShardingConfig] = {"SS-HS": ShardingConfig()}


def _default_batch_bytes(n: int) -> int:
    """Paper rule: 128 KB for N <= 128, 256 KB for larger networks."""
    return 128 * 1024 if n <= 128 else 256 * 1024


def tuned_protocol(
    preset: str,
    n: int,
    topology_kind: str = "lan",
    **overrides,
) -> ProtocolConfig:
    """Build a :class:`ProtocolConfig` for a paper acronym.

    ``overrides`` win over every tuned default, so benches can pin the
    exact parameter a figure sweeps (batch size, PAB quorum, d, ...).
    An overridden ``mempool`` or ``consensus`` also steers the defaults
    derived from them (load balancing, timers, proposal cap).
    """
    if preset not in PROTOCOL_PRESETS:
        raise ValueError(
            f"unknown preset {preset!r}; choose from {sorted(PROTOCOL_PRESETS)}"
        )
    mempool, consensus = PROTOCOL_PRESETS[preset]
    mempool = overrides.get("mempool", mempool)
    consensus = overrides.get("consensus", consensus)
    sharding = overrides.get("sharding", SHARDED_PRESETS.get(preset))
    shards = sharding.shards if sharding is not None else 1
    is_wan = topology_kind == "wan"
    one_way_delay = 0.050 if is_wan else 0.002
    bandwidth = 100 * MBPS if is_wan else GBPS

    settings: dict = {
        "mempool": mempool,
        "consensus": consensus,
        "batch_bytes": _default_batch_bytes(n),
        # Flush partial microblocks after this long. The paper's batch
        # sizes imply O(1 s) fill times at per-replica saturation rates
        # (visible in Fig. 5's saturation latencies); flushing much
        # earlier would shrink microblocks until proof overhead dominates.
        "batch_timeout": 0.5,
        "native_block_bytes": 128 * 1024 if is_wan else 512 * 1024,
        "fetch_timeout": max(0.2, 6 * one_way_delay),
        "lb_query_timeout": max(0.05, 4 * one_way_delay),
        "lb_forward_timeout": max(0.5, 12 * one_way_delay),
        # DLB is unsharded Stratus's: there is no shard-aware balancer.
        "load_balancing": mempool == "stratus" and shards == 1,
    }
    if sharding is not None:
        settings["sharding"] = sharding
    if consensus == "streamlet":
        # One epoch must cover proposal dissemination plus a vote round.
        if mempool == "native":
            block_bytes = settings["native_block_bytes"]
            transmit = (n - 1) * block_bytes * 8.0 / bandwidth
            settings["streamlet_epoch"] = 1.3 * transmit + 6 * one_way_delay
        else:
            epoch = max(0.08, 6 * one_way_delay)
            settings["streamlet_epoch"] = epoch
            # Unlike chained HotStuff (whose views stretch with proposal
            # size), Streamlet's epochs are wall-clock: the leader's
            # (n-1)-fold proposal broadcast must fit well inside one
            # epoch, so cap the entry count by a quarter-epoch byte
            # budget, at 64 bytes an entry.
            budget_bytes = 0.25 * epoch * bandwidth / 8.0
            settings["proposal_max_microblocks"] = max(
                16, int(budget_bytes / ((n - 1) * 64))
            )
    if mempool == "native":
        block_bytes = settings["native_block_bytes"]
        transmit = (n - 1) * block_bytes * 8.0 / bandwidth
        settings["view_timeout"] = max(2.0, 4.0 * transmit)
    else:
        settings["view_timeout"] = max(2.0, 40 * one_way_delay)

    settings.update(overrides)
    return ProtocolConfig(n=n, **settings)


#: Named chaos schedules for the CLI's ``--faults`` flag, each a builder
#: of its windows from the crash victim, the highest id (partition
#: groups must fit the membership, so the presets need n >= 4).
_CHAOS_PRESETS = {
    "crash-restart": lambda victim: [
        Window("crash", 2.0, 4.0, nodes=(victim,)),
    ],
    "crash-partition": lambda victim: [
        Window("crash", 2.0, 4.0, nodes=(victim,)),
        Window("partition", 2.5, 3.5, groups=((0, 1),)),
        Window("loss", 2.0, 4.0, rate=0.2, channel="data"),
    ],
    "fig7-disturbance": lambda victim: [
        Window("delay", 5.0, 15.0, base=0.1, jitter=0.05),
        Window("bandwidth", 5.0, 15.0, factor=0.15),
    ],
    "flaky-data": lambda victim: [
        Window("loss", 1.5, 4.5, rate=0.1, channel="data"),
    ],
    "leader-squeeze": lambda victim: [
        Window("bandwidth", 2.0, 4.0, factor=0.1, nodes=(0,)),
    ],
}
CHAOS_PRESET_NAMES = tuple(_CHAOS_PRESETS)


def chaos_schedule(name: str, n: int) -> FaultSchedule:
    """Build a named chaos preset for an ``n``-replica network.

    * ``crash-restart`` — one replica dies at t=2 s and returns at t=4 s;
      exercises queue flushing, timer suspension, and chain-sync catch-up.
    * ``crash-partition`` — the crash above plus a 1 s partition isolating
      replicas {0, 1} and a 20 % data-channel loss window; while the crash
      and partition overlap no quorum exists anywhere, so the run shows a
      stall, a heal, and a measurable time-to-recover.
    * ``fig7-disturbance`` — the paper's Fig. 7 NetEm window, starting
      at t=5 s: a delay window of 10 s of 100 ms ± 50 ms one-way delay,
      and a bandwidth window over the same 10 s scaling every uplink to
      15 %, the TCP goodput collapse under that jitter.
    * ``flaky-data`` — 10 % loss on the DATA channel for 3 s: microblock
      bodies go missing while small consensus messages survive, stressing
      the fetch/recovery path specifically.
    * ``leader-squeeze`` — replica 0's uplink drops to 10 % for 2 s
      (the straggling-leader scenario of Problem II).
    """
    if n < 4:
        raise ValueError(f"chaos presets need n >= 4, got n={n}")
    if name not in _CHAOS_PRESETS:
        raise ValueError(
            f"unknown chaos preset {name!r}; choose from {CHAOS_PRESET_NAMES}"
        )
    return FaultSchedule(_CHAOS_PRESETS[name](n - 1))


def resolve_fault_spec(
    spec: str, n: int, live: bool = False
) -> FaultSchedule:
    """Resolve a ``--faults`` argument into a validated schedule.

    ``spec`` is a chaos preset name, ``@path/to/schedule.json``, or an
    inline JSON window list (the grammar of :mod:`repro.faults.schedule`)
    — the one grammar shared by the simulator and live CLIs. With
    ``live=True`` the schedule is additionally held to the live
    backend's restrictions (see
    :meth:`FaultSchedule.validate_live` — e.g. no behavior swaps, which
    would need a runtime control channel into the replica processes).
    Raises ``ValueError`` (for a missing ``@file``, malformed JSON, an
    unknown key, a value of the wrong type, or one out of range) so
    callers own the exit/retry policy.
    """
    if spec in CHAOS_PRESET_NAMES:
        schedule = chaos_schedule(spec, n)
    else:
        if spec.startswith("@"):
            path = Path(spec[1:])
            if not path.exists():
                raise ValueError(f"fault schedule file not found: {path}")
            text = path.read_text()
        else:
            text = spec
        schedule = FaultSchedule.from_json(text)
    if live:
        schedule.validate_live(n)
    else:
        schedule.validate(n)
    return schedule
