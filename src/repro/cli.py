"""Command-line experiment runner.

Run a single configured experiment and print its summary::

    python -m repro --preset S-HS --n 32 --topology lan \
        --rate 50000 --duration 3 --warmup 1

Or sweep a parameter::

    python -m repro --preset S-HS N-HS --n 16 32 64 --rate 200000

Every (preset, n) combination runs once; results print as an aligned
table. This is the quickest way to poke at the system without writing a
script.

Two verification subcommands ride alongside the flat experiment
interface::

    python -m repro fuzz --seed 42 --iterations 20 --shrink \
        --out artifacts/
    python -m repro replay artifacts/fuzz-42-0007.json

``fuzz`` derives oracle-armed scenarios from one root seed and exits
non-zero if any violation survives; with ``--shrink`` each failure is
minimized and written as a replayable JSON artifact that ``replay``
re-runs bit-for-bit.

A third subcommand leaves the simulator entirely: ``live`` runs the
same protocol stack as real OS processes over localhost TCP::

    python -m repro live --protocol hotstuff --mempool stratus -n 4 \
        --duration 10

and exits non-zero if the cluster commits nothing or a safety oracle
fires on the merged commit log (see :mod:`repro.live`). Both runners
take the same ``--faults`` grammar; under ``live`` the schedule runs as
real chaos — SIGKILL + respawn for crashes, frame shaping for link
faults::

    python -m repro live -n 4 --duration 8 --faults crash-restart
"""

from __future__ import annotations

import argparse
import cProfile
import json
import math
import pstats
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.config import (
    CONSENSUS_KINDS,
    MEMPOOL_KINDS,
    ProtocolConfig,
    ShardingConfig,
)
from repro.durability import DurabilityConfig
from repro.harness import (
    CHAOS_PRESET_NAMES,
    ExperimentConfig,
    PROTOCOL_PRESETS,
    RunResult,
    format_table,
    resolve_fault_spec,
    tuned_protocol,
)
from repro.harness.config import SELECTORS, TOPOLOGIES
from repro.sim.network import LINK_MODELS
from repro.workload.generator import WORKLOAD_MODES

#: The ``--faults`` help text shared by the sim and live parsers — one
#: grammar, resolved by :func:`repro.harness.resolve_fault_spec`.
FAULTS_HELP = (
    "scripted fault schedule: a chaos preset name "
    f"({', '.join(CHAOS_PRESET_NAMES)}), inline JSON "
    '(\'[{"kind": "crash", "start": 2.0, "end": 4.0, "nodes": [3]}, '
    '...]\'; one entry per fault window, "end" omitted when it never '
    'heals; a "swap" at start 0 is a Byzantine replica, a "bandwidth" '
    'window from 0 with no "end" a slow one), '
    "or @file.json"
)


#: Protocol fields only the sweep sets, one ``--batch-bytes``-style flag
#: per ``(field, type)``.
SWEEP_OVERRIDES = (
    ("batch_bytes", int), ("batch_timeout", float),
    ("pab_quorum", int), ("lb_samples", int),
)


def _add_run_args(
    parser: argparse.ArgumentParser, rate: float, duration: float
) -> None:
    """The run flags the sim and live parsers share; only defaults differ."""
    parser.add_argument("--mempool", choices=MEMPOOL_KINDS, default=None,
                        help="mempool kind (default: the preset's, "
                             "stratus under live)")
    parser.add_argument("--shards", type=int, default=None, metavar="S",
                        help="shard count for the stratus mempool "
                             "(implies --mempool stratus when no mempool "
                             "is given)")
    parser.add_argument("--rate", type=float, default=rate,
                        help="offered load, tx/s")
    parser.add_argument("--duration", type=float, default=duration,
                        help="measurement window, seconds")
    parser.add_argument("--warmup", type=float, default=1.0,
                        help="seconds run before the measurement window")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--selector", choices=SELECTORS, default="uniform")
    parser.add_argument("--view-timeout", type=float, default=None,
                        help="view timeout and Streamlet epoch override, "
                             "seconds — short timers make crash recovery "
                             "fit short runs")
    parser.add_argument("--faults", default=None, metavar="SPEC",
                        help=FAULTS_HELP + "; under live, crashes become "
                             "SIGKILL + respawn and link faults real frame "
                             "shaping (see repro.live.chaos)")
    parser.add_argument(
        "--durability", choices=["always", "interval", "off"], default=None,
        metavar="FSYNC",
        help="persist the state machine (WAL + checkpoints) with this "
             "fsync policy: always | interval | off",
    )
    parser.add_argument(
        "--checkpoint-interval", type=int, default=32, metavar="BLOCKS",
        help="blocks applied between checkpoints (with --durability)",
    )
    parser.add_argument(
        "--data-dir", default=None, metavar="DIR",
        help="root directory for per-replica durable state "
             "(a temp dir when unset)",
    )


def _protocol_overrides(args) -> dict:
    """Protocol fields the shared run flags set, the same in both runners.

    ``--shards`` implies the stratus mempool and refuses any other named
    one, which would otherwise run unsharded.
    """
    overrides = {}
    if args.shards is not None:
        if args.mempool not in (None, "stratus"):
            raise SystemExit(
                f"--shards needs --mempool stratus, "
                f"got --mempool {args.mempool}"
            )
        overrides["mempool"] = "stratus"
        overrides["sharding"] = ShardingConfig(shards=args.shards)
    elif args.mempool is not None:
        overrides["mempool"] = args.mempool
    if args.view_timeout is not None:
        overrides["view_timeout"] = args.view_timeout
        overrides["streamlet_epoch"] = args.view_timeout
    return overrides


def _experiment(
    args, protocol: ProtocolConfig, live: bool = False, **fields
) -> ExperimentConfig:
    """An :class:`ExperimentConfig` from the shared run flags."""
    faults = None
    if args.faults is not None:
        # Preset schedules depend on n (the crash victim is the highest
        # id), so resolution happens per config.
        try:
            faults = resolve_fault_spec(args.faults, protocol.n, live=live)
        except ValueError as exc:
            # Covers JSONDecodeError too; a typo'd preset name lands here.
            raise SystemExit(
                f"bad --faults spec: {exc}\n"
                f"expected a chaos preset ({', '.join(CHAOS_PRESET_NAMES)})"
                ", @file, or an inline JSON schedule"
            ) from exc
    return ExperimentConfig(
        protocol=protocol,
        rate_tps=args.rate,
        duration=args.duration,
        warmup=args.warmup,
        seed=args.seed,
        selector=args.selector,
        faults=faults,
        durability=None if args.durability is None else DurabilityConfig(
            fsync=args.durability,
            checkpoint_interval=args.checkpoint_interval,
        ),
        **fields,
    )


def _print_fault_report(label: str, report: list[dict]) -> None:
    """Render per-fault-window recovery metrics (sim and live runs)."""
    rows = [
        [
            entry["kind"],
            f"{entry['start']:.2f}",
            _fmt_time(entry["end"]),
            ",".join(map(str, entry["nodes"])) or "all",
            f"{entry['throughput_tps']:,.0f}",
            _fmt_time(entry["commit_gap"]),
            _fmt_time(entry["time_to_recover"]),
        ]
        for entry in report
    ]
    print()
    print(format_table(
        ["fault", "start", "end", "nodes", "tput (tx/s)",
         "commit gap (s)", "recover (s)"],
        rows,
        title=f"{label} fault windows",
    ))


def _print_recovery_report(label: str, report: list[dict]) -> None:
    """Render durable-executor recovery rows (sim and live runs)."""
    rows = [
        [
            entry.get("node", "-"),
            entry.get("generation", "-"),
            entry["source"],
            f"{entry['duration_s'] * 1000:.2f}",
            entry["wal_blocks_replayed"],
            f"{entry['wal_replay_blocks_per_sec']:,.0f}",
            f"{entry['checkpoint_bytes']:,}",
        ]
        for entry in report
    ]
    print()
    print(format_table(
        ["node", "gen", "source", "recovery (ms)", "wal blocks",
         "replay (blk/s)", "ckpt bytes"],
        rows,
        title=f"{label} durable recoveries",
    ))


def _print_results_table(
    where: str, rate: float, duration: float,
    cells: list[tuple[str, int, RunResult]],
) -> None:
    """One row per run: the table sim sweeps and live runs both lead with."""
    print(format_table(
        ["protocol", "n", "tput (tx/s)", "lat mean (ms)", "lat p99 (ms)",
         "view chg", "committed"],
        [
            [
                name, n,
                f"{result.throughput_tps:,.0f}",
                f"{result.latency_mean * 1000:.1f}",
                f"{result.latency_percentile(99) * 1000:.1f}",
                result.view_changes,
                f"{result.committed_tx:,}",
            ]
            for name, n, result in cells
        ],
        title=(f"{where} @ {rate:,.0f} tx/s offered, "
               f"{duration:.0f}s window"),
    ))


def _print_reports(results: list[RunResult]) -> None:
    """Fault windows, durable recoveries and timelines of sim or live runs."""
    for result in results:
        if result.fault_report:  # swaps are no fault windows
            _print_fault_report(result.label, result.fault_report)
    for result in results:
        if result.recovery_report:
            _print_recovery_report(result.label, result.recovery_report)
    for result in results:
        if result.timeline is not None:
            print(f"\n{result.label} timeline (t -> tx/s):")
            for t, value in result.timeline:
                print(f"  {t:5.0f}s  {value:>12,.0f}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Run Stratus / baseline BFT experiments on the "
                    "simulated network.",
    )
    parser.add_argument(
        "--preset", nargs="+", default=["S-HS"],
        choices=sorted(PROTOCOL_PRESETS),
        help="protocol acronym(s) from the paper's Table II",
    )
    parser.add_argument("--n", nargs="+", type=int, default=[16],
                        help="network size(s)")
    _add_run_args(parser, rate=20_000.0, duration=3.0)
    parser.add_argument("--topology", choices=TOPOLOGIES, default="lan")
    parser.add_argument("--bandwidth", type=float, default=None,
                        help="per-replica bandwidth override, bits/s")
    for field, kind in SWEEP_OVERRIDES:
        parser.add_argument("--" + field.replace("_", "-"), type=kind,
                            default=None)
    parser.add_argument("--link-model", choices=LINK_MODELS,
                        default="serial",
                        help="uplink model: store-and-forward serialization "
                             "or fair-share capacity splitting")
    parser.add_argument("--workload-mode", choices=WORKLOAD_MODES,
                        default="ticks",
                        help="client arrival generation: per-tick batches "
                             "or lazily-replayed aggregate streams "
                             "(bit-exact with ticks, and no cheaper on "
                             "protocol runs)")
    parser.add_argument("--clients", type=int, default=None,
                        metavar="COUNT",
                        help="offered client population the rate stands "
                             "for (recorded in results only; arrivals are "
                             "aggregate in either mode, so the count does "
                             "not change a run's cost)")
    parser.add_argument("--timeline", action="store_true",
                        help="print a per-second throughput timeline")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="run independent (preset, n) sweep cells in N "
                             "worker processes; results (and hashes) are "
                             "identical to --jobs 1")
    parser.add_argument("--profile", action="store_true",
                        help="run under cProfile and print the hottest "
                             "functions after the results table "
                             "(forces --jobs 1)")
    parser.add_argument("--profile-top", type=int, default=20,
                        metavar="N",
                        help="with --profile, how many functions to show")
    return parser


def build_fuzz_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro fuzz",
        description="Run oracle-armed randomized scenarios derived from "
                    "one root seed; exit non-zero on any violation.",
    )
    parser.add_argument("--seed", type=int, default=0,
                        help="root seed; every scenario derives from it")
    parser.add_argument("--iterations", type=int, default=10,
                        help="how many scenarios to derive and run")
    parser.add_argument("--start", type=int, default=0,
                        help="first scenario index (resume a sweep)")
    parser.add_argument("--shrink", action="store_true",
                        help="minimize each failing scenario before "
                             "writing its artifact")
    parser.add_argument("--out", default=None, metavar="DIR",
                        help="directory for failing-scenario artifacts "
                             "(created if missing)")
    parser.add_argument("--stop-on-failure", action="store_true",
                        help="stop the sweep at the first violation")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="run scenarios in N worker processes; outcome "
                             "order and hashes are identical to --jobs 1")
    return parser


def run_fuzz(argv: Sequence[str]) -> int:
    from repro.verification import (
        ScenarioFuzzer,
        shrink_scenario,
        write_artifact,
    )

    args = build_fuzz_parser().parse_args(argv)
    out_dir: Optional[Path] = None
    if args.out is not None:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
    fuzzer = ScenarioFuzzer(args.seed)

    def report(result) -> None:
        status = (
            f"FAIL ({len(result.violations)} violations)"
            if result.violations else "ok"
        )
        print(f"  {result.label:<44} "
              f"tx={result.committed_tx:<8,} "
              f"hash={result.commit_hash}  {status}")
        for violation in result.violations:
            print(f"    [{violation.oracle}/{violation.kind}] "
                  f"{violation.message}")

    print(f"fuzz: root seed {args.seed}, scenarios "
          f"{args.start}..{args.start + args.iterations - 1}")
    results = fuzzer.run(
        args.iterations, start=args.start,
        stop_on_failure=args.stop_on_failure, on_outcome=report,
        jobs=args.jobs,
    )
    failures = [
        (index, result)
        for index, result in enumerate(results, start=args.start)
        if result.violations
    ]
    for index, result in failures:
        config = fuzzer.scenario(index)
        shrink_runs = None
        if args.shrink:
            shrunk = shrink_scenario(config)
            print(f"  shrunk {config.label}: "
                  f"{shrunk.removed_faults} faults dropped, duration "
                  f"{config.duration} -> {shrunk.minimized.duration}s "
                  f"({shrunk.runs} runs)")
            config, result = shrunk.minimized, shrunk.outcome
            shrink_runs = shrunk.runs
        if out_dir is not None:
            path = out_dir / f"fuzz-{args.seed}-{index:04d}.json"
            write_artifact(
                str(path), config, result, root_seed=args.seed,
                index=index, shrink_runs=shrink_runs,
            )
            print(f"  wrote {path}")
    print(f"fuzz: {len(results)} scenarios, {len(failures)} failing")
    return 1 if failures else 0


def build_live_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro live",
        description="Run the real protocol stack over asyncio TCP on "
                    "localhost, one OS process per replica, and verify "
                    "the commit sequences against the safety oracles.",
    )
    parser.add_argument("--protocol", choices=CONSENSUS_KINDS,
                        default="hotstuff", help="consensus engine")
    parser.add_argument("-n", type=int, default=4, help="replica count")
    _add_run_args(parser, rate=1_000.0, duration=10.0)
    parser.add_argument("--startup-grace", type=float, default=None,
                        help="seconds allowed for replica processes to "
                             "boot before protocol t=0")
    parser.add_argument("--wire-codec", choices=["binary", "json"],
                        default="binary",
                        help="frame format on the wire: struct-packed "
                             "binary v2 (default) or the v1 JSON codec")
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="write the full result document to PATH")
    return parser


def run_live_cmd(argv: Sequence[str]) -> int:
    from repro.live import LiveConfig, run_live

    args = build_live_parser().parse_args(argv)
    overrides = _protocol_overrides(args)
    overrides.setdefault("mempool", "stratus")
    protocol = ProtocolConfig(n=args.n, consensus=args.protocol, **overrides)
    name = f"{protocol.mempool}/{args.protocol}"
    config = _experiment(
        args, protocol, live=True, data_dir=args.data_dir,
        label=f"live-{name}-n{args.n}",
    )
    live = LiveConfig(experiment=config, wire_codec=args.wire_codec)
    if args.startup_grace is not None:
        live.startup_grace = args.startup_grace

    print(f"live: {config.label} for {config.end_time:.0f}s wall clock "
          f"at {config.rate_tps:,.0f} tx/s offered "
          f"({args.wire_codec} frames)"
          + (f", faults: {args.faults}" if args.faults else ""))
    result = run_live(live)

    _print_results_table(
        f"LIVE ({args.wire_codec} frames)", config.rate_tps, config.duration,
        [(name, args.n, result)],
    )
    # Backpressure drops (bounded send queues) and chaos sheds (shaper
    # partitions/loss) are different failure modes; conflating them in
    # one column made saturated runs look like chaos and vice versa.
    print()
    print(format_table(
        ["node", "gen", "commits", "MB in", "MB out", "msgs", "bp-drop",
         "shed", "reconn"],
        [
            [
                entry["node_id"],
                entry["generation"],
                entry["commits"],
                f"{entry['bytes_in'] / 1e6:.2f}",
                f"{entry['bytes_out'] / 1e6:.2f}",
                entry["messages_delivered"],
                entry["frames_dropped"],
                entry["frames_shed"],
                entry["reconnects"],
            ]
            for entry in result.per_replica
        ],
        title=f"{result.label}: {result.committed_blocks} blocks committed",
    ))
    for entry in result.fault_timeline:
        print(f"  fault: {entry['event']} node {entry['node']} "
              f"scheduled t={entry['at']:.2f} "
              f"applied t={entry['applied_at']:.2f}")
    _print_reports([result])
    for violation in result.violations:
        print(f"  VIOLATION {violation}")
    if args.json is not None:
        Path(args.json).parent.mkdir(parents=True, exist_ok=True)
        document = {"config": config.to_dict(), **result.to_dict()}
        Path(args.json).write_text(json.dumps(document, indent=2))
        print(f"live: wrote {args.json}")
    if not result.ok:
        print("live: FAILED "
              f"({len(result.violations)} violations, "
              f"{result.committed_blocks} blocks committed)")
        return 1
    return 0


def run_replay(argv: Sequence[str]) -> int:
    from repro.verification import load_artifact, replay_artifact

    parser = argparse.ArgumentParser(
        prog="repro replay",
        description="Re-run the scenario stored in a fuzz artifact; exit 1 "
                    "if its violation reproduces, 2 if it cannot be read.",
    )
    parser.add_argument("artifact", help="path to a fuzz artifact JSON")
    args = parser.parse_args(argv)
    try:
        load_artifact(args.artifact)
    except (OSError, ValueError) as error:
        print(f"replay: cannot read {args.artifact}: {error}", file=sys.stderr)
        return 2
    result = replay_artifact(args.artifact)
    print(f"replay: {result.label} "
          f"tx={result.committed_tx:,} hash={result.commit_hash}")
    for violation in result.violations:
        print(f"  [{violation.oracle}/{violation.kind}] {violation.message}")
    if not result.violations:
        print("replay: no violations reproduced")
        return 0
    print(f"replay: {len(result.violations)} violations reproduced")
    return 1


def run_cli(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "fuzz":
        return run_fuzz(argv[1:])
    if argv and argv[0] == "replay":
        return run_replay(argv[1:])
    if argv and argv[0] == "live":
        return run_live_cmd(argv[1:])
    args = build_parser().parse_args(argv)
    overrides = _protocol_overrides(args)
    overrides.update(
        (field, getattr(args, field)) for field, _ in SWEEP_OVERRIDES
        if getattr(args, field) is not None
    )
    if args.jobs < 1:
        raise SystemExit(f"--jobs must be >= 1, got {args.jobs}")
    jobs = args.jobs
    if args.profile and jobs > 1:
        print("note: --profile forces --jobs 1 (cProfile cannot see "
              "worker processes)")
        jobs = 1

    cells = []  # (preset, n, ExperimentConfig)
    for preset in args.preset:
        for n in args.n:
            protocol = tuned_protocol(
                preset, n=n, topology_kind=args.topology, **overrides
            )
            # With an explicit --data-dir, each sweep cell gets its own
            # subtree so concurrent cells never share a WAL.
            cell_data_dir = (
                str(Path(args.data_dir) / f"{preset}-n{n}")
                if args.data_dir is not None and args.durability is not None
                else None
            )
            cells.append((preset, n, _experiment(
                args, protocol,
                topology_kind=args.topology,
                bandwidth_bps=args.bandwidth,
                link_model=args.link_model,
                workload_mode=args.workload_mode,
                offered_clients=args.clients,
                data_dir=cell_data_dir,
                label=f"{preset}-n{n}",
            )))

    from repro.parallel import sweep

    # One path at any --jobs: at 1 the sweep runs in this process, which
    # is what lets cProfile see it.
    profiler: Optional[cProfile.Profile] = None
    if args.profile:
        profiler = cProfile.Profile()
        profiler.enable()
    results = sweep(
        [config for _, _, config in cells],
        jobs=jobs,
        timeline_bucket=1.0 if args.timeline else None,
    )
    if profiler is not None:
        profiler.disable()

    _print_results_table(
        args.topology.upper(), args.rate, args.duration,
        [(preset, n, result) for (preset, n, _), result in zip(cells, results)],
    )
    _print_reports(results)
    if profiler is not None:
        print(f"\ncProfile — top {args.profile_top} by internal time:")
        stats = pstats.Stats(profiler)
        stats.sort_stats("tottime").print_stats(args.profile_top)
    return 0


def _fmt_time(value: float) -> str:
    return "never" if math.isinf(value) else f"{value:.2f}"


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(run_cli())
