"""The benchmark ledger: one runner, eight workloads, one envelope.

Two ways in.

One measurement, the contract ``BENCHMARK.json`` describes::

    python3 benchmarks/ledger/run.py --workload shs-lan-16 --seed 0 \
        --seconds 5 --trace 0

prints every metric by name with its unit, then one JSON object as the
last line: ``--trace 0`` gives the end-to-end metrics, ``--trace 1`` the
per-layer ones (timed, profiled and traced passes).

The whole ledger (no ``--trace``)::

    python3 benchmarks/ledger/run.py [--workload NAME ...] [--seed K] \
        [--reps R] [--smoke] [--out FILE] [--against FILE]

runs each workload's two traces in child interpreters (one at a time,
``PYTHONHASHSEED=0``), prints the table and writes the envelope. The
exit code is non-zero on any oracle violation, commit-hash mismatch
between passes, WAL digest mismatch, dropped frame or replica failure,
and, with ``--against`` an earlier envelope of the same seed, on any
end-to-end median worse than that parent's by more than the ledger's
per-clock bound (``workloads.LEDGER_BOUNDS``).
"""

from __future__ import annotations

import timing  # first: importing it stamps the process start for setup_s

import argparse
import importlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

LEDGER_DIR = Path(__file__).resolve().parent
REPO_ROOT = LEDGER_DIR.parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

SMOKE_SCALE = 0.1
#: Set-ups paid again after an end-to-end measurement (``--setup-reps``).
SETUP_REPS = 4


def load_contract() -> dict:
    with open(REPO_ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def measure(name: str, seed: int, seconds: float, trace: int) -> dict:
    """Run one workload once; the runner's raw outcome."""
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    calibration = (
        timing.empty_events_per_s(0.1 * seconds) if trace else None
    )
    module = {"protocol": "simrun", "netbench": "simrun", "live": "liverun",
              "wire": "liverun", "wal": "walrun"}[workload.kind]
    runner = getattr(importlib.import_module(module), f"run_{workload.kind}")
    outcome = runner(workload, seed, seconds, trace)
    if calibration is not None:
        outcome["metrics"]["sim.engine.empty_events_per_s"] = calibration
    return outcome


def report(outcome: dict, trace: int, contract: dict) -> tuple[dict, list]:
    """Print the metrics by name and unit; build the contract's result.

    The driver wants a number for every declared metric from every
    workload. A per-layer metric the workload has no such layer for
    reads 0 there and is named in the second return value, so the
    envelope can tell it from a measured zero.
    """
    declared = contract["per_layer" if trace else "end_to_end"]
    measured = outcome["metrics"]
    undeclared = sorted(set(measured) - {entry["name"] for entry in declared})
    if undeclared:
        raise SystemExit(f"metrics missing from BENCHMARK.json: {undeclared}")
    metrics, not_applicable = {}, []
    for entry in declared:
        name = entry["name"]
        if name in measured:
            value = measured[name]
            print(f"{name:44s} {value:>18.6f} {entry['unit']}")
        elif trace:
            value = 0
            not_applicable.append(name)
            print(f"{name:44s} {'n/a':>18s}")
        else:
            raise SystemExit(f"end-to-end metric {name} was not measured")
        metrics[name] = {"value": value, "unit": entry["unit"]}
    for problem in outcome["problems"]:
        print(f"PROBLEM: {problem}")
    return {
        "correct": not outcome["problems"],
        "attempted": int(outcome["attempted"]),
        "failed": int(outcome["failed"]),
        "metrics": metrics,
    }, not_applicable


def _terminated(signum, _frame) -> None:
    raise SystemExit(128 + signum)


def _setup_only(args) -> float:
    """The same set-up in a process of its own that stops where the
    set-up ends; the seconds it took from its start to there."""
    completed = subprocess.run(
        [
            sys.executable, str(LEDGER_DIR / "run.py"),
            "--workload", args.workload[0], "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", "0", "--setup-only",
        ],
        capture_output=True, text=True, timeout=120,
    )
    if completed.returncode != 0:
        sys.stderr.write(completed.stdout + completed.stderr)
        raise SystemExit("a set-up repeat failed")
    return float(completed.stdout.strip().splitlines()[-1])


def run_single(args, contract: dict) -> int:
    # A terminated run unwinds like a failed one, so it too stops its
    # replicas before it goes.
    signal.signal(signal.SIGTERM, _terminated)
    timing.setup_only = args.setup_only
    try:
        outcome = measure(
            args.workload[0], args.seed, args.seconds, args.trace
        )
    except timing.SetupDone as done:
        print(repr(done.args[0]))
        return 0
    finally:
        timing.stop_children()
    if args.setup_only:
        raise SystemExit("the runner never said where its set-up ends")
    if args.trace == 0:
        # One set-up of 0.2-1.6 s is a coin toss on this host (other
        # tenants slow the CPU by half for seconds at a time), so the
        # set-up is paid again in fresh processes, after the measurement,
        # and the middle value counts. What follows the runner's cut
        # (the live cluster's start-up grace) is kept as measured.
        own = timing.setup_elapsed
        paid = [own] + [_setup_only(args) for _ in range(args.setup_reps)]
        outcome["metrics"]["setup_s"] += statistics.median(paid) - own
        outcome["detail"]["setup_paid_s"] = paid
    result, not_applicable = report(outcome, args.trace, contract)
    detail = {**outcome["detail"], "not_applicable": not_applicable}
    print("detail " + json.dumps(detail, default=str))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


# -- the whole ledger ------------------------------------------------------


def _git(*command: str) -> str:
    try:
        return subprocess.run(
            ("git", *command), cwd=REPO_ROOT, capture_output=True,
            text=True, check=True, timeout=30,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return ""


def _child(name: str, seed: int, seconds: float, trace: int,
           setup_reps: int = 0) -> dict:
    """One measurement in its own interpreter; result, detail, wall."""
    started = time.perf_counter()
    child = subprocess.Popen(
        [
            sys.executable, str(LEDGER_DIR / "run.py"),
            "--workload", name, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--setup-reps", str(setup_reps),
        ],
        env={**os.environ, "PYTHONHASHSEED": "0"},
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        stdout, stderr = child.communicate(timeout=900)
    except BaseException:
        # SIGTERM, not SIGKILL: the child stops its replicas on its way out.
        child.terminate()
        child.communicate()
        raise
    lines = stdout.strip().splitlines()
    if child.returncode not in (0, 1) or len(lines) < 2:
        sys.stderr.write(stdout + stderr)
        raise SystemExit(f"{name} --trace {trace} crashed")
    problems = [line for line in lines if line.startswith("PROBLEM: ")]
    return {
        "result": json.loads(lines[-1]),
        "detail": json.loads(lines[-2][len("detail "):]),
        "problems": problems,
        "wall_s": time.perf_counter() - started,
    }


def run_ledger(args, contract: dict) -> int:
    from workloads import LEDGER_BOUNDS, WORKLOADS

    seconds = args.seconds * (SMOKE_SCALE if args.smoke else 1.0)
    reps = 1 if args.smoke else args.reps
    setup_reps = 1 if args.smoke else args.setup_reps
    names = args.workload or [w["name"] for w in contract["workloads"]]
    directions = {
        entry["name"]: entry for key in ("end_to_end", "per_layer")
        for entry in contract[key]
    }
    ledger = {
        "schema": "ledger/1",
        "git_sha": _git("rev-parse", "HEAD") or "unknown",
        "git_dirty": bool(_git("status", "--porcelain")),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "seconds": seconds,
        "reps": reps,
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "sim.engine.empty_events_per_s": timing.empty_events_per_s(
            min(2.0, seconds)
        ),
        "metrics": directions,
        "workloads": {},
    }
    failed = False
    for name in names:
        runs = [_child(name, args.seed, seconds, 0, setup_reps)
                for _ in range(reps)]
        layers = _child(name, args.seed, seconds, 1)
        clock = WORKLOADS[name].clock
        entry = {"clock": clock, "bounds": LEDGER_BOUNDS[clock],
                 "end_to_end": {}, "per_layer": {}, "runs": []}
        print(f"\n== {name}")
        for metric in contract["end_to_end"]:
            values = timing.spread([
                run["result"]["metrics"][metric["name"]]["value"]
                for run in runs
            ])
            entry["end_to_end"][metric["name"]] = values
            print(f"  {metric['name']:42s} {values['median']:>18.6f} "
                  f"{metric['unit']}")
        for metric in contract["per_layer"]:
            if metric["name"] in layers["detail"]["not_applicable"]:
                continue
            value = layers["result"]["metrics"][metric["name"]]["value"]
            entry["per_layer"][metric["name"]] = value
            print(f"  {metric['name']:42s} {value:>18.6f} {metric['unit']}")
        for trace, run in [(0, run) for run in runs] + [(1, layers)]:
            for problem in run["problems"]:
                print(f"  {problem}")
            result = run["result"]
            failed = failed or not result["correct"]
            entry["runs"].append({
                "trace": trace,
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "wall_s": run["wall_s"],
                "problems": run["problems"],
                "detail": run["detail"],
            })
        ledger["workloads"][name] = entry
    if args.against is not None:
        failed = compare(json.loads(args.against.read_text()), ledger,
                         directions) or failed
    out = args.out or timing.OUT_DIR / "ledger.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(ledger, indent=1, default=str) + "\n")
    print(f"\nledger written to {out}" + ("; FAILED" if failed else ""))
    return 1 if failed else 0


def compare(parent: dict, ledger: dict, directions: dict) -> bool:
    """Hold every end-to-end median against ``parent``'s by the ledger's
    per-clock bounds; True if any is worse by more than its bound."""
    from workloads import EXACT

    if (parent["seed"], parent["seconds"]) != (ledger["seed"], ledger["seconds"]):
        raise SystemExit("--against needs an envelope of the same --seed "
                         "and --seconds: the exact metrics depend on both")
    regressed = False
    print(f"\n== against {parent['git_sha'][:12]}")
    for name, entry in ledger["workloads"].items():
        for metric, now in entry["end_to_end"].items():
            before = parent["workloads"][name]["end_to_end"][metric]
            bound = entry["bounds"][metric]
            if not before["median"] or not now["median"]:
                # A smoke horizon can leave the window without a commit.
                print(f"  {name:22s} {metric:20s} unresolved (zero median)")
                continue
            change = now["median"] / before["median"] - 1.0
            if directions[metric]["better"] == "higher":
                change = -change
            widest = max(
                (values["q3"] - values["q1"]) / values["median"]
                for values in (before, now)
            )
            runs = min(len(before["raw"]), len(now["raw"]))
            if bound > EXACT and runs < 3:
                verdict = "unresolved (a host quantity needs three runs)"
            elif widest > bound:
                verdict = "unresolved (spread wider than the bound)"
            elif change > bound:
                verdict, regressed = "REGRESSION", True
            elif change == 0.0:
                continue
            else:
                verdict = "within bound"
            print(f"  {name:22s} {metric:20s} {before['median']:>16.6f} -> "
                  f"{now['median']:>16.6f}  worse by {change:+.2%} "
                  f"(bound {bound:.0%}): {verdict}")
    return regressed


def main() -> int:
    contract = load_contract()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", action="append",
        choices=[w["name"] for w in contract["workloads"]],
        help="workload to run (repeatable in ledger mode; default all)",
    )
    parser.add_argument("--seed", type=int, default=0,
                        help="added to each workload's base seed")
    parser.add_argument("--seconds", type=float,
                        default=float(contract["run_seconds"]),
                        help="how long one run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics, 1: per-layer metrics; "
                             "omit to run the whole ledger")
    parser.add_argument("--setup-reps", type=int, default=SETUP_REPS,
                        help="extra set-ups per end-to-end run; setup_s is "
                             "the median of all of them")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--reps", type=int, default=3,
                        help="end-to-end runs per workload (ledger mode)")
    parser.add_argument("--smoke", action="store_true",
                        help="ledger mode at a tenth of the horizon, 1 rep")
    parser.add_argument("--out", type=Path, default=None,
                        help="ledger mode output (default out/ledger.json)")
    parser.add_argument("--against", type=Path, default=None,
                        help="ledger mode: an earlier envelope to hold the "
                             "end-to-end medians against")
    args = parser.parse_args()
    if args.trace is None:
        return run_ledger(args, contract)
    if not args.workload or len(args.workload) != 1:
        parser.error("--trace needs exactly one --workload")
    return run_single(args, contract)


if __name__ == "__main__":
    raise SystemExit(main())
