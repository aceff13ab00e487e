#!/usr/bin/env python3
"""Surface census: what the entry points reach and what they set.

``python3 benchmarks/reach/reach.py`` runs the entry points below and tier-1, a
cProfile collector in every process they start, and writes ``REACH.tsv`` (one row
per function under ``src/repro``: the first of cli/bench/ledger/example/live that
reached it, else ``tests-only``, else ``nothing``) and ``FIELDS.tsv`` (per config
field, how often each tree says ``field=`` or quotes its name: who sets it). Exits
1 when a function no entry point reaches is not argued for in ``KEEP.md``. Blind
to a process that is SIGKILLed or leaves through ``os._exit``.
"""
from __future__ import annotations

import ast
import dataclasses
import os
import re
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
CLASSES = ("cli", "bench", "ledger", "example", "live")
SWEEP = "-m repro --preset S-HS N-HS --n 8 --rate 2000 --duration 2 --warmup 1 --timeline"
CHAOS = "-m repro --preset S-HS --n 4 --rate 1000 --duration 15 --warmup 1 --view-timeout 0.5 --faults"
LIVE = "-m repro live -n 4 --duration 8 --rate 300 --view-timeout 0.5 --faults"
PYTEST = "-m pytest -q -p no:cacheprovider"
#: ``(class, interpreter arguments)``, ``{tmp}`` a scratch directory: ci.yml's and
#: README's shapes. pytest-benchmark pauses profilers, hence ``--benchmark-disable``.
ENTRIES = [
    *(("example", f"examples/{path.name}") for path in sorted((REPO / "examples").glob("*.py"))),
    ("cli", "-m repro fuzz --seed 7 --iterations 17"),
    ("cli", "-m repro fuzz --seed 7 --iterations 17 --jobs 2 --shrink --out {tmp}/fuzz"),
    ("cli", SWEEP),
    ("cli", f"{SWEEP} --topology wan --link-model fair-share --jobs 2"),
    ("cli", "-m repro --n 64 --rate 250000 --workload-mode aggregate --duration 1 --profile"),
    ("cli", f"{CHAOS} crash-restart --durability interval"),
    *(("cli", f"{CHAOS} {preset}") for preset in (
        "crash-partition", "fig7-disturbance", "flaky-data", "leader-squeeze",
        """'[{"kind": "delay", "start": 1.0, "end": 1.5, "base": 0.1, "jitter": 0.05}]'""",
    )),
    *(("live", f"-m repro live -n 4 --duration 5 --mempool {mempool}") for mempool in (
        "stratus", "native", "stratus --shards 2",
    )),
    *(("live", f"{LIVE} {faults}") for faults in (
        "crash-restart", "crash-partition", "crash-restart --durability interval",
        "crash-restart --protocol streamlet --mempool native", "leader-squeeze",
    )),
    ("ledger", "benchmarks/ledger/run.py --smoke --reps 1"),
    ("bench", "benchmarks/perf/run_sharding.py --quick --out {tmp}/sharding.json"),
    ("bench", "benchmarks/live/run_saturation.py --quick --out {tmp}/saturation.json"),
    ("bench", f"{PYTEST} --benchmark-disable benchmarks --ignore benchmarks/ledger"),
    ("tests", f"{PYTEST} tests"),
]


def collect(entries, root: Path, out: Path, cwd: Path, pythonpath: str) -> None:
    """Run each ``(class, arguments)`` with ``hook/sitecustomize.py`` on the
    path of every process; what each reached under ``root`` lands in ``out``."""
    with tempfile.TemporaryDirectory() as tmp:
        for cls, arguments in entries:
            print(f"[{cls}] {arguments}", flush=True)
            env = dict(os.environ, REACH_ROOT=os.path.realpath(root), REACH_OUT=str(out),
                       REACH_CLASS=cls, REPRO_BENCH_JOBS="2",
                       PYTHONPATH=os.pathsep.join([str(HERE / "hook"), pythonpath]))
            command = shlex.split(arguments.replace("{tmp}", tmp))
            subprocess.run([sys.executable, *command], cwd=cwd, env=env)


def functions(path: str, node: ast.AST, prefix: str = ""):
    """(file, first line as cProfile keys it, qualified name, lines) per def."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            first = min([child.lineno] + [d.lineno for d in child.decorator_list])
            yield path, first, prefix + child.name, child.end_lineno - first + 1
        named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        yield from functions(path, child, prefix + child.name + "." if named else prefix)


def classify(root: Path, out: Path) -> list[tuple]:
    """Rows ``(file relative to root's parent, line, name, lines, class)``."""
    reached: dict[tuple, set] = {}
    for dump in Path(out).iterdir():
        for line in dump.read_text().splitlines():
            file, lineno = line.split("\t")
            reached.setdefault((file, int(lineno)), set()).add(dump.name.rsplit("-", 1)[0])
    rows = []
    for source in sorted(root.rglob("*.py")):
        path = os.path.realpath(source)
        for file, first, name, lines in functions(path, ast.parse(source.read_text())):
            by = reached.get((file, first), ())
            cls = next((c for c in CLASSES if c in by), "tests-only" if by else "nothing")
            rows.append((os.path.relpath(file, os.path.realpath(root.parent)),
                         first, name, lines, cls))
    return rows


def unkept(rows, keep_text: str) -> list[tuple]:
    """Rows no entry point reaches that no ``KEEP.md`` bullet names. A bullet
    is ``- `file` `name` [`name` ...] -- one sentence``."""
    bullets = [re.findall(r"`([^`]+)`", line.split(" -- ")[0]) for line in keep_text.splitlines()]
    kept = {(ticked[0], name) for ticked in bullets for name in ticked[1:]}
    return [row for row in rows if row[4] not in CLASSES and (row[0], row[2]) not in kept]


def field_setters() -> list[tuple]:
    """Rows ``(class, field, times src/benchmarks/examples/tests name it)``."""
    sys.path.insert(0, str(REPO / "src"))
    from repro.config import ProtocolConfig, ShardingConfig
    from repro.durability import DurabilityConfig
    from repro.harness import ExperimentConfig
    from repro.live import LiveConfig

    trees = ["\n".join(p.read_text() for p in sorted((REPO / tree).rglob("*.py")))
             for tree in ("src", "benchmarks", "examples", "tests")]
    return [
        (cls.__name__, spec.name, *(
            len(re.findall(rf"\b{spec.name}\s*=(?!=)|[\"']{spec.name}[\"']", text))
            for text in trees
        ))
        for cls in (ProtocolConfig, ShardingConfig, ExperimentConfig, DurabilityConfig, LiveConfig)
        for spec in dataclasses.fields(cls)
    ]


def main() -> int:
    with tempfile.TemporaryDirectory() as out:
        collect(ENTRIES, REPO / "src" / "repro", Path(out), REPO, str(REPO / "src"))
        rows = classify(REPO / "src" / "repro", Path(out))
    for name, header, table in (
        ("REACH.tsv", "file\tline\tfunction\tlines\tclass", rows),
        ("FIELDS.tsv", "class\tfield\tsrc\tbenchmarks\texamples\ttests", field_setters()),
    ):
        (HERE / name).write_text(header + "\n" + "".join(
            "\t".join(map(str, row)) + "\n" for row in table))
    for cls in (*CLASSES, "tests-only", "nothing"):
        of = [row[3] for row in rows if row[4] == cls]
        print(f"{cls:10s} {len(of):4d} functions {sum(of):6d} lines")
    missing = unkept(rows, (HERE / "KEEP.md").read_text())
    for row in missing:
        print(f"neither reached nor kept: {row[0]} {row[2]} ({row[4]})")
    return 1 if missing else 0


if __name__ == "__main__":
    sys.exit(main())
