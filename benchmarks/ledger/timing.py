"""Timing hygiene and profile accounting shared by every ledger workload."""

from __future__ import annotations

import cProfile
import gc
import os
import pstats
import resource
import statistics
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

#: ``run.py`` imports this module before anything of the program, so
#: this is the process start but for the interpreter's own boot.
PROCESS_STARTED = time.perf_counter()

LEDGER_DIR = Path(__file__).resolve().parent
REPO_ROOT = LEDGER_DIR.parents[1]
#: Scratch space for WAL stores, live result files and span samples. The
#: benchmark may only write inside its checkout, so nothing goes to /tmp.
OUT_DIR = LEDGER_DIR / "out"


class SetupDone(Exception):
    """The end of set-up, in a process that only times its set-up."""


#: ``run.py --setup-only`` sets it: stop where the set-up ends.
setup_only = False
#: What ``setup_seconds`` returned in this process.
setup_elapsed = 0.0


def setup_seconds() -> float:
    """Wall seconds from process start to now. A runner calls it once,
    right before its first counted or timed section, so it holds
    everything the process paid to get there: imports, building the
    experiment, the warm-up run, recording the wire trace. ``run.py``
    repeats the set-up in processes that stop here (``SetupDone``) and
    reports the middle of what they and this one paid as ``setup_s``."""
    global setup_elapsed
    setup_elapsed = time.perf_counter() - PROCESS_STARTED
    if setup_only:
        raise SetupDone(setup_elapsed)
    return setup_elapsed


@contextmanager
def quiet_gc() -> Iterator[None]:
    """The GC discipline of ``RunningExperiment.run`` for any timed section.

    The measured loops allocate acyclic, refcount-freed objects, so
    generational scans only add jitter (the codec round trip swung
    62k-93k frames/s without this, 85k-102k with it).
    """
    gc.collect()
    gc.freeze()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()
        gc.unfreeze()


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    """High-water RSS in MB (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(who).ru_maxrss / 1024.0


def cpu_seconds(who: int = resource.RUSAGE_SELF) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def spread(values: list[float]) -> dict:
    """Median, quartiles, min and the raw values of one host-time entry."""
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "min": min(values),
        "raw": list(values),
    }


def empty_events_per_s(seconds: float) -> float:
    """Cross-host calibration: an empty ``schedule_fire`` chain's rate."""
    from repro.sim.engine import Simulator

    sim = Simulator()

    def chain(_arg) -> None:
        sim.schedule_fire(1.0, chain, None)

    sim.schedule_fire(1.0, chain, None)
    with quiet_gc():
        deadline = time.perf_counter() + seconds
        started = time.perf_counter()
        horizon = 0.0
        while time.perf_counter() < deadline:
            horizon += 50_000.0
            sim.run_until(horizon)
        wall = time.perf_counter() - started
    return sim.processed / wall


def package_of(func: tuple) -> str:
    """Map a pstats ``(file, line, name)`` key to a ledger layer name.

    ``repro.sim`` is split into ``sim.engine`` and ``sim.network`` (the
    two layers ``disseminate-128`` isolates); ``repro.sharding`` and the
    mempool backends are one ``mempool`` layer.
    """
    filename = func[0].replace("\\", "/")
    if filename == "~":
        return "builtin"
    index = filename.rfind("/repro/")
    if index < 0:
        return "ledger" if filename.startswith(str(LEDGER_DIR)) else "other"
    parts = filename[index + len("/repro/"):].split("/")
    first = parts[0][:-3] if parts[0].endswith(".py") else parts[0]
    if first == "sim":
        leaf = parts[1][:-3] if len(parts) > 1 else ""
        return "sim.engine" if leaf in ("engine", "interfaces", "rng") \
            else "sim.network"
    if first == "sharding":
        return "mempool"
    return first


#: Callers whose calls are not the program's own work: the benchmark's
#: commit tap and the oracle fan-out that reaches it.
_OBSERVER_LAYERS = ("ledger", "verification")


class CallCount:
    """Exact call totals of one cProfile pass, rolled up per layer.

    Calls made *by* the benchmark's own files or by the oracle fan-out
    (and those functions themselves) are left out, so a pass that carries
    the commit tap reports the same total as an untapped pass. Built-in
    calls are charged to the layer of their caller.
    """

    def __init__(self, profiler: cProfile.Profile) -> None:
        stats = pstats.Stats(profiler).stats
        self.by_layer: dict[str, int] = {}
        self.seconds_by_layer: dict[str, float] = {}
        self.calls_of: dict[str, int] = {}
        for func, (_cc, ncalls, tottime, _ct, callers) in stats.items():
            layer = package_of(func)
            if layer in _OBSERVER_LAYERS:
                continue
            kept = ncalls
            if layer == "builtin":
                # Built-ins have no home: charge each to its caller's layer.
                for caller, (count, *_rest) in callers.items():
                    caller_layer = package_of(caller)
                    if caller_layer in _OBSERVER_LAYERS:
                        kept -= count
                    else:
                        self._add(caller_layer, count, 0.0)
                self.seconds_by_layer["builtin"] = (
                    self.seconds_by_layer.get("builtin", 0.0) + tottime
                )
                continue
            for caller, (count, *_rest) in callers.items():
                if package_of(caller) in _OBSERVER_LAYERS:
                    kept -= count
            self._add(layer, kept, tottime)
            name = f"{layer}:{func[2]}"
            self.calls_of[name] = self.calls_of.get(name, 0) + kept
        self.total = sum(self.by_layer.values())

    def _add(self, layer: str, calls: int, seconds: float) -> None:
        self.by_layer[layer] = self.by_layer.get(layer, 0) + calls
        self.seconds_by_layer[layer] = (
            self.seconds_by_layer.get(layer, 0.0) + seconds
        )


def profiled(section, *args) -> tuple[object, CallCount]:
    """Run ``section(*args)`` under cProfile; (result, exact calls)."""
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        result = section(*args)
    finally:
        profiler.disable()
    return result, CallCount(profiler)


def stop_children() -> None:
    """Stop every process this one started and wait until each has ended.

    ``run_live`` joins its replicas, but the ``spawn`` context behind them
    also starts ``multiprocessing``'s resource tracker, which only ends
    some time *after* its parent has exited: a run would leave it behind.
    Closing its pipe ends it; ``_stop`` also waits for it. A replica still
    alive here (the run raised before joining) is killed and joined.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.kill()
        child.join()
    resource_tracker._resource_tracker._stop()
    while True:
        try:
            pid, _status = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return  # no child left, ended or not: the wanted state
        if pid == 0:
            raise RuntimeError("a child process is still running after the run")


def scratch_dir(label: str) -> Path:
    """A fresh directory under ``out/``; the caller removes it."""
    path = OUT_DIR / f"tmp-{label}-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    return path
