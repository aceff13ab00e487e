"""Spawn-safe job specifications and their executors.

A :class:`JobSpec` is the unit of work the :class:`~repro.parallel.
executor.ParallelExecutor` ships to a worker process. It deliberately
contains nothing but plain data — the config's own JSON round-trip
(:meth:`repro.harness.config.ExperimentConfig.to_dict`) does the heavy
lifting for harness runs and fuzz cases alike — so a spec survives the
``spawn`` start method, where the child interpreter re-imports this
module from scratch and receives the spec by pickling plain dicts, never
live simulator objects.

The worker's answer crosses the boundary the same way: an experiment
job ships :meth:`repro.harness.result.RunResult.to_dict`, the plain-data
fields of the result the run produced. Its handles — the full
``MetricsHub``/``Network`` object graph — stay in the worker and die
with it.
"""

from __future__ import annotations

import os
import platform
import resource
import time
import traceback
from dataclasses import dataclass, field
from typing import Optional

from repro.config import decode_fields, encode_fields
from repro.harness.config import ExperimentConfig
from repro.harness.runner import run_experiment


def worker_peak_rss_bytes() -> int:
    """This process's peak RSS; ru_maxrss is KiB on Linux, bytes on macOS."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if platform.system() == "Darwin":  # pragma: no cover
        return int(peak)
    return int(peak) * 1024


@dataclass(frozen=True)
class JobSpec:
    """One unit of parallel work: a kind tag plus plain-data payload.

    ``kind`` selects the executor function from :data:`JOB_KINDS`;
    ``payload`` is that kind's serialized input and ``options`` its
    keyword knobs. Everything must be picklable plain data.
    """

    kind: str
    payload: dict
    options: dict = field(default_factory=dict)
    label: str = ""

    def to_dict(self) -> dict:
        return encode_fields(self, options=dict)

    @classmethod
    def from_dict(cls, data: dict) -> "JobSpec":
        return decode_fields(cls, data)


def experiment_job(
    config: ExperimentConfig,
    timeline_bucket: Optional[float] = None,
    oracles: bool = False,
) -> JobSpec:
    """Spec for one harness experiment (sweep cell, replicated seed...).

    With ``oracles=True`` the worker arms the standard invariant suite
    and the result's ``violations`` list carries whatever it found —
    how the fuzzer runs its cases and the sharding bench keeps every
    measured point oracle-checked.
    """
    options: dict = {}
    if timeline_bucket is not None:
        options["timeline_bucket"] = timeline_bucket
    if oracles:
        options["oracles"] = True
    return JobSpec(
        kind="experiment",
        payload=config.to_dict(),
        options=options,
        label=config.label or f"seed{config.seed}",
    )


def _run_experiment_job(payload: dict, options: dict) -> dict:
    config = ExperimentConfig.from_dict(payload)
    suite = None
    if options.get("oracles"):
        from repro.verification.oracles import standard_suite

        suite = standard_suite()
    result = run_experiment(config, suite)
    bucket = options.get("timeline_bucket")
    if bucket is not None:
        result.timeline = result.metrics.throughput_series(
            0.0, config.end_time, bucket,
        )
    return {"result": result.to_dict()}


def _run_selftest_job(payload: dict, options: dict) -> dict:
    """Executor plumbing probe: sleep, raise, or die on command.

    Exists so the executor's ordering / clean-exception / crash-isolation
    / early-close paths have something deterministic to exercise without building a
    simulation (see ``tests/test_parallel.py``).
    """
    action = payload.get("action", "echo")
    if action == "sleep":
        time.sleep(float(payload.get("seconds", 60.0)))
    elif action == "raise":
        raise RuntimeError(payload.get("message", "selftest failure"))
    elif action == "exit":
        # Simulate a hard worker death (segfault/OOM-kill): no exception,
        # no result message, just a closed pipe and a non-zero exitcode.
        os._exit(int(payload.get("code", 3)))
    return {"echo": payload.get("echo"), "pid": os.getpid()}


JOB_KINDS = {
    "experiment": _run_experiment_job,
    "selftest": _run_selftest_job,
}


def execute_job(spec_dict: dict) -> dict:
    """Run one job spec to completion in the current process.

    Shared by the spawned worker entrypoint and the in-process serial
    path (``jobs=1``), so both produce byte-identical result dicts.
    """
    kind = spec_dict["kind"]
    if kind not in JOB_KINDS:
        raise ValueError(
            f"unknown job kind {kind!r}; choose from {sorted(JOB_KINDS)}"
        )
    started = time.perf_counter()
    value = JOB_KINDS[kind](
        spec_dict["payload"], spec_dict.get("options") or {},
    )
    value["worker_wall_s"] = round(time.perf_counter() - started, 4)
    value["worker_peak_rss_bytes"] = worker_peak_rss_bytes()
    return value


def worker_main(conn, spec_dict: dict) -> None:
    """Entrypoint of a spawned worker: run one job, send one message.

    A clean Python exception is reported as ``{"ok": False}`` with the
    formatted traceback. A hard
    death (the ``exit`` selftest, a real segfault) sends nothing; the
    parent sees the pipe close and the non-zero exitcode.
    """
    try:
        value = execute_job(spec_dict)
        conn.send({"ok": True, "value": value})
    except BaseException:
        try:
            conn.send({"ok": False, "error": traceback.format_exc()})
        except (BrokenPipeError, OSError):  # parent already gone
            pass
    finally:
        conn.close()
