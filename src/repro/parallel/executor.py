"""Process-pool experiment executor with deterministic result ordering.

Independent simulations — sweep cells, seed replicas, fuzz iterations,
shrink candidates — fan out across worker processes, one **process per
job**:

* **spawn, not fork.** Each worker is a fresh interpreter that
  re-imports ``repro`` and rebuilds its job from a plain-dict
  :class:`~repro.parallel.jobs.JobSpec`. Forking would duplicate the
  parent's heap (live simulators, metrics hubs, an inherited — and then
  shared — RNG registry) into every child; any determinism would be an
  accident of what the parent happened to have touched. Spawn makes the
  worker's entire world an explicit function of the spec.
* **Crash isolation.** A worker that dies (segfault, OOM-kill,
  ``os._exit``) closes its result pipe; the parent records that one job
  as failed and the rest of the sweep proceeds. A pooled design
  (``concurrent.futures``) would instead poison the whole pool on the
  first dead worker.
* **Deterministic ordering.** Results are buffered and yielded strictly
  in submission order regardless of completion order, so any
  aggregation downstream (means, tables, ``--stop-on-failure`` cuts) is
  reproducible and equal to the serial run's. The simulations
  themselves are deterministic functions of their specs, so parallel
  commit-sequence hashes are bit-for-bit the serial hashes.

``jobs=1`` short-circuits to an in-process loop (same
:func:`~repro.parallel.jobs.execute_job` code path, no subprocess),
which is the serial baseline every parallel run is hash-gated against.
"""

from __future__ import annotations

import multiprocessing
import time
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Sequence

from repro.harness.result import RunResult
from repro.parallel.jobs import (
    JobSpec,
    execute_job,
    experiment_job,
    worker_main,
)

#: Grace period between SIGTERM and SIGKILL for a cancelled worker.
_KILL_GRACE_S = 2.0
#: Poll interval while waiting on worker pipes.
_WAIT_S = 0.05


@dataclass
class JobResult:
    """Outcome of one job, success or failure, in submission order."""

    index: int
    spec: JobSpec
    value: Optional[dict] = None
    error: Optional[str] = None
    wall_s: float = 0.0
    crashed: bool = False

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def result(self) -> Optional[RunResult]:
        """Decode an experiment job's result (None for other kinds)."""
        if self.value is None or "result" not in self.value:
            return None
        return RunResult.from_dict(self.value["result"])


@dataclass
class _Running:
    """Parent-side state of one in-flight worker process."""

    index: int
    proc: multiprocessing.process.BaseProcess
    conn: object
    started: float


class ParallelExecutor:
    """Fan independent jobs out across processes; yield results in order.

    Parameters
    ----------
    jobs:
        Worker-process cap; ``1`` runs everything serially in-process
        (no subprocesses at all).
    """

    def __init__(self, jobs: int = 1) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self._ctx = multiprocessing.get_context("spawn")

    # -- public API --------------------------------------------------------

    def map(self, specs: Sequence[JobSpec]) -> List[JobResult]:
        """Run every spec; return results in submission order."""
        return list(self.imap(specs))

    def imap(self, specs: Sequence[JobSpec]) -> Iterator[JobResult]:
        """Yield :class:`JobResult` in submission order as they settle.

        Result ``i`` is yielded only once jobs ``0..i-1`` have been
        yielded, regardless of completion order. Closing the generator
        early (e.g. a ``--stop-on-failure`` break) terminates the
        still-running workers.
        """
        specs = list(specs)
        for spec in specs:
            if not isinstance(spec, JobSpec):
                raise TypeError(f"expected JobSpec, got {type(spec).__name__}")
        if self.jobs <= 1:
            return self._imap_serial(specs)
        return self._imap_parallel(specs)

    # -- serial path -------------------------------------------------------

    def _imap_serial(self, specs: List[JobSpec]) -> Iterator[JobResult]:
        for index, spec in enumerate(specs):
            started = time.perf_counter()
            try:
                value = execute_job(spec.to_dict())
                yield JobResult(
                    index=index, spec=spec, value=value,
                    wall_s=time.perf_counter() - started,
                )
            except Exception:
                import traceback

                yield JobResult(
                    index=index, spec=spec, error=traceback.format_exc(),
                    wall_s=time.perf_counter() - started,
                )

    # -- parallel path -----------------------------------------------------

    def _imap_parallel(self, specs: List[JobSpec]) -> Iterator[JobResult]:
        pending: deque = deque(
            (index, spec.to_dict()) for index, spec in enumerate(specs)
        )
        running: dict = {}  # conn -> _Running
        done: dict = {}  # index -> JobResult
        next_out = 0
        try:
            while pending or running or next_out in done:
                while next_out in done:
                    yield done.pop(next_out)
                    next_out += 1
                if not pending and not running:
                    break
                while pending and len(running) < self.jobs:
                    self._start(pending.popleft(), running)
                self._reap(specs, running, done)
        finally:
            for state in running.values():
                self._kill(state)

    def _start(self, item, running: dict) -> None:
        index, spec_dict = item
        parent_conn, child_conn = self._ctx.Pipe(duplex=False)
        proc = self._ctx.Process(
            target=worker_main,
            args=(child_conn, spec_dict),
            daemon=True,
        )
        proc.start()
        child_conn.close()  # the worker holds the only write end now
        running[parent_conn] = _Running(
            index=index, proc=proc, conn=parent_conn,
            started=time.perf_counter(),
        )

    def _reap(self, specs: List[JobSpec], running: dict, done: dict) -> None:
        """Collect finished or crashed workers once."""
        conns = list(running)
        if not conns:
            return
        try:
            ready = multiprocessing.connection.wait(conns, timeout=_WAIT_S)
        except OSError:  # a pipe vanished under us; re-poll next loop
            ready = []
        now = time.perf_counter()
        for conn in ready:
            state = running.pop(conn)
            message = None
            try:
                message = conn.recv()
            except (EOFError, OSError):
                message = None  # died before (or while) sending
            conn.close()
            state.proc.join()
            result = JobResult(
                index=state.index, spec=specs[state.index],
                wall_s=now - state.started,
            )
            if message is None:
                result.crashed = True
                result.error = (
                    f"worker exited with code {state.proc.exitcode} "
                    "before reporting a result"
                )
            elif message.get("ok"):
                result.value = message["value"]
            else:
                result.error = message.get("error", "worker error")
            done[state.index] = result

    def _kill(self, state: _Running) -> None:
        try:
            state.proc.terminate()
            state.proc.join(_KILL_GRACE_S)
            if state.proc.is_alive():  # pragma: no cover - stubborn child
                state.proc.kill()
                state.proc.join()
        finally:
            try:
                state.conn.close()
            except OSError:  # pragma: no cover
                pass


def sweep(
    configs: Iterable,
    jobs: int = 1,
    timeline_bucket: Optional[float] = None,
) -> List[RunResult]:
    """Run independent :class:`ExperimentConfig` cells; results in order.

    The workhorse behind the CLI's ``--jobs`` sweep and the benchmark
    grids. Results arrive in submission order, so a parallel sweep's
    table is byte-identical to the serial one. Raises ``RuntimeError``
    if any cell fails (a worker crash or an in-run exception).
    """
    executor = ParallelExecutor(jobs=jobs)
    specs = [
        experiment_job(config, timeline_bucket=timeline_bucket)
        for config in configs
    ]
    results: List[RunResult] = []
    failures: List[str] = []
    for job in executor.map(specs):
        if job.error is not None:
            failures.append(f"{job.spec.label}: {job.error}")
            continue
        results.append(job.result)
    if failures:
        raise RuntimeError(
            f"{len(failures)} sweep cell(s) failed:\n" + "\n".join(failures)
        )
    return results
