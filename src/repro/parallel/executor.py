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
  as failed (after bounded retries) and the rest of the sweep proceeds.
  A pooled design (``concurrent.futures``) would instead poison the
  whole pool on the first dead worker.
* **Per-job timeout + bounded retry.** Timeouts and hard deaths are
  environmental, so they are retried up to ``retries`` times; a clean
  Python exception inside a deterministic simulation would fail
  identically every time and is not retried.
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
from dataclasses import dataclass, field
from typing import Iterable, Iterator, List, Optional, Sequence

from repro.harness.result import RunResult
from repro.parallel.jobs import (
    JobSpec,
    execute_job,
    experiment_job,
    worker_main,
)

#: Grace period between SIGTERM and SIGKILL for a timed-out worker.
_KILL_GRACE_S = 2.0
#: Poll interval while waiting on worker pipes (also bounds how late a
#: per-job timeout can fire).
_WAIT_S = 0.05


@dataclass
class JobResult:
    """Outcome of one job, success or failure, in submission order."""

    index: int
    spec: JobSpec
    value: Optional[dict] = None
    error: Optional[str] = None
    attempts: int = 1
    wall_s: float = 0.0
    timed_out: bool = False
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
    spec_dict: dict
    attempts: int
    proc: multiprocessing.process.BaseProcess
    conn: object
    started: float
    deadline: Optional[float]
    first_started: float


class ParallelExecutor:
    """Fan independent jobs out across processes; yield results in order.

    Parameters
    ----------
    jobs:
        Worker-process cap; ``1`` runs everything serially in-process
        (no subprocesses at all).
    timeout:
        Per-attempt wall-clock budget in seconds (``None`` = unlimited).
        A timed-out worker is terminated and the attempt counts as a
        failure.
    retries:
        How many *additional* attempts a crashed or timed-out job gets.
        Clean in-job exceptions are deterministic and never retried.
    """

    def __init__(
        self,
        jobs: int = 1,
        timeout: Optional[float] = None,
        retries: int = 1,
    ) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        if timeout is not None and timeout <= 0:
            raise ValueError(f"timeout must be positive, got {timeout}")
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        self.jobs = jobs
        self.timeout = timeout
        self.retries = retries
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
            (index, spec.to_dict(), 1, None) for index, spec in enumerate(specs)
        )  # (index, spec_dict, attempt, first_started)
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
                self._reap(specs, running, done, pending)
        finally:
            for state in running.values():
                self._kill(state)

    def _start(self, item, running: dict) -> None:
        index, spec_dict, attempt, first_started = item
        parent_conn, child_conn = self._ctx.Pipe(duplex=False)
        proc = self._ctx.Process(
            target=worker_main,
            args=(child_conn, spec_dict),
            daemon=True,
        )
        proc.start()
        child_conn.close()  # the worker holds the only write end now
        now = time.perf_counter()
        running[parent_conn] = _Running(
            index=index,
            spec_dict=spec_dict,
            attempts=attempt,
            proc=proc,
            conn=parent_conn,
            started=now,
            deadline=(now + self.timeout) if self.timeout else None,
            first_started=first_started if first_started is not None else now,
        )

    def _reap(
        self, specs: List[JobSpec], running: dict, done: dict, pending: deque
    ) -> None:
        """Collect finished/crashed/timed-out workers once."""
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
            if message is None:
                self._fail_or_retry(
                    specs, state, done, pending, crashed=True,
                    reason=(
                        f"worker exited with code {state.proc.exitcode} "
                        "before reporting a result"
                    ),
                )
            elif message.get("ok"):
                done[state.index] = JobResult(
                    index=state.index,
                    spec=specs[state.index],
                    value=message["value"],
                    attempts=state.attempts,
                    wall_s=now - state.first_started,
                )
            else:
                # Clean exception: deterministic, never retried.
                done[state.index] = JobResult(
                    index=state.index,
                    spec=specs[state.index],
                    error=message.get("error", "worker error"),
                    attempts=state.attempts,
                    wall_s=now - state.first_started,
                )
        for conn, state in list(running.items()):
            if state.deadline is not None and now > state.deadline:
                running.pop(conn)
                self._kill(state)
                self._fail_or_retry(
                    specs, state, done, pending, timed_out=True,
                    reason=(
                        f"attempt exceeded the {self.timeout:.1f}s "
                        "per-job timeout"
                    ),
                )

    def _fail_or_retry(
        self,
        specs: List[JobSpec],
        state: _Running,
        done: dict,
        pending: deque,
        reason: str,
        timed_out: bool = False,
        crashed: bool = False,
    ) -> None:
        if state.attempts <= self.retries:
            # Retry at the front so the wounded job settles early; the
            # output order is fixed by submission index either way.
            pending.appendleft((
                state.index, state.spec_dict, state.attempts + 1,
                state.first_started,
            ))
            return
        done[state.index] = JobResult(
            index=state.index,
            spec=specs[state.index],
            error=f"{reason} (after {state.attempts} attempt(s))",
            attempts=state.attempts,
            wall_s=time.perf_counter() - state.first_started,
            timed_out=timed_out,
            crashed=crashed,
        )

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
    if any cell ultimately fails (a worker crash after its one retry, or
    an in-run exception).
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
