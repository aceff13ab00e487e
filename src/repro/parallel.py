"""Parallel experiment execution: process fan-out with determinism.

Every figure sweep, seed-replicated point and fuzz iteration in this
repo is an independent deterministic simulation; this module runs those
sets across cores while keeping results bit-for-bit equal to a serial
run. A job is a call of a module-level function on one plain-data item,
one **process per job**:

* **spawn, not fork.** Each worker is a fresh interpreter that
  re-imports the function's module and receives its item by pickling
  plain data, never live simulator objects. Forking would duplicate the
  parent's heap (live simulators, metrics hubs, an inherited RNG
  registry) into every child; spawn makes the worker's entire world an
  explicit function of its item.
* **Crash isolation.** A worker that dies (segfault, OOM-kill,
  ``os._exit``) closes its result pipe; the parent records that one job
  as failed and the rest proceed. A pooled design
  (``concurrent.futures``) would poison the whole pool instead.
* **Deterministic ordering.** Results are yielded strictly in
  submission order whatever the completion order, so any aggregation
  downstream (tables, ``--stop-on-failure`` cuts) equals the serial
  run's.

``jobs=1`` calls the function in this process: the serial baseline
every parallel run is hash-gated against. An experiment is
:func:`run_config` on ``(config.to_dict(), oracles, timeline_bucket)``,
answering ``RunResult.to_dict()`` at every width; DESIGN.md ("Parallel
execution") has the rationale.

Quickstart::

    from repro.parallel import sweep

    results = sweep(configs, jobs=4)         # order == configs order
    hashes = [r.commit_hash for r in results]
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import traceback
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, List, Optional

from repro.harness.config import ExperimentConfig
from repro.harness.result import RunResult
from repro.harness.runner import run_experiment
from repro.verification.oracles import standard_suite

#: Grace period between SIGTERM and SIGKILL for a cancelled worker.
_KILL_GRACE_S = 2.0
#: Poll interval while waiting on worker pipes.
_WAIT_S = 0.05


@dataclass
class JobResult:
    """Outcome of one job, success or failure, in submission order."""

    index: int
    value: Any = None
    error: Optional[str] = None
    crashed: bool = False

    @property
    def ok(self) -> bool:
        return self.error is None


def _worker(conn, call: Callable, item) -> None:
    """Entrypoint of a spawned worker: run one call, send one message.

    A clean exception is sent as its formatted traceback. A hard death
    sends nothing; the parent sees the pipe close and the exit code.
    """
    try:
        conn.send((call(item), None))
    except BaseException:
        try:
            conn.send((None, traceback.format_exc()))
        except (BrokenPipeError, OSError):  # parent already gone
            pass
    finally:
        conn.close()


class ParallelExecutor:
    """Fan ``call(item)`` out across processes; yield results in order.

    ``jobs`` caps the worker processes; ``1`` calls in this process.
    """

    def __init__(self, jobs: int = 1) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self._ctx = multiprocessing.get_context("spawn")

    def imap(self, call: Callable, items: Iterable) -> Iterator[JobResult]:
        """Yield a :class:`JobResult` per item, in submission order.

        ``call`` must be a module-level function and each item plain,
        picklable data. Closing the generator early (a
        ``--stop-on-failure`` break) terminates the still-running
        workers.
        """
        if self.jobs == 1:
            return self._imap_serial(call, items)
        return self._imap_parallel(call, items)

    @staticmethod
    def _imap_serial(call: Callable, items: Iterable) -> Iterator[JobResult]:
        for index, item in enumerate(items):
            try:
                yield JobResult(index, value=call(item))
            except Exception:
                yield JobResult(index, error=traceback.format_exc())

    def _imap_parallel(
        self, call: Callable, items: Iterable,
    ) -> Iterator[JobResult]:
        pending = deque(enumerate(items))
        running: dict = {}  # conn -> (index, process)
        done: dict = {}  # index -> JobResult
        next_out = 0
        try:
            while pending or running or next_out in done:
                while next_out in done:
                    yield done.pop(next_out)
                    next_out += 1
                while pending and len(running) < self.jobs:
                    index, item = pending.popleft()
                    parent_conn, child_conn = self._ctx.Pipe(duplex=False)
                    proc = self._ctx.Process(
                        target=_worker, args=(child_conn, call, item),
                        daemon=True,
                    )
                    proc.start()
                    child_conn.close()  # the worker holds the only write end
                    running[parent_conn] = (index, proc)
                if running:
                    self._reap(running, done)
        finally:
            for conn, (_, proc) in running.items():
                self._kill(proc, conn)

    @staticmethod
    def _reap(running: dict, done: dict) -> None:
        """Collect finished or crashed workers once."""
        try:
            ready = multiprocessing.connection.wait(
                list(running), timeout=_WAIT_S,
            )
        except OSError:  # a pipe vanished under us; re-poll next loop
            ready = []
        for conn in ready:
            index, proc = running.pop(conn)
            result = done[index] = JobResult(index)
            try:
                result.value, result.error = conn.recv()
            except (EOFError, OSError):  # died before (or while) sending
                result.crashed = True
            conn.close()
            proc.join()
            if result.crashed:
                result.error = (
                    f"worker exited with code {proc.exitcode} "
                    "before reporting a result"
                )

    @staticmethod
    def _kill(proc, conn) -> None:
        try:
            proc.terminate()
            proc.join(_KILL_GRACE_S)
            if proc.is_alive():  # pragma: no cover - stubborn child
                proc.kill()
                proc.join()
        finally:
            try:
                conn.close()
            except OSError:  # pragma: no cover
                pass


def run_config(job: tuple) -> dict:
    """The experiment worker: ``(config dict, oracles, timeline_bucket)``
    in, ``RunResult.to_dict()`` out.

    With ``oracles`` the run arms the standard invariant suite and the
    result's ``violations`` carry what it found (how the fuzzer runs its
    cases and the sharding bench checks every point). The result's
    handles (hub, network) stay behind in the process that ran it.
    """
    config_dict, oracles, timeline_bucket = job
    config = ExperimentConfig.from_dict(config_dict)
    result = run_experiment(config, standard_suite() if oracles else None)
    if timeline_bucket is not None:
        result.timeline = result.metrics.throughput_series(
            0.0, config.end_time, timeline_bucket,
        )
    return result.to_dict()


def run_configs(
    configs: Iterable[ExperimentConfig],
    jobs: int = 1,
    oracles: bool = False,
    timeline_bucket: Optional[float] = None,
) -> Iterator[RunResult]:
    """Yield each config's :class:`RunResult`, in order, as it settles.

    Raises ``RuntimeError`` naming the cell at the first one that fails
    (a worker crash or an in-run exception); closing the generator
    cancels the cells still running.
    """
    configs = list(configs)
    items = [
        (config.to_dict(), oracles, timeline_bucket) for config in configs
    ]
    for job in ParallelExecutor(jobs).imap(run_config, items):
        if not job.ok:
            config = configs[job.index]
            raise RuntimeError(
                f"{config.label or f'seed{config.seed}'} failed: {job.error}"
            )
        yield RunResult.from_dict(job.value)


def sweep(
    configs: Iterable[ExperimentConfig],
    jobs: int = 1,
    timeline_bucket: Optional[float] = None,
) -> List[RunResult]:
    """Run independent cells; results in ``configs`` order.

    The workhorse behind the CLI's ``--jobs`` sweep and the benchmark
    grids: a parallel sweep's table is byte-identical to the serial one.
    """
    return list(run_configs(configs, jobs, timeline_bucket=timeline_bucket))
