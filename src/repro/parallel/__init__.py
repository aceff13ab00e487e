"""Parallel experiment execution: process-pool fan-out with determinism.

Every figure sweep, seed-replicated point and fuzz iteration in this
repo is an independent deterministic simulation; this
package runs those sets across cores while keeping results bit-for-bit
equal to a serial run. See DESIGN.md ("Parallel execution") for the
spawn-vs-fork rationale and the ordering guarantee.

Quickstart::

    from repro.parallel import sweep

    results = sweep(configs, jobs=4)         # order == configs order
    hashes = [r.commit_hash for r in results]
"""

from repro.parallel.executor import (
    JobResult,
    ParallelExecutor,
    sweep,
)
from repro.parallel.jobs import (
    JOB_KINDS,
    JobSpec,
    execute_job,
    experiment_job,
    worker_peak_rss_bytes,
)

__all__ = [
    "JOB_KINDS",
    "JobResult",
    "JobSpec",
    "ParallelExecutor",
    "execute_job",
    "experiment_job",
    "sweep",
    "worker_peak_rss_bytes",
]
