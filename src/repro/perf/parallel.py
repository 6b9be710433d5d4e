"""The one process-pool fan-out, with deterministic collection.

``run_specs`` runs every kind of job the repo fans out — matrix
:class:`~repro.perf.spec.RunSpec` cells, fleet
:class:`~repro.fleet.ShardSpec` shards, :class:`~repro.kv.KVSpec` keyed
runs, lint fact extraction.  A job is any picklable object with two
methods:

* ``execute()`` — run it and return its result (a pure function of the
  job, so ``jobs=N`` is observably identical to ``jobs=1`` — the
  determinism tests compare digests across both paths);
* ``prewarm()`` — fill the parent's shared caches before the pool forks
  (a matrix cell generates its trace and captures its family prefill
  snapshot, a shard generates the fleet trace, the rest do nothing).

Results come back **in job order** regardless of which worker finished
first (``Executor.map`` preserves input order).  ``prewarm`` runs only on
the pool path: under the default ``fork`` start method on Linux the
children inherit the warm caches copy-on-write and skip generation *and*
the per-page prefill loop entirely.  (Under ``spawn`` each worker redoes
the work — results are identical either way, it only costs time; this is
why the first fan-out used to run *slower* than serial: every worker paid
the prefill that the serial path amortised across cells.)

Jobs are dispatched in contiguous chunks (one chunk per worker when the
job list divides evenly) rather than one task per job: a worker runs its
whole chunk in-process, so its local caches stay warm across the chunk
and per-task dispatch overhead is paid per chunk.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from typing import Any, List, Optional, Sequence

__all__ = ["pool_chunksize", "resolve_jobs", "run_specs"]


def resolve_jobs(jobs: Optional[int], tasks: Optional[int] = None) -> int:
    """Normalise a ``--jobs`` value: ``None``/``0`` means all cores.

    With ``tasks`` the result is additionally capped at the task count —
    a fleet of 4 long-lived shards can never keep more than 4 workers
    busy, so asking for 16 must not fork 12 idle processes.
    """
    if jobs is None or jobs == 0:
        jobs = os.cpu_count() or 1
    elif jobs < 0:
        raise ValueError("jobs must be >= 0")
    if tasks is not None and tasks > 0:
        jobs = min(jobs, tasks)
    return jobs


def pool_chunksize(task_count: int, workers: int) -> int:
    """Contiguous tasks per worker dispatch (at least 1).

    Floor division, deliberately: the old ceil division produced
    *oversized* chunks whenever the task count was not a multiple of the
    worker count — 6 cells over 4 workers became 3 chunks of 2, leaving
    one worker idle for the whole run.  That was tolerable for 8 tiny
    matrix cells but ruinous for the fleet's long-lived shards, where one
    idle worker is a whole shard-lifetime of lost parallelism.  Floor
    keeps at least ``workers`` dispatches whenever ``task_count >=
    workers`` (6 over 4 → chunksize 1 → six dispatches, everyone works)
    and still amortises dispatch overhead when the division is exact.
    """
    if task_count <= 0 or workers <= 0:
        return 1
    return max(1, task_count // workers)


def _execute(spec: Any) -> Any:
    return spec.execute()


def run_specs(specs: Sequence[Any], jobs: Optional[int] = 1) -> List[Any]:
    """Execute ``specs``, returning results in spec order.

    ``jobs=1`` (the default) runs serially in-process — no prewarm, no
    pool, no pickling, observability intact.  ``jobs=None``/``0`` uses
    every core.  An explicit ``jobs>1`` always uses the pool (the
    determinism tests rely on ``jobs=2`` actually exercising the
    parallel path); workers are capped at the spec count.
    """
    jobs = resolve_jobs(jobs, tasks=len(specs))
    if jobs == 1 or len(specs) <= 1:
        return [spec.execute() for spec in specs]
    for spec in specs:
        spec.prewarm()
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(
            pool.map(
                _execute, specs, chunksize=pool_chunksize(len(specs), jobs)
            )
        )
