"""repro.perf — parallel, cache-aware experiment engine.

Three cooperating pieces turn the serial one-process evaluation matrix
into a parallel one without changing a single result bit:

- :mod:`.trace_cache` — content-keyed trace cache (profile hash →
  materialised trace, in-memory LRU + optional disk tier), so each
  workload's trace is generated once per matrix instead of once per cell.
- :mod:`.snapshot` — prefill snapshot/restore: precondition once per
  (FTL family, config, profile), then rehydrate sibling runs by copy.
- :mod:`.spec` / :mod:`.parallel` — picklable :class:`RunSpec` cells,
  the run digests, and the repo's one ``ProcessPoolExecutor`` fan-out
  over any job with ``execute()``/``prewarm()``, with ordered
  deterministic collection (``jobs=N`` is digest-identical to
  ``jobs=1``).

:mod:`.bench` drives the tracked ``BENCH_matrix.json`` harness on top.

Attribute access is lazy (PEP 562): :mod:`repro.experiments.runner`
imports the trace cache at module level while :mod:`.spec` imports the
runner, so eager re-exports here would complete a cycle.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

__all__ = [
    "RunSpec",
    "digest_of_digests",
    "execute_spec",
    "kv_result_digest",
    "result_digest",
    "pool_chunksize",
    "resolve_jobs",
    "run_specs",
    "TraceCache",
    "profile_cache_key",
    "default_trace_cache",
    "cached_trace",
    "PrefillCache",
    "default_prefill_cache",
    "run_benchmark",
    "write_benchmark",
]

_EXPORTS = {
    "RunSpec": ".spec",
    "digest_of_digests": ".spec",
    "execute_spec": ".spec",
    "kv_result_digest": ".spec",
    "result_digest": ".spec",
    "pool_chunksize": ".parallel",
    "resolve_jobs": ".parallel",
    "run_specs": ".parallel",
    "TraceCache": ".trace_cache",
    "profile_cache_key": ".trace_cache",
    "default_trace_cache": ".trace_cache",
    "cached_trace": ".trace_cache",
    "PrefillCache": ".snapshot",
    "default_prefill_cache": ".snapshot",
    "run_benchmark": ".bench",
    "write_benchmark": ".bench",
}

if TYPE_CHECKING:  # pragma: no cover - static analysis only
    from .bench import run_benchmark, write_benchmark
    from .parallel import pool_chunksize, resolve_jobs, run_specs
    from .snapshot import PrefillCache, default_prefill_cache
    from .spec import (
        RunSpec,
        digest_of_digests,
        execute_spec,
        kv_result_digest,
        result_digest,
    )
    from .trace_cache import (
        TraceCache,
        cached_trace,
        default_trace_cache,
        profile_cache_key,
    )


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return getattr(import_module(module, __name__), name)


def __dir__():
    return sorted(__all__)
