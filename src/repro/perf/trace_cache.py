"""Content-keyed trace cache: one generation per profile, not per cell.

The evaluation matrix (Figures 5, 9-12) replays the *same* workload trace
against many systems and pool sizes.  Before this layer existed every cell
re-ran :func:`~repro.traces.synthetic.generate_trace`, so an N-system sweep
paid the (substantial) generation cost N times.

A trace is fully determined by its :class:`~repro.traces.profiles.
WorkloadProfile` — the generator is seeded and pure — so the cache keys on
a stable content hash of the profile (:func:`profile_cache_key`): equal
profiles share one materialised trace, and changing *any* field (the seed
included) produces a different key.  Entries live in a bounded in-memory
LRU; an optional on-disk layer (``disk_dir``, or the ``REPRO_TRACE_CACHE``
environment variable for the process-default cache) persists traces across
processes and sessions, which is what lets parallel workers and repeated
benchmark invocations skip regeneration entirely.

Cached traces are shared objects, so each is an immutable
:class:`~repro.sim.request.Trace`: read-only column views and a tuple of
ops.  A disk entry is the four columns' raw bytes under a one-line
header (key version, byte order, row count and a SHA-256 of the
payload); an entry that is truncated, damaged or of another version
counts as a miss, and the trace is regenerated and rewritten.
"""

from __future__ import annotations

import hashlib
import os
import sys
from array import array
from collections import OrderedDict
from typing import Optional

from ..sim.request import OpType, Trace
from ..traces.profiles import WorkloadProfile
from ..traces.synthetic import generate_trace

__all__ = [
    "profile_cache_key",
    "TraceCache",
    "default_trace_cache",
    "cached_trace",
]

#: Bump when the trace format or generator semantics change, so stale
#: on-disk entries can never be mistaken for current ones.  v3: traces
#: are columnar, stored as raw column bytes behind a checked header.
_KEY_VERSION = "repro-trace/v3"

_OP_OF_CODE = {ord(op.value): op for op in OpType}


def profile_cache_key(profile: WorkloadProfile) -> str:
    """Stable content key of a workload profile.

    Hashes every generator input (the dataclass repr covers all fields,
    targets and seed included) plus a format version.  Deterministic
    across processes and platforms — unlike ``hash()``, which is salted.
    """
    payload = f"{_KEY_VERSION}:{profile!r}".encode()
    return hashlib.sha256(payload).hexdigest()


class TraceCache:
    """Bounded in-memory LRU of materialised traces, with optional disk tier.

    Parameters
    ----------
    disk_dir:
        Directory for trace entries (created on first write), or ``None``
        for memory-only operation.  Writes are atomic (temp file + rename),
        so concurrent worker processes race benignly.
    max_entries:
        In-memory entry bound; least recently used traces are dropped
        (they remain on disk if a disk tier is configured).
    """

    def __init__(
        self, disk_dir: Optional[str] = None, max_entries: int = 16
    ):
        if max_entries <= 0:
            raise ValueError("max_entries must be positive")
        self.disk_dir = disk_dir
        self.max_entries = max_entries
        self._mem: "OrderedDict[str, Trace]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._mem)

    def __contains__(self, profile: WorkloadProfile) -> bool:
        return profile_cache_key(profile) in self._mem

    # ------------------------------------------------------------------

    def get(self, profile: WorkloadProfile) -> Trace:
        """The trace for ``profile`` — generated at most once per key
        (the entry is shared, and immutable)."""
        key = profile_cache_key(profile)
        trace = self._mem.get(key)
        if trace is not None:
            self._mem.move_to_end(key)
            self.hits += 1
            return trace
        trace = self._load_disk(key)
        if trace is not None:
            self.hits += 1
        else:
            self.misses += 1
            trace = generate_trace(profile)
            self._store_disk(key, trace)
        self._remember(key, trace)
        return trace

    def clear(self) -> None:
        """Drop every in-memory entry (the disk tier is left alone)."""
        self._mem.clear()

    # ------------------------------------------------------------------

    def _remember(self, key: str, trace: Trace) -> None:
        self._mem[key] = trace
        self._mem.move_to_end(key)
        while len(self._mem) > self.max_entries:
            self._mem.popitem(last=False)

    def _disk_path(self, key: str) -> str:
        return os.path.join(self.disk_dir, f"{key}.trace")

    def _load_disk(self, key: str) -> Optional[Trace]:
        """The entry's trace, or ``None`` when it is missing or damaged."""
        if self.disk_dir is None:
            return None
        try:
            with open(self._disk_path(key), "rb") as f:
                header, _, payload = f.read().partition(b"\n")
        except FileNotFoundError:
            return None
        fields = header.decode("ascii", "replace").split(" ")
        if len(fields) != 4 or fields[:2] != [_KEY_VERSION, sys.byteorder]:
            return None
        rows = int(fields[2]) if fields[2].isdigit() else -1
        if len(payload) != 25 * rows or (
            hashlib.sha256(payload).hexdigest() != fields[3]
        ):
            return None
        cut = 8 * rows
        return Trace(
            array("d", payload[:cut]),
            tuple(map(_OP_OF_CODE.__getitem__, payload[3 * cut:])),
            array("q", payload[cut:2 * cut]),
            array("q", payload[2 * cut:3 * cut]),
        )

    def _store_disk(self, key: str, trace: Trace) -> None:
        if self.disk_dir is None:
            return
        payload = b"".join((
            trace.arrival_us.tobytes(), trace.lpn.tobytes(),
            trace.value_id.tobytes(),
            "".join(op.value for op in trace.op).encode("ascii"),
        ))
        header = (
            f"{_KEY_VERSION} {sys.byteorder} {len(trace)} "
            f"{hashlib.sha256(payload).hexdigest()}\n"
        )
        os.makedirs(self.disk_dir, exist_ok=True)
        path = self._disk_path(key)
        tmp = f"{path}.tmp.{os.getpid()}"
        with open(tmp, "wb") as f:
            f.write(header.encode("ascii") + payload)
        os.replace(tmp, path)


_default: Optional[TraceCache] = None


def default_trace_cache() -> TraceCache:
    """The process-wide cache (disk tier from ``REPRO_TRACE_CACHE``)."""
    global _default
    if _default is None:
        _default = TraceCache(disk_dir=os.environ.get("REPRO_TRACE_CACHE"))
    return _default


def cached_trace(profile: WorkloadProfile) -> Trace:
    """One-call helper against the process-default cache."""
    return default_trace_cache().get(profile)
