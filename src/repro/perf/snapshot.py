"""Prefill snapshot/restore: precondition once per drive, reuse by copy.

Every experiment run starts from a preconditioned drive — ``prefill``
writes each exported logical page once with its unique initial value, which
for short traces costs more simulator work than the trace replay itself.

The post-prefill drive is the same for every studied system: prefill
writes all-unique values into an empty drive, so pool lookups all miss,
nothing is invalidated, no garbage exists and no GC runs.  Pools, GC
policies, dedup and the demand-paged mapping cannot influence the flash
array, allocator, mapping table, OOB journal or content tables.  What a
system adds on top of that shared state follows from it and the page
count, exactly as a direct prefill leaves it:

* dedup's live index maps each page's value to its home, in program
  order: ``_ppn_fp`` inverted;
* DFTL's cached mapping table (CMT) is what ``access(lpn, dirty=True)``
  over every prefilled LPN leaves, so a restore replays those accesses;
* every pool has counted one missed lookup per prefilled page, and an
  adaptive pool's window has advanced one event per miss.

:class:`PrefillCache` exploits this: the first run of a (config,
profile) pair prefills directly and, if a later cell may restore it,
captures the shared state — flash array, allocator, mapping table, OOB
journal, fingerprint and popularity indexes, write clock.  Every later
run, whatever its system, builds that system (pool, GC policy and all),
rehydrates the snapshot and rebuilds its extras, skipping the prefill
entirely.  ``run_specs`` plans each batch, so a miss captures
only while planned cells for its key remain and the last planned restore
drops it; unplanned keys (direct ``run_system`` calls) keep LRU
retention.  A prefill that ran GC is not captured (its moves would break
the program-order rule above), and an FTL class this module does not
know always prefills directly: it may carry state a restore cannot
rebuild.

A snapshot is two parts.  The mutable object graph (array, allocator,
mapping, the OOB columns and trims) is pickled into an immutable byte
string, and every restore is a fresh ``pickle.loads`` of it.  The
content tables (``_ppn_fp`` and ``_write_popularity``) are held as
``dict`` copies instead, because pickling them is a
``Fingerprint.__reduce__`` per page each way.  Their keys and values are
immutable fingerprints and ints, so a shallow copy is already a deep
one: the capture copies the live FTL's dicts, and every restore but the
last planned one (which takes them) hands out a new copy.  Runs cannot leak
state into each other — the basis of the bit-identical guarantee the
determinism tests enforce.
"""

from __future__ import annotations

import pickle
from collections import Counter, OrderedDict
from contextlib import contextmanager
from typing import TYPE_CHECKING, Dict, Iterable, Iterator, Optional, Tuple

from ..flash.config import SSDConfig
from ..ftl.dedup import DedupFTL
from ..ftl.dftl import DFTLFtl
from ..ftl.dvp_ftl import build_system
from ..ftl.ftl import BaseFTL
from ..traces.profiles import WorkloadProfile
from .trace_cache import profile_cache_key

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..sim.ssd import SimulatedSSD

__all__ = [
    "PrefillCache",
    "default_prefill_cache",
    "prefill_key",
    "capture_live_state",
    "restore_live_state",
]

#: FTL attributes that fully determine the shared post-prefill state.
#: ``_PICKLED_ATTRS`` is the mutable object graph: ``array``/``allocator``/
#: ``mapping`` carry the drive, ``write_clock`` the logical time prefill
#: advanced to, and ``_oob_lpns``/``_oob_seqs``/``_oob_seq``/``_oob_trims``
#: the out-of-band journal crash recovery scans.  ``_COPIED_ATTRS`` are
#: the content tables (fingerprint and int keys and values), held as
#: ``dict`` copies.
_PICKLED_ATTRS = (
    "array",
    "allocator",
    "mapping",
    "write_clock",
    "_oob_lpns",
    "_oob_seqs",
    "_oob_seq",
    "_oob_trims",
)
_COPIED_ATTRS = ("_ppn_fp", "_write_popularity")

#: FTL classes whose prefill state is ``BaseFTL``'s attributes plus the
#: slots a restore rebuilds (``DedupFTL`` fills ``_live_index``,
#: ``DFTLFtl`` fills ``translation``).  Exact classes only: any other
#: subclass may carry state a restore cannot rebuild, so it prefills
#: directly.
_RESTORABLE = (BaseFTL, DedupFTL, DFTLFtl)

#: A captured prefill: the pickled object graph, the copied content
#: tables by attribute name, and the number of pages prefill wrote.
_Snapshot = Tuple[bytes, Dict[str, dict], int]
#: A snapshot's key: the drive config and the profile's cache key.
_Key = Tuple[SSDConfig, str]


def _capture(ftl: BaseFTL, pages: int) -> _Snapshot:
    """Capture the shared post-prefill state of ``ftl``.

    Cross-references (``allocator.array``) survive because the object
    graph is pickled in one piece.
    """
    state = {name: getattr(ftl, name) for name in _PICKLED_ATTRS}
    tables = {name: dict(getattr(ftl, name)) for name in _COPIED_ATTRS}
    return pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL), tables, pages


def _restore(ftl: BaseFTL, snapshot: _Snapshot, last: bool = False) -> None:
    """Graft a captured prefill state onto a freshly built system, then
    rebuild what the system adds on top, as a direct prefill leaves it.
    The ``last`` restore of a snapshot takes its tables without a copy."""
    from ..experiments.runner import reset_measurements  # avoids a cycle

    graph, tables, pages = snapshot
    for name, value in pickle.loads(graph).items():
        setattr(ftl, name, value)
    for name, table in tables.items():
        setattr(ftl, name, table if last else dict(table))
    # The wear tracker holds the array it was built with; point it at the
    # grafted copy (the collector reads the array from the FTL each pass).
    ftl.wear.array = ftl.array
    ftl._fill_slots(pages)
    reset_measurements(ftl)


def _build(system: str, config: SSDConfig, entries: int) -> Tuple[BaseFTL, bool]:
    """Build ``system``'s FTL, and whether a snapshot can serve it."""
    ftl = build_system(system, config, entries)
    return ftl, type(ftl) in _RESTORABLE


def prefill_key(config: SSDConfig, profile: WorkloadProfile) -> _Key:
    """The (drive config, profile) key one snapshot serves."""
    return config, profile_cache_key(profile)


class PrefillCache:
    """Bounded LRU of prefill snapshots keyed by (config, profile)."""

    def __init__(self, max_entries: int = 4):
        if max_entries <= 0:
            raise ValueError("max_entries must be positive")
        self.max_entries = max_entries
        self._snaps: "OrderedDict[_Key, _Snapshot]" = OrderedDict()
        #: Planned cells not yet preconditioned, per key (see ``planned``).
        self._planned: "Counter[_Key]" = Counter()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._snaps)

    def clear(self) -> None:
        self._snaps.clear()

    @contextmanager
    def planned(self, keys: Iterable[_Key]) -> Iterator[None]:
        """Plan a batch: one key per cell that will precondition from it;
        inside the block each key captures only while planned cells remain."""
        self._planned.update(keys)
        try:
            yield
        finally:
            self._planned.clear()

    def warm(
        self,
        system: str,
        config: SSDConfig,
        profile: WorkloadProfile,
        pool_entries: int,
    ) -> bool:
        """Ensure the snapshot for this cell exists, without building a
        restored system.

        The parallel engine calls this in the *parent* process before the
        worker pool forks: children inherit the warm snapshot copy-on-
        write, so no worker ever repeats the prefill.
        Returns ``False`` when no snapshot serves the cell: the system's
        FTL class is not restorable, its prefill ran GC, or the plan has
        only this cell for the key (it prefills in its own worker).
        """
        ftl, restorable = _build(system, config, pool_entries)
        if not restorable:
            return False
        key = prefill_key(config, profile)
        if key in self._snaps:
            self._snaps.move_to_end(key)
            return True
        return self._planned[key] != 1 and self._prefill(ftl, key, profile)

    def prefilled_system(
        self,
        system: str,
        config: SSDConfig,
        profile: WorkloadProfile,
        pool_entries: int,
    ) -> BaseFTL:
        """Build ``system`` and precondition it for ``profile``.

        The first call for a (config, profile) pair prefills directly
        (capturing if a later cell may restore); later calls for any
        system restore by copy.  Either way the returned FTL is
        indistinguishable from a freshly prefilled one.
        """
        from ..experiments.runner import prefill  # runtime: avoids a cycle

        ftl, restorable = _build(system, config, pool_entries)
        key = prefill_key(config, profile)
        left = self._planned[key]  # planned cells still to come, 0: unplanned
        if left:
            self._planned[key] = left - 1
        later = left != 1  # a later cell may restore the snapshot
        if not restorable:
            prefill(ftl, profile)
        elif key not in self._snaps:
            self._prefill(ftl, key, profile, capture=later)
        else:
            self.hits += 1
            self._snaps.move_to_end(key)
            _restore(ftl, self._snaps[key], last=not later)
        if not later:
            self._snaps.pop(key, None)
        return ftl

    def _prefill(
        self, ftl: BaseFTL, key: _Key, profile: WorkloadProfile, capture: bool = True
    ) -> bool:
        """Prefill ``ftl`` directly and, with ``capture``, capture it under
        ``key``; returns whether it was captured."""
        from ..experiments.runner import prefill  # runtime: avoids a cycle

        self.misses += 1
        pages = prefill(ftl, profile)
        if ftl.gc.invocations or not capture:
            return False
        self._snaps[key] = _capture(ftl, pages)
        while len(self._snaps) > self.max_entries:
            self._snaps.popitem(last=False)
        return True


# -- live mid-run state ------------------------------------------------
#
# The prefill cache above shares the *post-precondition* state between
# runs.  The serve layer needs something stronger: checkpointing a
# device *mid-run* — FTL tables, timelines, latency samples, the global
# request index — such that a restored device finishes a trace
# digest-identical to one that was never interrupted.  Unlike the
# prefill path (which grafts a curated attribute subset onto a freshly
# built FTL), a live checkpoint pickles the whole (ftl, ssd) object
# graph in one piece, so every cross-reference (the pool's shared
# garbage-popularity table, timelines, host queue heap, accumulated
# samples) survives by construction.
# Restores are ``pickle.loads`` of an immutable byte string, so no two
# restores share state.

#: Live-state blobs are version-tagged so a reader refuses a blob from
#: an incompatible writer instead of grafting mismatched state.
#: Version 2: ``MultiQueue`` pickles its head cache (``_head_key``/
#: ``_head_entry``/``_head_due``) and ``_hottest`` entry; a version 1
#: pool would resume without them.  Version 3: ``BaseFTL`` keeps its
#: OOB journal as per-PPN columns (``_oob_lpns``/``_oob_seqs``); a
#: version 2 FTL would resume with the old ``_oob`` dict and no columns.
#: Version 4: every ``BaseFTL`` carries the ``_live_index`` and
#: ``translation`` slots; a version 3 FTL would resume without them.
#: Version 5: every ``SimulatedSSD`` carries the ``background`` slot its
#: replay loop tests; a version 4 device would resume without it.
#: Version 6: the FTL and its pool share one ``garbage_pop`` table, and
#: the collector holds neither the FTL nor its array; a version 5 FTL
#: would resume with a pool callback and a collector bound to the FTL.
LIVE_STATE_VERSION = 6


def capture_live_state(ftl: BaseFTL, ssd: "SimulatedSSD") -> bytes:
    """Pickle the complete mid-run state of a device.

    Requires a device without live observers attached (samplers hold
    callbacks that cannot cross a pickle boundary); the serve layer
    never attaches them to checkpointable sessions.
    """
    if ssd.observer is not None:
        raise ValueError(
            "cannot capture live state with a TimeSeriesSampler attached "
            "(samplers hold process-local callbacks)"
        )
    if ssd.ftl is not ftl:
        raise ValueError("ssd was built over a different ftl")
    return pickle.dumps(
        {"version": LIVE_STATE_VERSION, "ftl": ftl, "ssd": ssd},
        protocol=pickle.HIGHEST_PROTOCOL,
    )


def restore_live_state(blob: bytes) -> Tuple[BaseFTL, "SimulatedSSD"]:
    """Rehydrate a :func:`capture_live_state` blob.

    The returned pair shares one object graph (``ssd.ftl is ftl``), so
    stepping the restored device continues exactly where the captured
    one stopped — the serve checkpoint tests prove digest identity with
    an uninterrupted run.
    """
    state = pickle.loads(blob)
    version = state.get("version")
    if version != LIVE_STATE_VERSION:
        raise ValueError(
            f"live-state blob version {version!r} != supported "
            f"{LIVE_STATE_VERSION}"
        )
    ftl, ssd = state["ftl"], state["ssd"]
    if ssd.ftl is not ftl:
        raise ValueError("corrupt live-state blob: ssd/ftl graph split")
    return ftl, ssd


_default: Optional[PrefillCache] = None


def default_prefill_cache() -> PrefillCache:
    """The process-wide prefill cache used by ``run_system``."""
    global _default
    if _default is None:
        _default = PrefillCache()
    return _default
