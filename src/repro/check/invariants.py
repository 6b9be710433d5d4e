"""Cross-structure invariant sanitizer for the FTL state machine.

The FTL's hot paths maintain half a dozen mutually-redundant structures —
the L2P table and its reverse index, per-block valid bitmaps, the array's
incremental page totals, the dead-value pool's PPN lists, the per-block
garbage-popularity mass, the allocator's free lists and the OOB crash
journal.  A bug in any path (PR 1 shipped a batch of them) silently skews
write amplification and revival rates long before anything crashes.

:class:`InvariantChecker` is the sanitizer in the ASan/TSan shape: cheap
O(1) checks ride along on every host operation, and every ``interval``
events a **full audit** cross-checks every structure against every other
and raises :class:`InvariantViolation` — a hard failure carrying the
violation *kind* (a stable dotted name tests can assert on) and a state
diff of the disagreeing values.

The audit is also available stand-alone via :func:`audit` for tests that
want the complete violation list instead of the first failure.

Invariant catalog (kinds raised):

``mapping.reverse-missing`` / ``mapping.reverse-stale``
    Forward and reverse L2P tables disagree.
``mapping.dead-ppn``
    A mapped PPN is not VALID in the flash array.
``mapping.no-fingerprint`` / ``mapping.no-oob``
    A mapped PPN lost its content fingerprint or OOB journal record.
``array.accounting``
    The array's incremental free/valid/invalid/erase totals disagree with
    a from-scratch recount of every block.
``array.unmapped-valid``
    A VALID flash page is referenced by no LPN (a double-valid / leaked
    revival).
``pool.empty-entry``
    A pool entry tracks zero PPNs (should have been removed).
``pool.duplicate-ppn``
    The same garbage PPN is tracked under two fingerprints.
``pool.orphan-ppn``
    A pool-tracked PPN is not an INVALID flash page (it was revived,
    erased or never died).
``pool.fingerprint-mismatch``
    The pool tracks a PPN under a different fingerprint than the FTL's
    content index says the page holds.
``pool.mq-internal``
    The MQ structure underneath an MQ pool failed its own queue/entry
    consistency check.
``pool.popularity-orphan`` / ``pool.popularity-leak`` / ``pool.block-popularity``
    The garbage-popularity side tables (``_garbage_pop_of_ppn`` /
    ``_block_garbage_pop``) disagree with the pool's tracked set — the
    exact skew that silently biases popularity-aware GC victim choice.
``allocator.free-list`` / ``allocator.duplicate-block`` / ``allocator.retired-free``
    A free-listed block has programmed pages, appears twice, or is
    retired.
``allocator.active-full``
    An active append point is already full.
``allocator.leaked-block``
    An erased block is on no free list and not active — its pages are
    unreachable (leaked free space).
``gc.stranded-plane``
    A plane has zero writable pages and no collectible victim while the
    drive is not read-only — the next write must hard-fail.
``gc.headroom``
    A collection pass violated its own postcondition (erased victim not
    actually erased, or reclaim accounting off).
``oob.sequence``
    OOB sequence numbers are not unique or exceed the journal clock.
``oob.free-page-record``
    The OOB journal records a page that is FREE (erase should have
    dropped it).
``oob.trim-order``
    A mapped LPN's newest copy is not newer than the LPN's last trim —
    crash recovery would drop live data.
``oob.recovery-divergence``
    Replaying the OOB journal (:func:`repro.faults.recovery.rebuild_mapping`)
    does not reproduce the live L2P table.
``oracle.*``
    Lockstep oracle disagreements (see :mod:`repro.check.oracle`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional

from ..flash.block import PageState

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..ftl.ftl import BaseFTL
    from ..ftl.gc import GCWork
    from .oracle import OracleFTL

__all__ = ["InvariantViolation", "InvariantChecker", "audit"]


class InvariantViolation(AssertionError):
    """A cross-structure consistency check failed.

    ``kind`` is a stable dotted name from the catalog above; ``diff``
    maps structure names to the disagreeing values, so the failure
    message is a usable state diff rather than a bare assertion.
    """

    def __init__(self, kind: str, detail: str, diff: Optional[Dict] = None):
        self.kind = kind
        self.detail = detail
        self.diff = dict(diff or {})
        lines = [f"[{kind}] {detail}"]
        for key, value in self.diff.items():
            lines.append(f"    {key} = {value!r}")
        super().__init__("\n".join(lines))


def _mapping_violations(ftl: "BaseFTL", out: List[InvariantViolation]) -> None:
    # The audit reads the mapping's columns directly (forward array, owner
    # array, shared-spill dict) so it cross-checks the real redundant
    # state, not an accessor's view of it.
    from ..ftl.mapping import _NONE, _SHARED

    mapping = ftl.mapping
    l2p = mapping._l2p
    owner = mapping._owner
    shared = mapping._shared
    forward_total = 0
    for lpn in range(len(l2p)):
        ppn = l2p[lpn]
        if ppn < 0:
            continue
        forward_total += 1
        current = owner[ppn] if 0 <= ppn < len(owner) else _NONE
        if current != lpn and not (
            current == _SHARED and lpn in shared.get(ppn, ())
        ):
            out.append(InvariantViolation(
                "mapping.reverse-missing",
                f"LPN {lpn} -> PPN {ppn} absent from the reverse index",
                {"lpn": lpn, "ppn": ppn,
                 "reverse_lpns": sorted(mapping.lpns_of(ppn))},
            ))
    reverse_total = 0
    for ppn in range(len(owner)):
        current = owner[ppn]
        if current == _NONE:
            continue
        reverse_total += (
            len(shared.get(ppn, ())) if current == _SHARED else 1
        )
    if reverse_total != forward_total:
        out.append(InvariantViolation(
            "mapping.reverse-stale",
            "reverse index holds LPNs the forward table does not",
            {"forward_entries": forward_total,
             "reverse_entries": reverse_total},
        ))
    if forward_total != mapping.mapped_lpn_count():
        out.append(InvariantViolation(
            "mapping.reverse-stale",
            "incremental mapped-LPN counter disagrees with a forward-column "
            "recount",
            {"forward_entries": forward_total,
             "mapped_lpn_count": mapping.mapped_lpn_count()},
        ))
    oob = dict(ftl.oob_records())
    for ppn in mapping.mapped_ppns():
        state = ftl.array.state_of(ppn)
        if state is not PageState.VALID:
            out.append(InvariantViolation(
                "mapping.dead-ppn",
                f"mapped PPN {ppn} is {state.name}, not VALID",
                {"ppn": ppn, "state": state.name,
                 "lpns": sorted(mapping.lpns_of(ppn))},
            ))
        if ppn not in ftl._ppn_fp:
            out.append(InvariantViolation(
                "mapping.no-fingerprint",
                f"mapped PPN {ppn} has no content fingerprint",
                {"ppn": ppn},
            ))
        if ppn not in oob:
            out.append(InvariantViolation(
                "mapping.no-oob",
                f"mapped PPN {ppn} has no OOB journal record",
                {"ppn": ppn},
            ))


def _array_violations(ftl: "BaseFTL", out: List[InvariantViolation]) -> None:
    array = ftl.array
    free = valid = invalid = retired = 0
    refcount = ftl.mapping.refcount
    geometry = array.geometry
    for index, block in enumerate(array.blocks):
        if block.retired:
            retired += 1
            continue
        valid += block.valid_count
        invalid += block.invalid_count
        free += block.pages_per_block - block.write_pointer
        base = geometry.first_ppn_of_block(index)
        for page in block.valid_page_indexes():
            ppn = base + page
            if refcount(ppn) == 0:
                out.append(InvariantViolation(
                    "array.unmapped-valid",
                    f"VALID page {ppn} is referenced by no LPN",
                    {"ppn": ppn, "block": index},
                ))
    recounted = {
        "free_pages": free,
        "valid_pages": valid,
        "invalid_pages": invalid,
        "retired_blocks": retired,
    }
    incremental = {
        "free_pages": array.free_pages,
        "valid_pages": array.valid_pages,
        "invalid_pages": array.invalid_pages,
        "retired_blocks": array.retired_blocks,
    }
    if recounted != incremental:
        out.append(InvariantViolation(
            "array.accounting",
            "incremental page totals disagree with a full recount",
            {"recounted": recounted, "incremental": incremental},
        ))


def _pool_violations(ftl: "BaseFTL", out: List[InvariantViolation]) -> None:
    pool = ftl.pool
    garbage_pop = ftl._garbage_pop_of_ppn
    if pool is None:
        if garbage_pop:
            out.append(InvariantViolation(
                "pool.popularity-leak",
                "garbage popularity tracked without a pool",
                {"ppns": sorted(garbage_pop)[:16]},
            ))
        return
    seen: Dict[int, object] = {}
    fingerprints = set()
    pairs = 0
    for fp, ppn in pool.tracked_items():
        fingerprints.add(fp)
        pairs += 1
        if ppn in seen:
            out.append(InvariantViolation(
                "pool.duplicate-ppn",
                f"PPN {ppn} tracked under two fingerprints",
                {"ppn": ppn, "first_fp": seen[ppn], "second_fp": fp},
            ))
            continue
        seen[ppn] = fp
        state = ftl.array.state_of(ppn)
        if state is not PageState.INVALID:
            out.append(InvariantViolation(
                "pool.orphan-ppn",
                f"pool-tracked PPN {ppn} is {state.name}, not INVALID",
                {"ppn": ppn, "state": state.name, "fp": fp},
            ))
        stored = ftl._ppn_fp.get(ppn)
        if stored != fp:
            out.append(InvariantViolation(
                "pool.fingerprint-mismatch",
                f"pool tracks PPN {ppn} under a fingerprint the page "
                f"does not hold",
                {"ppn": ppn, "pool_fp": fp, "page_fp": stored},
            ))
    # ``len(pool)`` counts resident entries.  Fingerprint-keyed pools
    # (Infinite/LRU/MQ) hold >= 1 PPN per entry, so distinct fingerprints
    # must match; the LBA-keyed pool holds exactly one PPN per slot and
    # may track one value under several slots, so pair count matches.
    from ..core.dvp import LBARecencyPool

    tracked_entries = (
        pairs if isinstance(pool, LBARecencyPool) else len(fingerprints)
    )
    if tracked_entries != len(pool):
        out.append(InvariantViolation(
            "pool.empty-entry",
            "pool entry count disagrees with entries holding PPNs",
            {"resident_entries": len(pool),
             "entries_with_ppns": tracked_entries},
        ))
    mq = getattr(pool, "mq", None)
    if mq is not None:
        try:
            mq.check_invariants()
        except AssertionError as exc:
            out.append(InvariantViolation(
                "pool.mq-internal",
                f"multi-queue internal check failed: {exc}",
            ))
    # Popularity-mass side tables: exactly the tracked set, and per-block
    # sums that match the per-PPN degrees (the popularity-aware GC input).
    tracked = set(seen)
    popped = set(garbage_pop)
    for ppn in sorted(popped - tracked)[:16]:
        out.append(InvariantViolation(
            "pool.popularity-leak",
            f"PPN {ppn} carries garbage popularity but is not pool-tracked",
            {"ppn": ppn, "popularity": garbage_pop[ppn]},
        ))
    for ppn in sorted(tracked - popped)[:16]:
        out.append(InvariantViolation(
            "pool.popularity-orphan",
            f"pool-tracked PPN {ppn} has no garbage-popularity record",
            {"ppn": ppn, "fp": seen[ppn]},
        ))
    sums: Dict[int, int] = {}
    block_of = ftl.array.geometry.block_of_ppn
    for ppn, pop in garbage_pop.items():
        block = block_of(ppn)
        sums[block] = sums.get(block, 0) + pop
    if sums != ftl._block_garbage_pop:
        diff_blocks = {
            block: (sums.get(block), ftl._block_garbage_pop.get(block))
            for block in set(sums) ^ set(ftl._block_garbage_pop)
            | {b for b in set(sums) & set(ftl._block_garbage_pop)
               if sums[b] != ftl._block_garbage_pop[b]}
        }
        out.append(InvariantViolation(
            "pool.block-popularity",
            "per-block garbage-popularity mass disagrees with per-PPN "
            "degrees (recomputed, incremental)",
            {"blocks": diff_blocks},
        ))


def _allocator_violations(ftl: "BaseFTL", out: List[InvariantViolation]) -> None:
    allocator = ftl.allocator
    array = ftl.array
    listed = set()
    for plane, blocks in enumerate(allocator.free_blocks):
        for block in blocks:
            if block in listed:
                out.append(InvariantViolation(
                    "allocator.duplicate-block",
                    f"block {block} appears twice on the free lists",
                    {"block": block, "plane": plane},
                ))
            listed.add(block)
            b = array.block(block)
            if b.retired:
                out.append(InvariantViolation(
                    "allocator.retired-free",
                    f"retired block {block} is on a free list",
                    {"block": block, "plane": plane},
                ))
            elif b.write_pointer != 0:
                out.append(InvariantViolation(
                    "allocator.free-list",
                    f"free-listed block {block} has programmed pages",
                    {"block": block, "write_pointer": b.write_pointer},
                ))
    active = set()
    for actives in (allocator._active, allocator._active_gc):
        for block in actives:
            if block is None:
                continue
            active.add(block)
            if array.block(block).is_full:
                out.append(InvariantViolation(
                    "allocator.active-full",
                    f"active block {block} is full (should have been "
                    f"closed at allocation)",
                    {"block": block},
                ))
    for index, block in enumerate(array.blocks):
        if (
            not block.retired
            and block.write_pointer == 0
            and index not in listed
            and index not in active
        ):
            out.append(InvariantViolation(
                "allocator.leaked-block",
                f"erased block {index} is unreachable: on no free list "
                f"and not an active append point",
                {"block": index,
                 "plane": array.geometry.plane_of_block(index)},
            ))


def _gc_violations(ftl: "BaseFTL", out: List[InvariantViolation]) -> None:
    if ftl.read_only:
        return
    allocator = ftl.allocator
    geometry = ftl.array.geometry
    for plane in range(geometry.total_planes):
        if allocator.writable_pages(plane) > 0:
            continue
        base = plane * geometry.blocks_per_plane
        collectible = False
        for block in range(base, base + geometry.blocks_per_plane):
            b = ftl.array.block(block)
            # With zero writable pages nothing can be relocated, so only
            # an all-invalid full block makes progress possible.
            if (
                not b.retired
                and b.is_full
                and b.invalid_count > 0
                and b.valid_count == 0
            ):
                collectible = True
                break
        if not collectible:
            out.append(InvariantViolation(
                "gc.stranded-plane",
                f"plane {plane} has no writable pages and no collectible "
                f"victim while the drive is not read-only",
                {"plane": plane,
                 "free_blocks": allocator.free_block_count(plane)},
            ))


def _oob_violations(ftl: "BaseFTL", out: List[InvariantViolation]) -> None:
    seqs: Dict[int, str] = {}
    clock = ftl._oob_seq
    oob = dict(ftl.oob_records())
    for ppn, (lpn, seq) in oob.items():
        record = f"oob[{ppn}]=(lpn {lpn}, seq {seq})"
        if seq in seqs or seq > clock:
            out.append(InvariantViolation(
                "oob.sequence",
                "OOB sequence numbers must be unique and bounded by the "
                "journal clock",
                {"record": record, "clock": clock,
                 "colliding": seqs.get(seq)},
            ))
        seqs[seq] = record
        if ftl.array.state_of(ppn) is PageState.FREE:
            out.append(InvariantViolation(
                "oob.free-page-record",
                f"OOB journal records FREE page {ppn}",
                {"ppn": ppn, "lpn": lpn, "seq": seq},
            ))
    for lpn, seq in ftl._oob_trims.items():
        record = f"trim[{lpn}]=seq {seq}"
        if seq in seqs or seq > clock:
            out.append(InvariantViolation(
                "oob.sequence",
                "trim journal sequence collides or exceeds the clock",
                {"record": record, "clock": clock,
                 "colliding": seqs.get(seq)},
            ))
        seqs[seq] = record
    # Recovery semantics only hold for one-to-one mappings; a dedup FTL's
    # many-to-one table is explicitly unrecoverable from single-LPN OOB
    # records (see repro.faults.recovery).
    if ftl._live_index is not None:
        return
    trims = ftl._oob_trims
    for lpn, ppn in ftl.mapping.forward_items().items():
        entry = oob.get(ppn)
        if entry is None:
            continue  # already reported as mapping.no-oob
        oob_lpn, seq = entry
        if oob_lpn != lpn:
            out.append(InvariantViolation(
                "oob.trim-order",
                f"PPN {ppn} is mapped at LPN {lpn} but journaled for "
                f"LPN {oob_lpn}",
                {"ppn": ppn, "mapped_lpn": lpn, "oob_lpn": oob_lpn},
            ))
        elif trims.get(lpn, -1) >= seq:
            out.append(InvariantViolation(
                "oob.trim-order",
                f"LPN {lpn}'s live copy is not newer than its last trim "
                f"(recovery would drop it)",
                {"lpn": lpn, "copy_seq": seq, "trim_seq": trims[lpn]},
            ))
    from ..faults.recovery import rebuild_mapping

    rebuilt = rebuild_mapping(ftl).forward_items()
    live = ftl.mapping.forward_items()
    if rebuilt != live:
        lost = {k: live[k] for k in set(live) - set(rebuilt)}
        spurious = {k: rebuilt[k] for k in set(rebuilt) - set(live)}
        moved = {
            k: (live[k], rebuilt[k])
            for k in set(live) & set(rebuilt)
            if live[k] != rebuilt[k]
        }
        out.append(InvariantViolation(
            "oob.recovery-divergence",
            "replaying the OOB journal does not reproduce the live L2P "
            "table (lost/spurious/moved shown as lpn: ppn)",
            {"lost": dict(sorted(lost.items())[:8]),
             "spurious": dict(sorted(spurious.items())[:8]),
             "moved": dict(sorted(moved.items())[:8])},
        ))


def audit(ftl: "BaseFTL") -> List[InvariantViolation]:
    """Full cross-structure audit; returns *all* violations found.

    O(total pages + pool size + journal size) — run this at intervals,
    not per operation.
    """
    out: List[InvariantViolation] = []
    _mapping_violations(ftl, out)
    _array_violations(ftl, out)
    _pool_violations(ftl, out)
    _allocator_violations(ftl, out)
    _gc_violations(ftl, out)
    _oob_violations(ftl, out)
    return out


class InvariantChecker:
    """Sanitizer harness: cheap per-event checks plus periodic full audits.

    Attach to a live FTL via :meth:`BaseFTL.attach_checker`; the FTL's
    write/read/trim paths and the garbage collector then call back in.
    ``interval`` is in host events (writes + reads + trims); ``oracle``
    optionally adds the lockstep reference model of
    :mod:`repro.check.oracle` so every read result and revival decision
    is cross-checked against a geometry-free model of the drive.
    """

    #: Default audit cadence (host events between full audits).
    DEFAULT_INTERVAL = 1000

    def __init__(
        self,
        interval: int = DEFAULT_INTERVAL,
        oracle: Optional["OracleFTL"] = None,
    ):
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.interval = interval
        self.oracle = oracle
        self.events = 0
        self.audits = 0
        self.gc_checks = 0
        self._last_write_clock = -1

    # ------------------------------------------------------------------
    # Attachment
    # ------------------------------------------------------------------

    def on_attach(self, ftl: "BaseFTL") -> None:
        """Adopt the FTL's current state as the checked baseline."""
        if self.oracle is not None:
            self.oracle.sync_from(ftl)
        self._last_write_clock = ftl.write_clock

    # ------------------------------------------------------------------
    # Hot-path hooks (O(1) unless the interval fires)
    # ------------------------------------------------------------------

    def after_write(self, ftl: "BaseFTL", lpn: int, fp, outcome) -> None:
        self._cheap(ftl)
        if ftl.write_clock <= self._last_write_clock:
            raise InvariantViolation(
                "mapping.reverse-stale",
                "write clock did not advance across a host write",
                {"write_clock": ftl.write_clock,
                 "previous": self._last_write_clock},
            )
        self._last_write_clock = ftl.write_clock
        if self.oracle is not None:
            self.oracle.observe_write(ftl, lpn, fp, outcome)
        self._tick(ftl)

    def after_read(self, ftl: "BaseFTL", lpn: int, outcome) -> None:
        self._cheap(ftl)
        if self.oracle is not None:
            self.oracle.observe_read(ftl, lpn, outcome)
        self._tick(ftl)

    def after_trim(self, ftl: "BaseFTL", lpn: int) -> None:
        self._cheap(ftl)
        if self.oracle is not None:
            self.oracle.observe_trim(ftl, lpn)
        self._tick(ftl)

    def after_gc(self, ftl: "BaseFTL", plane: int, work: "GCWork") -> None:
        """Cheap postcondition check after one collection invocation."""
        self.gc_checks += 1
        pages_per_block = ftl.config.pages_per_block
        expected = len(work.erased_blocks) * pages_per_block
        if work.reclaimed_pages != expected:
            raise InvariantViolation(
                "gc.headroom",
                "collection reclaim accounting is off: every victim is a "
                "full block, so reclaimed pages must be erased blocks x "
                "pages per block",
                {"reclaimed_pages": work.reclaimed_pages,
                 "expected": expected, "plane": plane},
            )
        for block in work.erased_blocks:
            if ftl.array.block(block).write_pointer != 0:
                raise InvariantViolation(
                    "gc.headroom",
                    f"erased victim {block} still has programmed pages",
                    {"block": block,
                     "write_pointer": ftl.array.block(block).write_pointer},
                )
        for block in work.retired_blocks:
            if not ftl.array.block(block).retired:
                raise InvariantViolation(
                    "gc.headroom",
                    f"block {block} was reported retired but is still in "
                    f"service",
                    {"block": block},
                )

    # ------------------------------------------------------------------

    def _cheap(self, ftl: "BaseFTL") -> None:
        """O(1) conservation law over the array's incremental counters."""
        array = ftl.array
        accounted = (
            array.free_pages
            + array.valid_pages
            + array.invalid_pages
            + array.retired_blocks * ftl.config.pages_per_block
        )
        if accounted != ftl.config.total_pages:
            raise InvariantViolation(
                "array.accounting",
                "page conservation violated: free + valid + invalid + "
                "retired must equal raw capacity",
                {"free": array.free_pages, "valid": array.valid_pages,
                 "invalid": array.invalid_pages,
                 "retired_blocks": array.retired_blocks,
                 "accounted": accounted,
                 "total_pages": ftl.config.total_pages},
            )

    def _tick(self, ftl: "BaseFTL") -> None:
        self.events += 1
        if self.events % self.interval == 0:
            self.run_audit(ftl)

    def run_audit(self, ftl: "BaseFTL") -> None:
        """Run the full audit now; raise the first violation found."""
        self.audits += 1
        violations = audit(ftl)
        if violations:
            first = violations[0]
            if len(violations) > 1:
                first.diff["additional_violations"] = [
                    v.kind for v in violations[1:]
                ]
            raise first
