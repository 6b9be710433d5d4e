"""Power-loss crash recovery: rebuild the L2P mapping from OOB metadata.

What a power loss destroys is exactly the RAM-resident state (paper
Section IV-C puts the whole MQ-DVP in controller RAM): the LPN→PPN table,
the dead-value pool, and every popularity counter.  What survives is the
flash itself — and, as on a real drive, the out-of-band spare area of each
programmed page, which the FTL journals with ``(lpn, seq)`` on every
program, revival and relocation (see ``BaseFTL.oob_records``).

Recovery replays what real page-mapping FTLs do after an unclean
shutdown: scan every programmed page's OOB area and keep, per LPN, the
copy with the highest sequence number — provided the page is still VALID
and the LPN was not trimmed later.  The rebuilt table is verified against
the pre-crash mapping (they must be identical — the journal is complete
by construction), installed, and everything volatile is cleared: the pool
restarts cold, which is precisely the "revival-rate warmup" effect the
recovery experiment (:mod:`repro.experiments.recovery`) measures.

The scan cost is modelled, not just counted: every programmed page must
be read once, spread across all chips in parallel, giving a recovery time
during which the drive services nothing.

Deduplicated FTLs are *not* recoverable this way: a many-to-one mapping
cannot be reconstructed from single-LPN OOB records (a real dedup FTL
journals its fingerprint store separately), so :func:`crash_and_recover`
refuses them explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Tuple

from ..flash.block import PageState
from ..ftl.mapping import MappingTable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..ftl.ftl import BaseFTL

__all__ = ["RecoveryError", "RecoveryReport", "rebuild_mapping", "crash_and_recover"]


class RecoveryError(RuntimeError):
    """Crash recovery could not reconstruct a consistent mapping."""


@dataclass(frozen=True)
class RecoveryReport:
    """What one power-loss event cost."""

    at_us: float            # simulated time of the power loss
    scanned_pages: int      # programmed pages whose OOB area was read
    rebuilt_lpns: int       # forward-map entries reconstructed
    dropped_pool_ppns: int  # revivable garbage pages forgotten with the pool
    recovery_us: float      # scan duration (device services nothing)


def rebuild_mapping(ftl: "BaseFTL") -> MappingTable:
    """Reconstruct the L2P table purely from the OOB journal.

    Newest sequence number per LPN wins; a copy loses if the LPN was
    trimmed after it was written, or if the page is no longer VALID (its
    write was superseded — e.g. a failed-then-rejected rewrite left the
    old copy invalidated with no successor).
    """
    best: Dict[int, Tuple[int, int]] = {}
    for ppn, (lpn, seq) in ftl.oob_records():
        current = best.get(lpn)
        if current is None or seq > current[1]:
            best[lpn] = (ppn, seq)
    table = MappingTable(ftl.config.logical_pages, ftl.config.total_pages)
    trims = ftl._oob_trims
    state_of = ftl.array.state_of
    for lpn in sorted(best):
        ppn, seq = best[lpn]
        # Trim wins ties.  ``_oob_seq`` is a single monotonic clock shared
        # by page records and trim records, so equal sequence numbers are
        # unreachable on a well-formed journal — but if a malformed journal
        # ever produced one, dropping the copy (treating it as trimmed) is
        # the fail-safe direction: resurrecting possibly-discarded data is
        # the dangerous mistake, reporting an LPN unmapped is not.
        if trims.get(lpn, -1) >= seq:
            continue
        if state_of(ppn) is not PageState.VALID:
            continue
        table.map(lpn, ppn)
    return table


def crash_and_recover(
    ftl: "BaseFTL", at_us: float = 0.0, verify: bool = True
) -> RecoveryReport:
    """Simulate a power loss on ``ftl`` *now* and bring it back up.

    Drops all volatile state (mapping table, dead-value pool, popularity
    counters), rebuilds the mapping from the OOB journal and installs it.
    With ``verify`` (the default) the rebuilt forward map is compared
    entry-for-entry against the pre-crash table; any difference raises
    :class:`RecoveryError` — the journal makes recovery lossless, so a
    mismatch is a simulator bug, never an expected outcome.

    Returns a :class:`RecoveryReport`; the recovery time models one OOB
    read per programmed page, parallelised over all chips.
    """
    if ftl._live_index is not None:
        raise RecoveryError(
            "OOB-scan recovery cannot rebuild a deduplicated (many-to-one) "
            "mapping; dedup FTLs need a separately journaled fingerprint "
            "store"
        )
    pre_crash = ftl.mapping.forward_items()
    rebuilt = rebuild_mapping(ftl)
    if verify:
        recovered = rebuilt.forward_items()
        if recovered != pre_crash:
            missing = len(pre_crash.keys() - recovered.keys())
            spurious = len(recovered.keys() - pre_crash.keys())
            raise RecoveryError(
                f"rebuilt mapping disagrees with pre-crash state "
                f"({missing} lost, {spurious} spurious of {len(pre_crash)})"
            )
    # Install the recovered table.  The per-LPN popularity byte lived in
    # the RAM copy of the table and is gone; so is every other popularity
    # structure and the pool itself.
    ftl.mapping = rebuilt
    dropped_pool_ppns = 0
    if ftl.pool is not None:
        dropped_pool_ppns = ftl.pool.tracked_ppn_count()
        ftl.pool.clear_volatile()
    ftl._write_popularity = {}
    ftl._read_popularity = {}
    ftl.garbage_pop.of_ppn.clear()  # in place: the pool shares the table
    ftl.garbage_pop.of_block.clear()
    # Scan cost: one OOB read (no data transfer) per programmed page,
    # striped across every chip.
    scanned = ftl.array.valid_pages + ftl.array.invalid_pages
    timing = ftl.config.timing
    per_chip = -(-scanned // ftl.config.total_chips)  # ceil div
    recovery_us = per_chip * timing.read_us
    if ftl.faults is not None:
        ftl.faults.stats.crashes += 1
        ftl.faults.stats.recovery_times_us.append(recovery_us)
    return RecoveryReport(
        at_us=at_us,
        scanned_pages=scanned,
        rebuilt_lpns=rebuilt.mapped_lpn_count(),
        dropped_pool_ppns=dropped_pool_ppns,
        recovery_us=recovery_us,
    )
