"""Dead-value pools: buffers of garbage-page fingerprints awaiting rebirth.

A dead-value pool (DVP) is the paper's central data structure (Sections III
and IV).  When the FTL invalidates a physical page, the page's content
fingerprint and PPN are *inserted* into the pool instead of being forgotten.
When a later write carries a fingerprint that *hits* the pool, one of the
garbage pages holding that exact content is revived — flipped back to valid
and remapped — and the flash program operation is skipped entirely.

Four pool variants are provided, matching the paper's studied systems:

``InfiniteDeadValuePool``
    The *Ideal* system: unbounded, never evicts (Figures 1, 5, 9, 10).
``LRUDeadValuePool``
    The strawman of Section III-A / Figure 5: recency only.
``MQDeadValuePool``
    The proposal (MQ-DVP): multi-queue, popularity + recency + aging.
``LBARecencyPool``
    A reimplementation of LX-SSD (Zhou et al., MSST 2017) as the paper
    describes it: entries keyed by *logical address* recency with combined
    read+write popularity — the two inefficiencies Section I calls out.

All pools speak the same protocol (:class:`DeadValuePool`), so the FTL in
:mod:`repro.ftl.dvp_ftl` is policy-agnostic.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import (
    Dict,
    Iterator,
    List,
    Optional,
    Protocol,
    Tuple,
    runtime_checkable,
)

from .hashing import Fingerprint
from .mq import MultiQueue

__all__ = [
    "GarbagePopularity",
    "PoolStats",
    "DeadValuePool",
    "PoolBase",
    "InfiniteDeadValuePool",
    "LRUDeadValuePool",
    "MQDeadValuePool",
    "LBARecencyPool",
    "pool_from_name",
    "POOL_NAMES",
]


@runtime_checkable
class DeadValuePool(Protocol):
    """The contract every dead-value pool variant satisfies.

    This is the single authoritative statement of the pool API — the FTL
    (:mod:`repro.ftl.ftl`) is written against exactly this surface, and
    every implementation below (plus
    :class:`~repro.core.adaptive.AdaptiveMQDeadValuePool`) conforms,
    signatures included.  ``runtime_checkable`` so tests can assert
    ``isinstance(pool, DeadValuePool)``; implementations inherit the
    shared machinery from :class:`PoolBase` rather than from this
    Protocol.
    """

    stats: PoolStats
    garbage_pop: Optional[GarbagePopularity]

    def lookup_for_write(self, fp: Fingerprint, now: int) -> Optional[int]:
        """Try to service a write of content ``fp`` from the pool.

        On a hit, removes and returns one garbage PPN holding that content
        (the FTL revives it).  On a miss returns ``None``.  ``now`` is the
        write-request timestamp (the i-th write has timestamp i).
        """
        ...

    def skip_missed_lookups(self, count: int) -> None:
        """Leave the pool as ``count`` missed write lookups would, without
        making them (a fresh drive's fill makes one per page)."""
        ...

    def insert_garbage(
        self,
        fp: Fingerprint,
        ppn: int,
        now: int,
        popularity: int = 1,
        lpn: Optional[int] = None,
    ) -> List[int]:
        """Record that physical page ``ppn`` just died holding content ``fp``.

        ``popularity`` is the 1-byte write-popularity persisted in the
        LPN-to-PPN table; ``lpn`` is the logical address the page was mapped
        to (only the LX-SSD pool uses it).  Returns the list of garbage PPNs
        dropped from tracking because of capacity evictions.
        """
        ...

    def discard_ppn(self, fp: Fingerprint, ppn: int) -> bool:
        """Forget ``ppn`` because GC physically erased it."""
        ...

    def clear_volatile(self) -> None:
        """Drop all RAM-resident pool state (power loss).

        The tracked garbage pages still exist on flash, but nothing about
        them survives in the pool: after a crash the pool restarts cold and
        must re-learn the workload.  Cumulative :class:`PoolStats` are
        *kept* (they are measurements, not device state), and the
        ``garbage_pop`` table is left alone — crash recovery clears the
        FTL's popularity bookkeeping wholesale.
        """
        ...

    def tracked_ppn_count(self) -> int:
        """Total garbage PPNs tracked (for memory accounting in reports)."""
        ...

    def tracked_items(self) -> Iterator[Tuple[Fingerprint, int]]:
        """Yield every ``(fingerprint, ppn)`` pair currently tracked.

        The invariant checker (:mod:`repro.check`) cross-audits this
        against the flash array and the FTL's popularity bookkeeping.
        Order is unspecified; the pool must not be mutated while
        iterating.
        """
        ...

    def __len__(self) -> int:
        """Number of resident entries (distinct fingerprints)."""
        ...

    def __contains__(self, fp: Fingerprint) -> bool:
        """Whether content ``fp`` is currently revivable."""
        ...


class GarbagePopularity:
    """Popularity mass of pool-tracked garbage per PPN and per block: the
    popularity-aware GC metric (Section IV-D).  The FTL and its pool share
    it (a pool drops what it evicts outside ``insert_garbage``), and it
    refers to neither, so a drive stays a tree (DESIGN.md §10)."""

    __slots__ = ("of_ppn", "of_block", "pages_per_block")

    def __init__(self, pages_per_block: int) -> None:
        self.of_ppn: Dict[int, int] = {}
        self.of_block: Dict[int, int] = {}
        self.pages_per_block = pages_per_block

    def of(self, block: int) -> int:
        return self.of_block.get(block, 0)

    def drop(self, ppn: int) -> None:
        """Forget ``ppn``'s mass, if it has any."""
        popularity = self.of_ppn.pop(ppn, None)
        if popularity is None:
            return
        block = ppn // self.pages_per_block
        remaining = self.of_block.get(block, 0) - popularity
        if remaining > 0:
            self.of_block[block] = remaining
        else:
            self.of_block.pop(block, None)


@dataclass
class PoolStats:
    """Counters every pool maintains; the experiment harness reads these."""

    lookups: int = 0
    hits: int = 0            # write short-circuited via a revived page
    misses: int = 0
    insertions: int = 0      # garbage pages inserted (new entry or new PPN)
    evictions: int = 0       # entries evicted for capacity
    evicted_ppns: int = 0    # garbage PPNs dropped by those evictions
    gc_removals: int = 0     # PPNs removed because GC erased them

    @property
    def hit_rate(self) -> float:
        """Fraction of write lookups served from the pool."""
        return self.hits / self.lookups if self.lookups else 0.0


@dataclass
class _PoolEntry:
    """Per-fingerprint state: every PPN currently holding this dead value.

    PPNs live in an insertion-ordered dict keyed by PPN, so membership
    tests and GC discards are O(1) while revival still pops the most
    recently deceased copy (LIFO keeps the freshest page first).  GC of
    a block holding popular garbage used to scan a list per page.
    """

    ppns: Dict[int, None] = field(default_factory=dict)
    popularity: int = 1

    def add_ppn(self, ppn: int) -> None:
        """Track ``ppn``, (re)placing it at the fresh end of the order."""
        self.ppns.pop(ppn, None)
        self.ppns[ppn] = None

    def take_ppn(self) -> int:
        """Pop the most recently deceased PPN."""
        return self.ppns.popitem()[0]

    def discard(self, ppn: int) -> bool:
        """Stop tracking ``ppn``; True when it was tracked."""
        if ppn in self.ppns:
            del self.ppns[ppn]
            return True
        return False


class PoolBase(ABC):
    """Shared machinery for the concrete pools (stats, ``garbage_pop``).

    Implementation detail: the public contract is the
    :class:`DeadValuePool` Protocol above — new pool variants need not
    inherit from this class as long as they satisfy the Protocol.
    """

    def __init__(self) -> None:
        self.stats = PoolStats()
        #: The owning FTL's :class:`GarbagePopularity` (the FTL sets it);
        #: PPNs dropped outside ``insert_garbage`` are dropped here too.
        self.garbage_pop: Optional[GarbagePopularity] = None

    @abstractmethod
    def lookup_for_write(self, fp: Fingerprint, now: int) -> Optional[int]:
        """Try to service a write of content ``fp`` from the pool.

        On a hit, removes and returns one garbage PPN holding that content
        (the FTL revives it).  On a miss returns ``None``.  ``now`` is the
        write-request timestamp (the i-th write has timestamp i).
        """

    def skip_missed_lookups(self, count: int) -> None:
        """Count ``count`` missed write lookups (see the Protocol)."""
        self.stats.lookups += count
        self.stats.misses += count

    @abstractmethod
    def insert_garbage(
        self,
        fp: Fingerprint,
        ppn: int,
        now: int,
        popularity: int = 1,
        lpn: Optional[int] = None,
    ) -> List[int]:
        """Record that physical page ``ppn`` just died holding content ``fp``.

        ``popularity`` is the 1-byte write-popularity persisted in the
        LPN-to-PPN table; ``lpn`` is the logical address the page was mapped
        to (only the LX-SSD pool uses it).  Returns the list of garbage PPNs
        dropped from tracking because of capacity evictions.
        """

    @abstractmethod
    def discard_ppn(self, fp: Fingerprint, ppn: int) -> bool:
        """Forget ``ppn`` because GC physically erased it.

        Returns ``True`` when the PPN was tracked.
        """

    @abstractmethod
    def clear_volatile(self) -> None:
        """Drop all RAM-resident pool state (see the Protocol docstring)."""

    @abstractmethod
    def __len__(self) -> int:
        """Number of resident entries (distinct fingerprints)."""

    @abstractmethod
    def __contains__(self, fp: Fingerprint) -> bool:
        """Whether content ``fp`` is currently revivable."""

    def tracked_ppn_count(self) -> int:
        """Total garbage PPNs tracked (for memory accounting in reports)."""
        raise NotImplementedError

    def tracked_items(self) -> Iterator[Tuple[Fingerprint, int]]:
        """Yield every ``(fingerprint, ppn)`` pair currently tracked."""
        raise NotImplementedError


def _take_ppn(entry: _PoolEntry) -> int:
    """Pop the most recently deceased PPN (LIFO keeps the freshest copy)."""
    return entry.take_ppn()


class InfiniteDeadValuePool(PoolBase):
    """Unbounded pool: the *Ideal* upper bound of Figures 1, 5, 9 and 10."""

    def __init__(self) -> None:
        super().__init__()
        self._entries: Dict[Fingerprint, _PoolEntry] = {}

    def lookup_for_write(self, fp: Fingerprint, now: int) -> Optional[int]:
        self.stats.lookups += 1
        entry = self._entries.get(fp)
        if entry is None or not entry.ppns:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        ppn = _take_ppn(entry)
        if not entry.ppns:
            del self._entries[fp]
        return ppn

    def insert_garbage(
        self,
        fp: Fingerprint,
        ppn: int,
        now: int,
        popularity: int = 1,
        lpn: Optional[int] = None,
    ) -> List[int]:
        entry = self._entries.setdefault(fp, _PoolEntry(popularity=popularity))
        entry.add_ppn(ppn)
        entry.popularity = max(entry.popularity, popularity)
        self.stats.insertions += 1
        return []

    def discard_ppn(self, fp: Fingerprint, ppn: int) -> bool:
        entry = self._entries.get(fp)
        if entry is None or not entry.discard(ppn):
            return False
        if not entry.ppns:
            del self._entries[fp]
        self.stats.gc_removals += 1
        return True

    def clear_volatile(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, fp: Fingerprint) -> bool:
        return fp in self._entries

    def tracked_ppn_count(self) -> int:
        return sum(len(e.ppns) for e in self._entries.values())

    def tracked_items(self) -> Iterator[Tuple[Fingerprint, int]]:
        for fp, entry in self._entries.items():
            for ppn in entry.ppns:
                yield fp, ppn


class LRUDeadValuePool(PoolBase):
    """Recency-only pool (Section III-A strawman, Figure 5).

    Entries are fingerprints ordered by last *insertion or reuse* time;
    when full, the least recently touched fingerprint is dropped together
    with all its tracked PPNs.
    """

    def __init__(self, capacity: int):
        super().__init__()
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self._capacity = capacity
        #: Fingerprint → entry, least recently touched first.
        self._entries: "OrderedDict[Fingerprint, _PoolEntry]" = OrderedDict()

    @property
    def capacity(self) -> int:
        return self._capacity

    def lookup_for_write(self, fp: Fingerprint, now: int) -> Optional[int]:
        self.stats.lookups += 1
        entry = self._entries.get(fp)
        if entry is not None:
            self._entries.move_to_end(fp)
        if entry is None or not entry.ppns:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        ppn = _take_ppn(entry)
        if not entry.ppns:
            del self._entries[fp]
        return ppn

    def insert_garbage(
        self,
        fp: Fingerprint,
        ppn: int,
        now: int,
        popularity: int = 1,
        lpn: Optional[int] = None,
    ) -> List[int]:
        self.stats.insertions += 1
        entries = self._entries
        entry = entries.get(fp)
        if entry is not None:
            entry.add_ppn(ppn)
            entry.popularity = max(entry.popularity, popularity)
            entries.move_to_end(fp)  # refresh recency
            return []
        evicted = None
        if len(entries) >= self._capacity:
            evicted = entries.popitem(last=False)[1]
        entries[fp] = _PoolEntry(ppns={ppn: None}, popularity=popularity)
        if evicted is None:
            return []
        self.stats.evictions += 1
        dropped = evicted.ppns
        self.stats.evicted_ppns += len(dropped)
        return list(dropped)

    def discard_ppn(self, fp: Fingerprint, ppn: int) -> bool:
        entry = self._entries.get(fp)
        if entry is None or not entry.discard(ppn):
            return False
        if not entry.ppns:
            del self._entries[fp]
        self.stats.gc_removals += 1
        return True

    def clear_volatile(self) -> None:
        self._entries = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, fp: Fingerprint) -> bool:
        return fp in self._entries

    def tracked_ppn_count(self) -> int:
        return sum(len(e.ppns) for e in self._entries.values())

    def tracked_items(self) -> Iterator[Tuple[Fingerprint, int]]:
        for fp, entry in list(self._entries.items()):
            for ppn in entry.ppns:
                yield fp, ppn


class MQDeadValuePool(PoolBase):
    """The paper's proposal: an MQ-managed dead-value pool (MQ-DVP).

    Each entry holds a 16B hash, the PPN list, the write-popularity degree
    and an expiration time (Figure 8); the multi-queue machinery supplies
    promotion on access, expiry-driven demotion, and eviction from the
    lowest queue (Section IV-C).
    """

    def __init__(self, capacity: int, num_queues: int = 8):
        super().__init__()
        self._mq: MultiQueue[Fingerprint, _PoolEntry] = MultiQueue(
            capacity, num_queues=num_queues
        )
        #: PPNs across every entry, kept as they come and go.
        self._tracked = 0

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.__dict__.update(state)
        if "_tracked" not in state:  # pickled before the count was kept
            self._tracked = sum(1 for _ in self.tracked_items())

    @property
    def capacity(self) -> int:
        return self._mq.capacity

    @property
    def mq(self) -> MultiQueue:
        """The underlying multi-queue (exposed for tests and reports)."""
        return self._mq

    def lookup_for_write(self, fp: Fingerprint, now: int) -> Optional[int]:
        self.stats.lookups += 1
        entry = self._mq.get(fp)
        if entry is None or not entry.ppns:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        self._tracked -= 1
        ppn = _take_ppn(entry)
        if not entry.ppns:
            # Last dead copy revived: the entry no longer describes garbage.
            self._mq.remove(fp)
        else:
            self._mq.access(fp, now)
        return ppn

    def insert_garbage(
        self,
        fp: Fingerprint,
        ppn: int,
        now: int,
        popularity: int = 1,
        lpn: Optional[int] = None,
    ) -> List[int]:
        self.stats.insertions += 1
        existing = self._mq.get(fp)
        if existing is not None:
            existing.add_ppn(ppn)
            self._tracked += 1
            existing.popularity = max(existing.popularity, popularity)
            self._mq.access(fp, now)
            if popularity > self._mq.entry(fp).popularity:
                # The 1-byte popularity persisted in the LPN-to-PPN table
                # outran the MQ reference count (the value kept getting
                # written while absent): sync the count and re-place.
                self._mq.set_popularity(fp, popularity, now)
            return []
        entry = _PoolEntry(ppns={ppn: None}, popularity=popularity)
        evicted = self._mq.insert(fp, entry, now, popularity=popularity)
        if popularity > 1:
            # A popular value re-entering the pool must not restart in Q0:
            # restore the persisted popularity so the entry lands in queue
            # floor(log2(popularity + 1)) straight away (Section IV-C).
            self._mq.set_popularity(fp, popularity, now)
        if evicted is None:
            self._tracked += 1
            return []
        self.stats.evictions += 1
        dropped = evicted[1].ppns
        self.stats.evicted_ppns += len(dropped)
        self._tracked += 1 - len(dropped)
        return list(dropped)

    def discard_ppn(self, fp: Fingerprint, ppn: int) -> bool:
        entry = self._mq.get(fp)
        if entry is None or not entry.discard(ppn):
            return False
        if not entry.ppns:
            self._mq.remove(fp)
        self.stats.gc_removals += 1
        self._tracked -= 1
        return True

    def clear_volatile(self) -> None:
        self._mq = MultiQueue(
            self._mq.capacity, num_queues=self._mq.num_queues
        )
        self._tracked = 0

    def __len__(self) -> int:
        return len(self._mq)

    def __contains__(self, fp: Fingerprint) -> bool:
        return fp in self._mq

    def tracked_ppn_count(self) -> int:
        return self._tracked

    def tracked_items(self) -> Iterator[Tuple[Fingerprint, int]]:
        for index in range(self._mq.num_queues):
            for key in self._mq.keys_in_queue(index):
                for ppn in self._mq.get(key).ppns:
                    yield key, ppn


@dataclass
class _LbaEntry:
    """LX-SSD slot: the last garbage page created at one logical address."""

    fp: Fingerprint
    ppn: int
    popularity: int = 1
    second_chance: bool = False


class LBARecencyPool(PoolBase):
    """LX-SSD-style pool (Zhou et al., MSST 2017), as the paper characterises it.

    Two deliberate design choices reproduce the prior work's weaknesses the
    paper critiques in Section I:

    * slots are keyed by *logical page address* and ordered by LBA recency,
      so one slot exists per hot LBA regardless of how many distinct values
      died there — a newly dead value overwrites the previous one;
    * the popularity used for the second-chance on eviction combines read
      and write counts, even though read-popular values are not necessarily
      rewritten.
    """

    def __init__(self, capacity: int, popularity_threshold: int = 4):
        super().__init__()
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self._capacity = capacity
        self._by_lpn: "OrderedDict[int, _LbaEntry]" = OrderedDict()
        # fp → insertion-ordered dict of LPNs whose slot holds that value.
        # Dict (not set) so revival picks the most recently inserted LBA
        # deterministically: set iteration order depends on hash seeding
        # and insertion history, which made revived PPNs — and all GC
        # state downstream — differ between runs of the same trace.
        self._fp_index: Dict[Fingerprint, Dict[int, None]] = {}
        self._popularity_threshold = popularity_threshold

    @property
    def capacity(self) -> int:
        return self._capacity

    def _unindex(self, lpn: int, entry: _LbaEntry) -> None:
        lpns = self._fp_index.get(entry.fp)
        if lpns is not None:
            lpns.pop(lpn, None)
            if not lpns:
                del self._fp_index[entry.fp]

    def lookup_for_write(self, fp: Fingerprint, now: int) -> Optional[int]:
        self.stats.lookups += 1
        lpns = self._fp_index.get(fp)
        if not lpns:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        # Most recently inserted LBA holding this value (deterministic).
        lpn = next(reversed(lpns))
        entry = self._by_lpn.pop(lpn)
        self._unindex(lpn, entry)
        return entry.ppn

    def insert_garbage(
        self,
        fp: Fingerprint,
        ppn: int,
        now: int,
        popularity: int = 1,
        lpn: Optional[int] = None,
    ) -> List[int]:
        if lpn is None:
            raise ValueError("LBARecencyPool requires the logical address")
        self.stats.insertions += 1
        dropped: List[int] = []
        old = self._by_lpn.pop(lpn, None)
        if old is not None:
            # The hot-LBA slot is overwritten: the previous dead value at
            # this address is silently lost (the scalability flaw).  This
            # is an eviction like any other — count it as one, keeping
            # evictions/evicted_ppns consistent with the other pools.
            self._unindex(lpn, old)
            dropped.append(old.ppn)
            self.stats.evictions += 1
            self.stats.evicted_ppns += 1
        while len(self._by_lpn) >= self._capacity:
            victim_lpn, victim = self._by_lpn.popitem(last=False)
            if (
                victim.popularity >= self._popularity_threshold
                and not victim.second_chance
            ):
                victim.second_chance = True
                self._by_lpn[victim_lpn] = victim  # back to MRU end
                continue
            self._unindex(victim_lpn, victim)
            dropped.append(victim.ppn)
            self.stats.evictions += 1
            self.stats.evicted_ppns += 1
        entry = _LbaEntry(fp=fp, ppn=ppn, popularity=popularity)
        self._by_lpn[lpn] = entry
        self._fp_index.setdefault(fp, {})[lpn] = None
        return dropped

    def discard_ppn(self, fp: Fingerprint, ppn: int) -> bool:
        lpns = self._fp_index.get(fp)
        if not lpns:
            return False
        for lpn in list(lpns):
            entry = self._by_lpn.get(lpn)
            if entry is not None and entry.ppn == ppn:
                del self._by_lpn[lpn]
                self._unindex(lpn, entry)
                self.stats.gc_removals += 1
                return True
        return False

    def clear_volatile(self) -> None:
        self._by_lpn.clear()
        self._fp_index.clear()

    def __len__(self) -> int:
        return len(self._by_lpn)

    def __contains__(self, fp: Fingerprint) -> bool:
        return bool(self._fp_index.get(fp))

    def tracked_ppn_count(self) -> int:
        return len(self._by_lpn)

    def tracked_items(self) -> Iterator[Tuple[Fingerprint, int]]:
        for entry in self._by_lpn.values():
            yield entry.fp, entry.ppn


#: Pool registry names accepted by :func:`pool_from_name`.
POOL_NAMES = ("infinite", "lru", "mq", "lba-recency", "adaptive")


def pool_from_name(
    name: str,
    entries: int = 200_000,
    num_queues: int = 8,
) -> DeadValuePool:
    """Build a dead-value pool by registry name.

    The single place mapping pool names to classes — the system factories
    (:mod:`repro.ftl.dvp_ftl`) and the CLI both resolve through here
    instead of dispatching inline.  ``entries`` is ignored by the
    unbounded ``infinite`` pool; ``num_queues`` only affects the MQ-based
    pools.  The ``adaptive`` pool starts at a quarter of ``entries`` and
    may grow back up to it.
    """
    if name == "infinite":
        return InfiniteDeadValuePool()
    if name == "lru":
        return LRUDeadValuePool(entries)
    if name == "mq":
        return MQDeadValuePool(entries, num_queues=num_queues)
    if name == "lba-recency":
        return LBARecencyPool(entries)
    if name == "adaptive":
        from .adaptive import AdaptiveMQDeadValuePool

        return AdaptiveMQDeadValuePool(
            initial_entries=max(64, entries // 4),
            min_entries=64,
            max_entries=entries,
            num_queues=num_queues,
        )
    raise ValueError(
        f"unknown pool {name!r}; choose from {sorted(POOL_NAMES)}"
    )
