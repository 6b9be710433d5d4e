"""The Multi-Queue (MQ) replacement algorithm.

MQ (Zhou, Philbin and Li, USENIX ATC 2001) keeps *m* LRU queues
``Q0..Q(m-1)``, where queue index encodes an access-frequency band: an entry
whose reference count is ``f`` belongs around queue ``floor(log2(f + 1))``.
Recency is handled inside each queue (plain LRU), frequency by promotion
across queues, and aging by an expiration clock that demotes entries that
have not been touched for longer than the observed re-access interval of the
hottest entry.

The paper (Sections III-A and IV) adapts MQ as the replacement policy of the
dead-value pool: keys are content fingerprints, the reference count is the
value's *write* popularity, and time is measured in number of write requests
issued so far ("the i-th incoming write request has a timestamp of i").

This module implements MQ generically over hashable keys and arbitrary
payloads so it can be unit-tested and reused in isolation; the dead-value
pool in :mod:`repro.core.dvp` composes it with PPN bookkeeping.

Mechanics implemented exactly as the paper describes:

* inserts go to the tail of the lowest queue;
* on access, the reference count is bumped and the entry is promoted one
  queue whenever ``log2(popularity + 1)`` exceeds its current queue index;
* the *hottest* entry (largest reference count) is tracked together with the
  interval between its last two accesses; each touched entry gets
  ``expire_time = current_time + hottest_interval``;
* on every update the head (LRU end) of each queue is inspected and demoted
  one queue if its expiration time has passed;
* eviction removes the head of the lowest non-empty queue.

The per-update head inspection reads a head cache instead of the queues:
each queue's head key, its :class:`MQEntry` and that entry's
``expire_time`` are kept in three parallel lists, refreshed only when the
head changes (an append to an empty queue, or the head leaving its
queue).  An update with no expired head costs one ``min`` over the cached
expiration times.  The hottest entry and the queue heads are tracked by
:class:`MQEntry` identity, so the hot path never compares keys with
``==`` (for fingerprints that is a Python-level ``__eq__``).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Generic, Hashable, List, Optional, Tuple, TypeVar

__all__ = ["MQEntry", "MultiQueue", "queue_index_for_popularity"]

K = TypeVar("K", bound=Hashable)
V = TypeVar("V")

#: Cached expiration time of an empty queue's head, and always of ``Q0``'s
#: (the lowest queue's head is evicted, never demoted): later than any
#: write timestamp, so ``min`` over the cache skips it.
_NEVER = float("inf")

#: Fallback expiration interval used before the hottest entry has been
#: re-accessed at least twice (mirrors the ``lifeTime`` parameter of the
#: original MQ algorithm).
DEFAULT_LIFETIME = 128


def queue_index_for_popularity(popularity: int, num_queues: int) -> int:
    """Target queue for an entry with the given reference count.

    Implements the paper's logarithmic placement rule
    ``floor(log2(popularity + 1))`` clamped to the available queues.
    """
    if popularity < 0:
        raise ValueError("popularity must be non-negative")
    index = (popularity + 1).bit_length() - 1
    return min(index, num_queues - 1)


@dataclass(slots=True)
class MQEntry(Generic[V]):
    """Bookkeeping attached to every key resident in the multi-queue."""

    payload: V
    popularity: int = 1
    queue_index: int = 0
    expire_time: int = 0
    last_access: int = 0
    prev_access: int = field(default=-1)


class MultiQueue(Generic[K, V]):
    """A capacity-bounded multi-queue container.

    Parameters
    ----------
    capacity:
        Maximum number of resident entries; inserting beyond it evicts.
    num_queues:
        Number of LRU queues (the paper uses 8 for the dead-value pool).
    default_lifetime:
        Expiration interval used until a hottest-entry re-access interval
        has been observed.
    """

    def __init__(
        self,
        capacity: int,
        num_queues: int = 8,
        default_lifetime: int = DEFAULT_LIFETIME,
    ):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if num_queues <= 0:
            raise ValueError("num_queues must be positive")
        self._capacity = capacity
        self._num_queues = num_queues
        self._queues: List["OrderedDict[K, None]"] = [
            OrderedDict() for _ in range(num_queues)
        ]
        self._entries: dict[K, MQEntry[V]] = {}
        # Head cache, one slot per queue (see the module docstring).
        self._head_key: List[Optional[K]] = [None] * num_queues
        self._head_entry: List[Optional[MQEntry[V]]] = [None] * num_queues
        self._head_due: List[float] = [_NEVER] * num_queues
        #: The entry with the largest reference count; always resident or
        #: ``None``, so identity stands in for key equality.
        self._hottest: Optional[MQEntry[V]] = None
        self._hottest_interval = default_lifetime
        self._default_lifetime = default_lifetime
        # Counters exposed for tests and the ablation benchmarks.
        self.promotions = 0
        self.demotions = 0
        self.evictions = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def num_queues(self) -> int:
        return self._num_queues

    @property
    def hottest_interval(self) -> int:
        """Interval between the last two accesses of the hottest entry."""
        return self._hottest_interval

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: K) -> bool:
        return key in self._entries

    def entry(self, key: K) -> Optional[MQEntry[V]]:
        """The :class:`MQEntry` for ``key``, or ``None`` if absent."""
        return self._entries.get(key)

    def get(self, key: K) -> Optional[V]:
        """Payload for ``key`` without touching recency/frequency."""
        entry = self._entries.get(key)
        return entry.payload if entry is not None else None

    def queue_lengths(self) -> List[int]:
        """Length of each queue, ``Q0`` first (used by tests and reports)."""
        return [len(q) for q in self._queues]

    def keys_in_queue(self, index: int) -> List[K]:
        """Keys of queue ``index`` from LRU head to MRU tail."""
        # The queue dict's insertion order IS the LRU->MRU contract;
        # sorting here would destroy exactly the order callers want.
        return list(self._queues[index].keys())  # lint: disable=det.set-iter

    # ------------------------------------------------------------------
    # Core operations
    # ------------------------------------------------------------------

    def insert(
        self, key: K, payload: V, now: int, popularity: int = 1
    ) -> Optional[Tuple[K, V]]:
        """Insert a new ``key`` at the tail of the lowest queue.

        Returns the evicted ``(key, payload)`` when the insert pushed the
        container over capacity, else ``None``.  Inserting a resident key is
        a programming error; use :meth:`access` for that.
        """
        if key in self._entries:
            raise KeyError(f"key already resident: {key!r}")
        evicted = None
        if len(self._entries) >= self._capacity:
            evicted = self.evict_one()
        entry = MQEntry(
            payload=payload,
            popularity=max(1, popularity),
            queue_index=0,
            last_access=now,
        )
        entry.expire_time = now + self._hottest_interval
        self._entries[key] = entry
        self._append(0, key, entry)
        self._note_access(entry)
        self._run_demotions(now)
        return evicted

    def access(self, key: K, now: int) -> Optional[V]:
        """Record an access to ``key``: bump popularity, refresh, promote.

        Returns the payload, or ``None`` when the key is not resident.
        """
        entry = self._entries.get(key)
        if entry is None:
            return None
        entry.popularity += 1
        self._refresh(key, entry, now)
        self._note_access(entry)
        self._run_demotions(now)
        return entry.payload

    def set_popularity(self, key: K, popularity: int, now: int) -> None:
        """Overwrite the reference count (used when restoring the 1-byte
        popularity persisted in the LPN-to-PPN table) and re-place the entry.

        Unlike :meth:`access` — which promotes one queue per touch — a
        restore moves the entry straight to queue
        ``floor(log2(popularity + 1))``: the persisted count is history
        that was already earned, not a fresh access streak.
        """
        entry = self._entries.get(key)
        if entry is None:
            raise KeyError(key)
        entry.popularity = max(1, popularity)
        target = queue_index_for_popularity(entry.popularity, self._num_queues)
        self._unlink(key, entry)
        if target > entry.queue_index:
            self.promotions += 1
        elif target < entry.queue_index:
            self.demotions += 1
        # Same queue: the unlink/append pair refreshes recency (MRU tail).
        entry.queue_index = target
        entry.expire_time = now + self._hottest_interval
        self._append(target, key, entry)
        self._note_access(entry)
        self._run_demotions(now)

    def _refresh(self, key: K, entry: MQEntry[V], now: int) -> None:
        """Move ``key`` to the tail of its (possibly promoted) queue."""
        target = queue_index_for_popularity(entry.popularity, self._num_queues)
        self._unlink(key, entry)
        index = entry.queue_index
        if target > index:
            # The paper promotes one queue at a time.
            index += 1
            entry.queue_index = index
            self.promotions += 1
        entry.prev_access = entry.last_access
        entry.last_access = now
        entry.expire_time = now + self._hottest_interval
        self._append(index, key, entry)

    def _note_access(self, entry: MQEntry[V]) -> None:
        """Update the hottest-entry tracking described in Section IV-C."""
        hottest = self._hottest
        if hottest is None or entry.popularity >= hottest.popularity:
            self._hottest = hottest = entry
        if entry is hottest and entry.prev_access >= 0:
            interval = entry.last_access - entry.prev_access
            if interval > 0:
                self._hottest_interval = interval

    def _run_demotions(self, now: int) -> None:
        """Demote every queue head whose expiration time has passed.

        Reads the head cache, not the queues: returns at once when no head
        is due, else demotes exactly the due heads in ascending queue order.
        A demoted head lands in a queue already visited, so no entry moves
        twice in one pass.
        """
        due = self._head_due
        if min(due) > now:
            return
        for index in range(1, self._num_queues):
            if due[index] > now:
                continue
            key = self._head_key[index]
            entry = self._head_entry[index]
            del self._queues[index][key]
            self._reseat_head(index)
            entry.queue_index = index - 1
            entry.expire_time = now + self._hottest_interval
            self._append(index - 1, key, entry)
            self.demotions += 1

    # ------------------------------------------------------------------
    # Head cache
    # ------------------------------------------------------------------

    def _reseat_head(self, index: int) -> None:
        """Re-read queue ``index``'s head after the old one left it."""
        queue = self._queues[index]
        if queue:
            key = next(iter(queue))
            entry = self._entries[key]
            self._head_key[index] = key
            self._head_entry[index] = entry
            if index:
                self._head_due[index] = entry.expire_time
        else:
            self._head_key[index] = None
            self._head_entry[index] = None
            self._head_due[index] = _NEVER

    def _append(self, index: int, key: K, entry: MQEntry[V]) -> None:
        """Add ``key`` at queue ``index``'s MRU tail, seating it as the
        head when the queue was empty (``expire_time`` already final)."""
        queue = self._queues[index]
        if not queue:
            self._head_key[index] = key
            self._head_entry[index] = entry
            if index:
                self._head_due[index] = entry.expire_time
        queue[key] = None

    def _unlink(self, key: K, entry: MQEntry[V]) -> None:
        """Delete resident ``key`` from its queue, keeping the cache."""
        index = entry.queue_index
        del self._queues[index][key]
        if entry is self._head_entry[index]:
            self._reseat_head(index)

    def set_capacity(self, capacity: int) -> List[Tuple[K, V]]:
        """Resize the container; shrinking evicts coldest-first.

        Returns the entries evicted to fit the new capacity (empty when
        growing).  Supports the dynamic-capacity extension the paper lists
        as future work (Section V-A, footnote 5).
        """
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self._capacity = capacity
        evicted: List[Tuple[K, V]] = []
        while len(self._entries) > self._capacity:
            victim = self.evict_one()
            if victim is None:
                break
            evicted.append(victim)
        return evicted

    def evict_one(self) -> Optional[Tuple[K, V]]:
        """Evict the LRU head of the lowest non-empty queue."""
        for index, queue in enumerate(self._queues):
            if queue:
                key, _ = queue.popitem(last=False)
                entry = self._entries.pop(key)
                self._reseat_head(index)
                if entry is self._hottest:
                    self._hottest = None
                self.evictions += 1
                return key, entry.payload
        return None

    def remove(self, key: K) -> Optional[V]:
        """Remove ``key`` outright (reuse by a write, or erased by GC)."""
        entry = self._entries.get(key)
        if entry is None:
            return None
        self._unlink(key, entry)
        del self._entries[key]
        if entry is self._hottest:
            self._hottest = None
        return entry.payload

    def check_invariants(self) -> None:
        """Raise ``AssertionError`` on internal inconsistency (test hook)."""
        total = sum(len(q) for q in self._queues)
        assert total == len(self._entries), "queue/entry count mismatch"
        assert total <= self._capacity, "capacity exceeded"
        for index, queue in enumerate(self._queues):
            for key in queue:
                entry = self._entries[key]
                assert entry.queue_index == index, f"stale queue index for {key!r}"
            head = next(iter(queue), None)
            entry = self._entries[head] if queue else None
            assert (
                self._head_key[index] == head
                and self._head_entry[index] is entry
            ), f"stale head cache for queue {index}"
            due = entry.expire_time if entry is not None and index else _NEVER
            assert self._head_due[index] == due, (
                f"stale head expiration for queue {index}"
            )
        assert self._hottest is None or any(
            self._hottest is entry for entry in self._entries.values()
        ), "hottest entry is not resident"
