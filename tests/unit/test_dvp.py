"""Unit tests for the dead-value pool variants."""

import pytest

from repro.core.dvp import (
    InfiniteDeadValuePool,
    LBARecencyPool,
    LRUDeadValuePool,
    MQDeadValuePool,
)
from repro.core.hashing import fingerprint_of_value as fp
from repro.core.mq import queue_index_for_popularity


BOUNDED_POOLS = [
    lambda: LRUDeadValuePool(4),
    lambda: MQDeadValuePool(4),
    lambda: LBARecencyPool(4),
]
ALL_POOLS = BOUNDED_POOLS + [InfiniteDeadValuePool]


@pytest.mark.parametrize("make_pool", ALL_POOLS)
class TestCommonProtocol:
    def test_miss_on_empty(self, make_pool):
        pool = make_pool()
        assert pool.lookup_for_write(fp(1), now=1) is None
        assert pool.stats.misses == 1

    def test_insert_then_hit_returns_ppn(self, make_pool):
        pool = make_pool()
        pool.insert_garbage(fp(1), ppn=100, now=1, lpn=0)
        assert pool.lookup_for_write(fp(1), now=2) == 100
        assert pool.stats.hits == 1

    def test_hit_consumes_the_entry(self, make_pool):
        pool = make_pool()
        pool.insert_garbage(fp(1), ppn=100, now=1, lpn=0)
        assert pool.lookup_for_write(fp(1), now=2) == 100
        assert pool.lookup_for_write(fp(1), now=3) is None

    def test_contains(self, make_pool):
        pool = make_pool()
        assert fp(1) not in pool
        pool.insert_garbage(fp(1), ppn=100, now=1, lpn=0)
        assert fp(1) in pool

    def test_discard_ppn(self, make_pool):
        pool = make_pool()
        pool.insert_garbage(fp(1), ppn=100, now=1, lpn=0)
        assert pool.discard_ppn(fp(1), 100) is True
        assert fp(1) not in pool
        assert pool.stats.gc_removals == 1

    def test_discard_unknown_ppn(self, make_pool):
        pool = make_pool()
        assert pool.discard_ppn(fp(9), 999) is False


@pytest.mark.parametrize("make_pool", BOUNDED_POOLS)
class TestCapacity:
    def test_never_exceeds_capacity(self, make_pool):
        pool = make_pool()
        for i in range(20):
            pool.insert_garbage(fp(i), ppn=i, now=i, lpn=i)
            assert len(pool) <= 4

    def test_eviction_reports_dropped_ppns(self, make_pool):
        pool = make_pool()
        dropped = []
        for i in range(20):
            dropped += pool.insert_garbage(fp(i), ppn=i, now=i, lpn=i)
        assert len(dropped) == 16
        assert pool.stats.evicted_ppns >= 16


class TestInfinitePool:
    def test_tracks_multiple_ppns_per_value(self):
        pool = InfiniteDeadValuePool()
        pool.insert_garbage(fp(1), 10, now=1)
        pool.insert_garbage(fp(1), 11, now=2)
        assert pool.tracked_ppn_count() == 2
        first = pool.lookup_for_write(fp(1), now=3)
        second = pool.lookup_for_write(fp(1), now=4)
        assert {first, second} == {10, 11}
        assert first == 11  # freshest copy first (LIFO)

    def test_never_evicts(self):
        pool = InfiniteDeadValuePool()
        for i in range(10_000):
            pool.insert_garbage(fp(i), i, now=i)
        assert len(pool) == 10_000
        assert pool.stats.evictions == 0

    def test_discard_specific_ppn_keeps_others(self):
        pool = InfiniteDeadValuePool()
        pool.insert_garbage(fp(1), 10, now=1)
        pool.insert_garbage(fp(1), 11, now=2)
        pool.discard_ppn(fp(1), 10)
        assert fp(1) in pool
        assert pool.lookup_for_write(fp(1), now=3) == 11


class TestLRUPool:
    def test_evicts_least_recently_touched(self):
        pool = LRUDeadValuePool(2)
        pool.insert_garbage(fp(1), 1, now=1)
        pool.insert_garbage(fp(2), 2, now=2)
        pool.insert_garbage(fp(1), 11, now=3)   # refreshes fp(1)
        pool.insert_garbage(fp(3), 3, now=4)    # evicts fp(2)
        assert fp(2) not in pool
        assert fp(1) in pool and fp(3) in pool

    def test_eviction_drops_all_ppns_of_entry(self):
        pool = LRUDeadValuePool(1)
        pool.insert_garbage(fp(1), 1, now=1)
        pool.insert_garbage(fp(1), 2, now=2)
        dropped = pool.insert_garbage(fp(2), 3, now=3)
        assert sorted(dropped) == [1, 2]

    def test_hit_rate(self):
        pool = LRUDeadValuePool(4)
        pool.insert_garbage(fp(1), 1, now=1)
        pool.lookup_for_write(fp(1), now=2)
        pool.lookup_for_write(fp(2), now=3)
        assert pool.stats.hit_rate == 0.5

    def test_eviction_order_is_lru(self):
        pool = LRUDeadValuePool(2)
        pool.insert_garbage(fp(1), 1, now=1)
        pool.insert_garbage(fp(2), 2, now=2)
        assert pool.insert_garbage(fp(3), 3, now=3) == [1]
        assert fp(1) not in pool

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            LRUDeadValuePool(0)

    def test_lookup_refreshes_recency(self):
        pool = LRUDeadValuePool(2)
        pool.insert_garbage(fp(1), 1, now=1)
        pool.insert_garbage(fp(1), 11, now=2)
        pool.insert_garbage(fp(2), 2, now=3)
        assert pool.lookup_for_write(fp(1), now=4) == 11  # fp(1) stays
        assert pool.insert_garbage(fp(3), 3, now=5) == [2]
        assert fp(1) in pool and fp(2) not in pool

    def test_discard_does_not_refresh(self):
        pool = LRUDeadValuePool(2)
        pool.insert_garbage(fp(1), 1, now=1)
        pool.insert_garbage(fp(1), 11, now=2)
        pool.insert_garbage(fp(2), 2, now=3)
        assert pool.discard_ppn(fp(1), 11)
        assert pool.insert_garbage(fp(3), 3, now=4) == [1]

    def test_tracked_items_cold_to_hot(self):
        pool = LRUDeadValuePool(3)
        pool.insert_garbage(fp(1), 1, now=1)
        pool.insert_garbage(fp(2), 2, now=2)
        pool.insert_garbage(fp(1), 11, now=3)
        assert list(pool.tracked_items()) == [
            (fp(2), 2), (fp(1), 1), (fp(1), 11)
        ]
        assert pool.tracked_ppn_count() == 3


class TestMQPool:
    def test_popular_value_survives_unpopular_flood(self):
        """The defining MQ property: a high-popularity entry outlives a
        stream of popularity-1 insertions that would flush plain LRU."""
        pool = MQDeadValuePool(8, num_queues=4)
        pool.insert_garbage(fp(999), 999, now=0, popularity=50)
        pool.mq.access(fp(999), 1)  # climb out of Q0
        lru = LRUDeadValuePool(8)
        lru.insert_garbage(fp(999), 999, now=0, popularity=50)
        for i in range(100):
            pool.insert_garbage(fp(i), i, now=2 + i, popularity=1)
            lru.insert_garbage(fp(i), i, now=2 + i, popularity=1)
        assert fp(999) in pool      # MQ kept the popular dead value
        assert fp(999) not in lru   # LRU flushed it

    def test_multiple_ppns_reuse_lifo(self):
        pool = MQDeadValuePool(8)
        pool.insert_garbage(fp(1), 10, now=1)
        pool.insert_garbage(fp(1), 11, now=2)
        assert pool.lookup_for_write(fp(1), now=3) == 11
        assert fp(1) in pool
        assert pool.lookup_for_write(fp(1), now=4) == 10
        assert fp(1) not in pool

    def test_reinsert_promotes(self):
        pool = MQDeadValuePool(8, num_queues=4)
        pool.insert_garbage(fp(1), 10, now=1, popularity=1)
        pool.insert_garbage(fp(1), 11, now=2, popularity=2)
        assert pool.mq.entry(fp(1)).popularity >= 2

    def test_tracked_ppn_count(self):
        pool = MQDeadValuePool(8)
        pool.insert_garbage(fp(1), 10, now=1)
        pool.insert_garbage(fp(1), 11, now=2)
        pool.insert_garbage(fp(2), 20, now=3)
        assert pool.tracked_ppn_count() == 3


class TestLBARecencyPool:
    def test_requires_lpn(self):
        pool = LBARecencyPool(4)
        with pytest.raises(ValueError):
            pool.insert_garbage(fp(1), 1, now=1)

    def test_hot_lba_overwrites_slot(self):
        """The scalability flaw the paper critiques: one slot per LBA, so a
        second death at the same address silently drops the earlier value."""
        pool = LBARecencyPool(4)
        pool.insert_garbage(fp(1), 1, now=1, lpn=5)
        dropped = pool.insert_garbage(fp(2), 2, now=2, lpn=5)
        assert dropped == [1]
        assert fp(1) not in pool
        assert fp(2) in pool

    def test_popular_entry_gets_second_chance(self):
        pool = LBARecencyPool(2, popularity_threshold=4)
        pool.insert_garbage(fp(1), 1, now=1, lpn=1, popularity=10)
        pool.insert_garbage(fp(2), 2, now=2, lpn=2, popularity=1)
        pool.insert_garbage(fp(3), 3, now=3, lpn=3, popularity=1)
        # fp(1) was LRU but popular: second chance pushed eviction to fp(2).
        assert fp(1) in pool
        assert fp(2) not in pool

    def test_lookup_by_content_across_lbas(self):
        pool = LBARecencyPool(4)
        pool.insert_garbage(fp(7), 70, now=1, lpn=1)
        pool.insert_garbage(fp(7), 71, now=2, lpn=2)
        hit = pool.lookup_for_write(fp(7), now=3)
        assert hit in (70, 71)
        assert fp(7) in pool  # the other LBA's copy remains


class TestMQPopularityRestore:
    """Regression: a popular value re-entering the pool must have its
    persisted popularity restored via ``MultiQueue.set_popularity`` so it
    lands in queue ``floor(log2(popularity + 1))``, not back in Q0."""

    def test_reinsert_lands_in_log2_queue(self):
        pool = MQDeadValuePool(64, num_queues=8)
        popularity = 12  # floor(log2(13)) == 3
        pool.insert_garbage(fp(1), ppn=100, now=1, popularity=popularity)
        entry = pool.mq.entry(fp(1))
        expected = queue_index_for_popularity(popularity, 8)
        assert expected == 3
        assert entry.popularity == popularity
        assert entry.queue_index == expected
        assert fp(1) in pool.mq.keys_in_queue(expected)

    def test_queue_clamped_to_available_queues(self):
        pool = MQDeadValuePool(64, num_queues=4)
        pool.insert_garbage(fp(1), ppn=100, now=1, popularity=255)
        assert pool.mq.entry(fp(1)).queue_index == 3

    def test_unpopular_value_still_starts_in_q0(self):
        pool = MQDeadValuePool(64, num_queues=8)
        pool.insert_garbage(fp(1), ppn=100, now=1, popularity=1)
        assert pool.mq.entry(fp(1)).queue_index == 0

    def test_persisted_popularity_outrunning_refcount_syncs(self):
        """A resident entry whose persisted popularity overtook the MQ
        reference count (the value kept being written while its garbage
        sat in the pool) is re-placed at the persisted level."""
        pool = MQDeadValuePool(64, num_queues=8)
        pool.insert_garbage(fp(1), ppn=100, now=1, popularity=1)
        pool.insert_garbage(fp(1), ppn=101, now=2, popularity=40)
        entry = pool.mq.entry(fp(1))
        assert entry.popularity == 40
        assert entry.queue_index == queue_index_for_popularity(40, 8)


@pytest.mark.parametrize(
    "make_pool",
    [InfiniteDeadValuePool, lambda: LRUDeadValuePool(8),
     lambda: MQDeadValuePool(8)],
)
class TestRevivalOrder:
    """The O(1) PPN structure must preserve LIFO revival order: the
    freshest dead copy is revived first, even after GC discards."""

    def test_lifo_order(self, make_pool):
        pool = make_pool()
        for ppn in (10, 11, 12):
            pool.insert_garbage(fp(1), ppn, now=ppn, lpn=0)
        assert pool.lookup_for_write(fp(1), now=20) == 12
        assert pool.lookup_for_write(fp(1), now=21) == 11
        assert pool.lookup_for_write(fp(1), now=22) == 10

    def test_order_preserved_across_discard(self, make_pool):
        pool = make_pool()
        for ppn in (10, 11, 12):
            pool.insert_garbage(fp(1), ppn, now=ppn, lpn=0)
        assert pool.discard_ppn(fp(1), 11) is True
        assert pool.lookup_for_write(fp(1), now=20) == 12
        assert pool.lookup_for_write(fp(1), now=21) == 10

    def test_discard_untracked_ppn_is_noop(self, make_pool):
        pool = make_pool()
        pool.insert_garbage(fp(1), 10, now=1, lpn=0)
        assert pool.discard_ppn(fp(1), 99) is False
        assert pool.lookup_for_write(fp(1), now=2) == 10


class TestLBADeterminism:
    """Regression: revival picked ``next(iter(set))`` — an arbitrary LBA —
    so revived PPNs could differ between runs of the same trace."""

    def test_picks_most_recently_inserted_lba(self):
        pool = LBARecencyPool(16)
        # Hash-slot order of {8, 1} differs from insertion order, so the
        # old arbitrary-set-pick returns 80 here instead of 10.
        pool.insert_garbage(fp(7), 80, now=1, lpn=8)
        pool.insert_garbage(fp(7), 10, now=2, lpn=1)
        assert pool.lookup_for_write(fp(7), now=3) == 10
        assert pool.lookup_for_write(fp(7), now=4) == 80

    def test_repeat_run_revival_sequence_identical(self):
        def run():
            pool = LBARecencyPool(32)
            revived = []
            for step in range(200):
                lpn = (step * 7) % 24
                pool.insert_garbage(fp(step % 5), 1000 + step, now=step,
                                    lpn=lpn)
                if step % 3 == 0:
                    hit = pool.lookup_for_write(fp(step % 5), now=step)
                    if hit is not None:
                        revived.append(hit)
            return revived

        first = run()
        assert first == run()
        assert first  # the scenario actually revives pages

    def test_reinserted_lba_counts_as_freshest(self):
        pool = LBARecencyPool(16)
        pool.insert_garbage(fp(7), 70, now=1, lpn=1)
        pool.insert_garbage(fp(7), 80, now=2, lpn=8)
        # LBA 1 dies again with the same content: it becomes the freshest.
        pool.insert_garbage(fp(7), 71, now=3, lpn=1)
        assert pool.lookup_for_write(fp(7), now=4) == 71


class TestLBAStatsConsistency:
    """Regression: hot-LBA overwrites bumped ``evicted_ppns`` but not
    ``evictions``, diverging from every other pool's semantics."""

    def test_overwrite_counts_as_eviction(self):
        pool = LBARecencyPool(8)
        pool.insert_garbage(fp(1), 1, now=1, lpn=5)
        pool.insert_garbage(fp(2), 2, now=2, lpn=5)
        assert pool.stats.evictions == 1
        assert pool.stats.evicted_ppns == 1

    def test_counters_stay_in_lockstep(self):
        pool = LBARecencyPool(4)
        for step in range(32):
            pool.insert_garbage(fp(step), step, now=step, lpn=step % 6)
        assert pool.stats.evictions == pool.stats.evicted_ppns
        assert pool.stats.evictions > 0
