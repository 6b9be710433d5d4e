"""Unit tests for the adaptive-capacity MQ dead-value pool."""

import pytest

from repro.check import audit
from repro.core.adaptive import AdaptiveMQDeadValuePool
from repro.core.dvp import (
    InfiniteDeadValuePool,
    LBARecencyPool,
    LRUDeadValuePool,
    MQDeadValuePool,
)
from repro.core.hashing import fingerprint_of_value as fp
from repro.core.mq import MultiQueue


class TestMultiQueueResize:
    def test_grow_keeps_entries(self):
        mq = MultiQueue(capacity=4)
        for i in range(4):
            mq.insert(i, i, now=i)
        assert mq.set_capacity(8) == []
        assert len(mq) == 4
        assert mq.capacity == 8

    def test_shrink_evicts_coldest(self):
        mq = MultiQueue(capacity=4, num_queues=4)
        for i in range(4):
            mq.insert(i, i, now=i)
        mq.access(0, now=10)  # key 0 is hot now
        evicted = mq.set_capacity(2)
        assert len(evicted) == 2
        assert len(mq) == 2
        assert 0 in mq  # the hot key survived
        mq.check_invariants()

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            MultiQueue(capacity=4).set_capacity(0)


class TestAdaptiveValidation:
    def test_bad_window(self):
        with pytest.raises(ValueError):
            AdaptiveMQDeadValuePool(100, window=0)

    def test_bad_grow_factor(self):
        with pytest.raises(ValueError):
            AdaptiveMQDeadValuePool(100, grow_factor=1.0)

    def test_initial_outside_clamps(self):
        with pytest.raises(ValueError):
            AdaptiveMQDeadValuePool(
                100, min_entries=200, max_entries=400
            )

    def test_default_clamps(self):
        pool = AdaptiveMQDeadValuePool(512)
        assert pool.min_entries == 64
        assert pool.max_entries == 4096


class TestAdaptation:
    def test_grows_under_pressure(self):
        """A stream of unique garbage far beyond capacity forces evictions,
        which the adaptation converts into capacity growth."""
        pool = AdaptiveMQDeadValuePool(
            128, min_entries=64, max_entries=1024, window=256,
        )
        for i in range(4000):
            pool.insert_garbage(fp(i), i, now=i)
        assert pool.resizes_up > 0
        assert pool.capacity > 128
        assert pool.capacity <= 1024

    def test_never_exceeds_max(self):
        pool = AdaptiveMQDeadValuePool(
            128, min_entries=64, max_entries=256, window=128,
        )
        for i in range(5000):
            pool.insert_garbage(fp(i), i, now=i)
        assert pool.capacity <= 256
        assert len(pool) <= 256

    def test_shrinks_when_idle(self):
        """A pool that stopped evicting and sits half-empty gives RAM back."""
        pool = AdaptiveMQDeadValuePool(
            1024, min_entries=64, max_entries=2048, window=128,
            slack_threshold=0.5,
        )
        # Insert a handful of entries, then a long stream of lookups that
        # never insert (read-mostly phase).
        for i in range(10):
            pool.insert_garbage(fp(i), i, now=i)
        for i in range(2000):
            pool.lookup_for_write(fp(10_000 + i), now=100 + i)
            if i % 10 == 0:
                # occasional insertions keep the window's insert count > 0
                pool.insert_garbage(fp(20_000 + i), 50_000 + i, now=100 + i)
        assert pool.resizes_down > 0
        assert pool.capacity < 1024
        assert pool.capacity >= 64

    def test_popular_entries_survive_shrink(self):
        pool = AdaptiveMQDeadValuePool(
            512, min_entries=64, max_entries=1024, window=64,
            slack_threshold=0.9,
        )
        pool.insert_garbage(fp(777), 777, now=0, popularity=200)
        pool.mq.access(fp(777), 1)
        for i in range(40):
            pool.insert_garbage(fp(i), i, now=2 + i)
        # force idle windows until it shrinks
        for i in range(2000):
            pool.lookup_for_write(fp(90_000 + i), now=50 + i)
            if i % 20 == 0:
                pool.insert_garbage(fp(30_000 + i), 60_000 + i, now=50 + i)
            if pool.resizes_down:
                break
        assert pool.resizes_down > 0
        assert fp(777) in pool

    def test_high_water_telemetry(self):
        pool = AdaptiveMQDeadValuePool(
            128, max_entries=1024, window=128,
        )
        for i in range(4000):
            pool.insert_garbage(fp(i), i, now=i)
        assert pool.capacity_high_water >= pool.capacity
        assert pool.capacity_high_water > 128

    @pytest.mark.parametrize("count", [0, 5, 256, 700])
    def test_skip_missed_lookups_matches_missing_lookups(self, count):
        """On every pool kind, skipping ``count`` misses on an empty pool
        leaves the stats, the window, the capacity and the resize
        telemetry as ``count`` real misses do, also when the open window
        already holds an insertion (the pool emptied again since)."""
        def state(pool):
            return (pool.stats, len(pool)) + tuple(
                getattr(pool, name, None)
                for name in ("_window_events", "_window_insertions",
                             "_window_evictions", "capacity",
                             "resizes_up", "resizes_down")
            )

        pools = {
            "infinite": InfiniteDeadValuePool,
            "lru": lambda: LRUDeadValuePool(128),
            "mq": lambda: MQDeadValuePool(128),
            "lba-recency": lambda: LBARecencyPool(128),
            "adaptive": lambda: AdaptiveMQDeadValuePool(
                128, min_entries=64, window=256
            ),
        }
        for kind, make in pools.items():
            for pending in (0, 1):
                looked, skipped = make(), make()
                for pool in (looked, skipped):
                    for i in range(pending):
                        pool.insert_garbage(fp(10_000 + i), i, now=i, lpn=i)
                        assert pool.discard_ppn(fp(10_000 + i), i)
                for i in range(count):
                    assert looked.lookup_for_write(fp(i), now=i) is None
                skipped.skip_missed_lookups(count)
                assert state(skipped) == state(looked), (kind, pending)


class TestFactoryIntegration:
    def test_adaptive_system_runs(self, tiny_config):
        from repro.ftl.dvp_ftl import build_system

        ftl = build_system("adaptive-dvp", tiny_config, 512)
        ws = tiny_config.logical_pages // 2
        for i in range(tiny_config.total_pages * 2):
            ftl.write(i % ws, fp(i % 40))
        assert not audit(ftl)
        assert ftl.counters.short_circuits > 0
