"""Unit tests for the trace cache and the prefill snapshot cache."""

from dataclasses import replace

import pytest

from repro.core.hashing import fingerprint_of_value
from repro.experiments.runner import (
    config_for_profile,
    prefill,
    scaled_pool_entries,
)
from repro.ftl.dvp_ftl import build_system
from repro.perf.snapshot import PrefillCache
from repro.perf.trace_cache import TraceCache, profile_cache_key
from repro.traces.synthetic import generate_trace

from ..conftest import make_profile


class TestProfileCacheKey:
    def test_equal_profiles_equal_keys(self):
        assert profile_cache_key(make_profile()) == profile_cache_key(
            make_profile()
        )

    def test_any_field_changes_key(self):
        base = profile_cache_key(make_profile())
        assert profile_cache_key(make_profile(seed=8)) != base
        assert profile_cache_key(make_profile(num_requests=4001)) != base


class TestTraceCache:
    def test_miss_then_hit_same_object(self):
        cache = TraceCache()
        profile = make_profile()
        first = cache.get(profile)
        second = cache.get(profile)
        assert first is second
        assert (cache.hits, cache.misses) == (1, 1)

    def test_cached_trace_matches_direct_generation(self):
        profile = make_profile()
        assert list(TraceCache().get(profile)) == generate_trace(profile)

    def test_seed_is_part_of_the_key(self):
        cache = TraceCache()
        a = cache.get(make_profile(seed=1))
        b = cache.get(make_profile(seed=2))
        assert cache.misses == 2
        assert a != b

    def test_lru_eviction(self):
        cache = TraceCache(max_entries=1)
        cache.get(make_profile(seed=1))
        cache.get(make_profile(seed=2))
        assert len(cache) == 1
        cache.get(make_profile(seed=1))  # evicted -> regenerated
        assert cache.misses == 3

    def test_disk_tier_survives_memory_clear(self, tmp_path):
        cache = TraceCache(disk_dir=str(tmp_path))
        profile = make_profile()
        first = cache.get(profile)
        cache.clear()
        second = cache.get(profile)
        assert first is not second
        assert first == second
        assert cache.hits == 1  # served from disk, not regenerated

    def test_rejects_nonpositive_bound(self):
        with pytest.raises(ValueError):
            TraceCache(max_entries=0)


def _prefilled_directly(system, profile):
    config = config_for_profile(profile)
    ftl = build_system(system, config, scaled_pool_entries(200_000, 0.02))
    prefill(ftl, profile)
    return ftl


def _churn(ftl):
    """Touch every table a snapshot holds: writes of new content (mapping,
    array, OOB columns, fingerprint, popularity and dedup live index),
    trims, then in-place edits of the content tables themselves."""
    for lpn in range(0, 120, 3):
        ftl.write(lpn, fingerprint_of_value(10**9 + lpn))
        ftl.trim(lpn + 1)
    ftl._ppn_fp.clear()
    ftl._write_popularity.clear()
    ftl._oob_trims.clear()
    ftl._oob_lpns[0] = ftl._oob_seqs[0] = 12345
    if ftl._live_index is not None:
        ftl._live_index.clear()


def _prefill_state(ftl):
    """Every table a prefill snapshot captures, by value."""
    return {
        "forward": ftl.mapping.forward_items(),
        "l2p": list(ftl.mapping._l2p),
        "owner": list(ftl.mapping._owner),
        "popularity_bytes": bytes(ftl.mapping._pop),
        "blocks": [(bytes(b.states), b.write_pointer, b.valid_count,
                    b.invalid_count) for b in ftl.array.blocks],
        "free_blocks": [list(q) for q in ftl.allocator.free_blocks],
        "write_clock": ftl.write_clock,
        "oob": list(ftl.oob_records()),
        "oob_seq": ftl._oob_seq,
        "oob_trims": dict(ftl._oob_trims),
        "ppn_fp": dict(ftl._ppn_fp),
        "write_popularity": dict(ftl._write_popularity),
        "live_index": (
            None if ftl._live_index is None else dict(ftl._live_index)
        ),
        "counters": ftl.counters,
    }


class TestPrefillCache:
    PROFILE = make_profile(working_set_pages=300, num_requests=1000)

    def _system(self, cache, system):
        return cache.prefilled_system(
            system,
            config_for_profile(self.PROFILE),
            self.PROFILE,
            scaled_pool_entries(200_000, 0.02),
        )

    def test_family_sharing_hits(self):
        cache = PrefillCache()
        self._system(cache, "baseline")
        self._system(cache, "mq-dvp")   # same BaseFTL family -> restore
        self._system(cache, "lru-dvp")
        assert (cache.hits, cache.misses) == (2, 1)

    def test_dedup_is_a_separate_family(self):
        cache = PrefillCache()
        self._system(cache, "baseline")
        self._system(cache, "dedup")
        assert cache.misses == 2
        self._system(cache, "dvp+dedup")
        assert cache.hits == 1

    def test_restored_state_matches_direct_prefill(self):
        cache = PrefillCache()
        self._system(cache, "baseline")          # seeds the snapshot
        restored = self._system(cache, "mq-dvp")  # restore path
        direct = _prefilled_directly("mq-dvp", self.PROFILE)
        assert restored.mapping.forward_items() == direct.mapping.forward_items()
        assert restored.mapping._pop == direct.mapping._pop
        assert restored.write_clock == direct.write_clock
        assert restored.counters == direct.counters
        restored.check_invariants()

    def test_restored_systems_do_not_share_state(self):
        """Neither a restored system nor the FTL that was captured shares a
        table with the snapshot: mutating either leaves the next restore
        equal to a direct prefill.  Both families: dedup adds its live
        index."""
        for family in ("baseline", "dedup"):
            cache = PrefillCache()
            captured = self._system(cache, family)   # prefills, captures
            _churn(captured)                         # mutate after capture
            a = self._system(cache, family)
            b = self._system(cache, family)
            for name in ("mapping", "array", "_ppn_fp", "_write_popularity",
                         "_oob_lpns", "_oob_seqs", "_oob_trims"):
                assert getattr(a, name) is not getattr(b, name), name
            if family == "dedup":
                assert a._live_index is not b._live_index
            _churn(a)
            direct = _prefilled_directly(family, self.PROFILE)
            assert _prefill_state(self._system(cache, family)) == (
                _prefill_state(direct)
            ), family
            assert _prefill_state(b) == _prefill_state(direct), family

    def test_gc_rebound_to_restored_array(self):
        cache = PrefillCache()
        self._system(cache, "baseline")
        restored = self._system(cache, "baseline")
        assert restored.gc.array is restored.array
        assert restored.gc.allocator is restored.allocator
        assert restored.wear.array is restored.array

    def test_lru_eviction_bound(self):
        cache = PrefillCache(max_entries=1)
        self._system(cache, "baseline")
        self._system(cache, "dedup")     # evicts the BaseFTL snapshot
        assert len(cache) == 1
        self._system(cache, "baseline")  # must re-prefill
        assert cache.misses == 3
