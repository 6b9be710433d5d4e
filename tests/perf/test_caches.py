"""Unit tests for the trace cache and the prefill snapshot cache."""

from dataclasses import replace

import pytest

from repro.core.adaptive import AdaptiveMQDeadValuePool
from repro.core.hashing import fingerprint_of_value
from repro.experiments.config import RunConfig
from repro.experiments.runner import (
    ExperimentContext,
    config_for_profile,
    prefill,
    run_matrix,
    run_system,
    scaled_pool_entries,
)
from repro.ftl.dftl import TranslationStats
from repro.ftl.dvp_ftl import SYSTEMS, build_system
from repro.ftl.ftl import BaseFTL
from repro.perf import snapshot
from repro.perf.parallel import run_specs
from repro.perf.snapshot import PrefillCache, default_prefill_cache, prefill_key
from repro.perf.spec import RunSpec, execute_spec, result_digest
from repro.perf.trace_cache import TraceCache, profile_cache_key
from repro.traces.synthetic import generate_trace, initial_value_of

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
        assert TraceCache().get(profile) == generate_trace(profile)

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


class TestTraceCacheDamage:
    """A damaged disk entry is a miss: the trace is regenerated and the
    entry rewritten, never a crash or a wrong trace."""

    @staticmethod
    def _damaged(tmp_path, damage):
        profile = make_profile(num_requests=500)
        TraceCache(disk_dir=str(tmp_path)).get(profile)
        (path,) = tmp_path.iterdir()
        path.write_bytes(damage(path.read_bytes()))
        cache = TraceCache(disk_dir=str(tmp_path))
        trace = cache.get(profile)
        assert (cache.hits, cache.misses) == (0, 1)
        assert trace == generate_trace(profile)
        fresh = TraceCache(disk_dir=str(tmp_path))
        assert fresh.get(profile) == trace  # the entry was rewritten
        assert (fresh.hits, fresh.misses) == (1, 0)

    def test_truncated_entry_is_a_miss(self, tmp_path):
        self._damaged(tmp_path, lambda blob: blob[: len(blob) // 2])

    def test_bit_flipped_entry_is_a_miss(self, tmp_path):
        def flip(blob):
            # A low mantissa bit of the first arrival time, just past the
            # header: the entry keeps its length and still decodes.
            at = blob.index(b"\n") + 1
            return blob[:at] + bytes([blob[at] ^ 1]) + blob[at + 1:]

        self._damaged(tmp_path, flip)

    def test_wrong_version_entry_is_a_miss(self, tmp_path):
        self._damaged(
            tmp_path, lambda blob: blob.replace(b"repro-trace/v3", b"repro-trace/v2", 1)
        )


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
            None if ftl._live_index is None else list(ftl._live_index.items())
        ),
        "cmt": _cmt_state(ftl.translation),
        "pool": _pool_state(ftl.pool),
        "counters": ftl.counters,
    }


def _cmt_state(translation):
    """DFTL's cached mapping table: entry order with dirty flags, the
    dirty set per translation page, and the statistics."""
    if translation is None:
        return None
    return (
        list(translation._entries.items()),
        list(translation._dirty_pages.items()),
        translation.stats,
    )


def _pool_state(pool):
    """A pool's size and statistics, plus an adaptive pool's window."""
    if pool is None:
        return None
    window = None
    if isinstance(pool, AdaptiveMQDeadValuePool):
        window = (pool._window_events, pool._window_insertions,
                  pool._window_evictions, pool.capacity)
    return len(pool), pool.stats, window


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

    def test_every_system_shares_one_snapshot(self):
        """The key is (config, profile) only: every FTL family restores
        the one snapshot the first prefill captured."""
        cache = PrefillCache()
        for system in SYSTEMS:
            self._system(cache, system)
        assert (cache.hits, cache.misses) == (len(SYSTEMS) - 1, 1)
        assert len(cache) == 1

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
        """Every system restored from a snapshot another system captured
        equals a direct prefill: FTL tables, dedup live index, CMT order,
        dirty set and stats, adaptive window.  Neither a restored system
        nor the captured FTL shares a table with the snapshot: mutating
        either leaves the next restore equal to a direct prefill."""
        names = sorted(SYSTEMS)
        for system, captor in zip(names, names[1:] + names[:1]):
            cache = PrefillCache()
            captured = self._system(cache, captor)   # prefills, captures
            _churn(captured)                         # mutate after capture
            a = self._system(cache, system)
            b = self._system(cache, system)
            assert cache.hits == 2, system
            for name in ("mapping", "array", "_ppn_fp", "_write_popularity",
                         "_oob_lpns", "_oob_seqs", "_oob_trims"):
                assert getattr(a, name) is not getattr(b, name), (system, name)
            if a._live_index is not None:
                assert a._live_index is not b._live_index, system
            if a.translation is not None:
                assert a.translation._entries is not b.translation._entries
            _churn(a)
            direct = _prefill_state(_prefilled_directly(system, self.PROFILE))
            assert _prefill_state(self._system(cache, system)) == direct, system
            assert _prefill_state(b) == direct, system

    @pytest.mark.parametrize("system", ["dftl-baseline", "dftl-mq-dvp"])
    def test_preconditioning_zeroes_cmt_stats(self, system):
        """Direct and restored prefills both leave the CMT holding the
        prefill's entries with zeroed statistics, so a run's hit rate
        covers only the trace."""
        cache = PrefillCache()
        direct = self._system(cache, system)
        restored = self._system(cache, system)
        for ftl in (direct, restored):
            assert len(ftl.translation) > 0
            assert ftl.translation.stats == TranslationStats()

    def test_gc_rebound_to_restored_array(self):
        cache = PrefillCache()
        self._system(cache, "baseline")
        restored = self._system(cache, "baseline")
        # The collector holds no array or allocator of its own: each pass
        # reads them from the FTL it collects for, so only the wear
        # tracker needs rebinding.
        assert not hasattr(restored.gc, "array")
        assert not hasattr(restored.gc, "allocator")
        assert restored.wear.array is restored.array

    def test_unknown_subclass_prefills_directly(self, monkeypatch):
        """A BaseFTL subclass the cache cannot vouch for is never captured
        nor restored: it may carry state a restore cannot rebuild."""

        class CustomFTL(BaseFTL):
            pass

        monkeypatch.setitem(SYSTEMS, "custom", lambda cfg, n: CustomFTL(cfg))
        cache = PrefillCache()
        self._system(cache, "baseline")
        ftl = self._system(cache, "custom")
        assert type(ftl) is CustomFTL
        assert (cache.hits, cache.misses) == (0, 1)
        assert _prefill_state(ftl) == _prefill_state(
            _prefilled_directly("baseline", self.PROFILE)
        )
        assert not cache.warm(
            "custom", config_for_profile(self.PROFILE), self.PROFILE, 0
        )

    def test_lru_eviction_bound(self):
        other = make_profile(working_set_pages=300, num_requests=1000, seed=8)
        cache = PrefillCache(max_entries=1)
        self._system(cache, "baseline")
        cache.prefilled_system(       # another profile evicts the first
            "dedup", config_for_profile(other), other,
            scaled_pool_entries(200_000, 0.02),
        )
        assert len(cache) == 1
        self._system(cache, "dedup")  # must re-prefill
        assert (cache.hits, cache.misses) == (0, 3)


class TestPlannedPrefill:
    """``run_specs`` plans each batch: a snapshot is captured only while a
    planned cell will restore it and leaves the cache at its last planned
    restore.  Direct ``run_system`` calls stay unplanned."""

    SCALE = 0.02
    DESKTOP = ("baseline", "mq-dvp", "dedup")

    @pytest.fixture(autouse=True)
    def captures(self, monkeypatch):
        """A fresh process cache; returns the list of this process's
        snapshot captures (a forked worker appends to its own copy)."""
        monkeypatch.setattr(snapshot, "_default", PrefillCache())
        calls = []
        capture = snapshot._capture

        def counted(ftl, pages):
            calls.append(pages)
            return capture(ftl, pages)

        monkeypatch.setattr(snapshot, "_capture", counted)
        return calls

    def _specs(self, cells):
        return [RunSpec(workload, system, scale=self.SCALE)
                for workload, system in cells]

    @staticmethod
    def _state():
        cache = default_prefill_cache()
        return len(cache), cache.hits, cache.misses

    def test_single_cell_batch_captures_nothing(self, captures):
        (spec,) = self._specs([("mail", "mq-dvp")])
        (result,) = run_specs([spec], jobs=1)
        assert captures == []
        assert self._state() == (0, 0, 1)
        assert result_digest(result) == result_digest(
            execute_spec(spec, reuse_prefill=False)
        )

    def test_shared_key_released_at_last_restore(self, captures):
        run_specs(self._specs(("desktop", s) for s in self.DESKTOP), jobs=1)
        assert len(captures) == 1
        assert self._state() == (0, 2, 1)

    def test_last_restore_takes_the_tables(self):
        """The last planned restore owns the snapshot's content tables:
        no other FTL shares them, and churning the others leaves it equal
        to a direct prefill."""
        profile = TestPrefillCache.PROFILE
        config = config_for_profile(profile)
        entries = scaled_pool_entries(200_000, 0.02)
        cache = PrefillCache()
        key = prefill_key(config, profile)
        ftls = []
        with cache.planned([key] * len(self.DESKTOP)):
            for system in self.DESKTOP:
                tables = cache._snaps[key][1] if key in cache._snaps else None
                ftls.append(
                    cache.prefilled_system(system, config, profile, entries)
                )
        assert len(cache) == 0
        last = ftls[-1]
        for name in ("_ppn_fp", "_write_popularity"):
            assert getattr(last, name) is tables[name]
            assert len({id(getattr(ftl, name)) for ftl in ftls}) == 3
        for ftl in ftls[:-1]:
            _churn(ftl)
        assert _prefill_state(last) == _prefill_state(
            _prefilled_directly(self.DESKTOP[2], profile)
        )

    def test_unplanned_runs_keep_the_snapshot(self, captures):
        context = ExperimentContext.for_workload("mail", self.SCALE)
        for system in ("baseline", "mq-dvp"):
            run_system(system, context)
        assert len(captures) == 1
        assert self._state() == (1, 1, 1)

    def test_one_cell_cli_run_captures_nothing(self, captures, capsys):
        from repro.cli import main

        assert main([
            "run", "--workload", "mail", "--system", "mq-dvp",
            "--scale", str(self.SCALE), "--json",
        ]) == 0
        assert captures == []
        assert self._state() == (0, 0, 1)

    def test_serial_matrix_releases_each_snapshot(self, captures):
        serial = run_matrix(
            ["web"], self.DESKTOP, config=RunConfig(scale=self.SCALE, jobs=1)
        )
        assert len(captures) == 1
        assert self._state() == (0, 2, 1)
        parallel = run_matrix(
            ["web"], self.DESKTOP, config=RunConfig(scale=self.SCALE, jobs=2)
        )
        assert [result_digest(r) for r in serial["web"].values()] == [
            result_digest(r) for r in parallel["web"].values()
        ]

    def test_pool_single_cell_keys_prefill_in_workers(self, captures):
        specs = self._specs([("mail", "mq-dvp"), ("web", "baseline")])
        parallel = run_specs(specs, jobs=2)
        assert captures == []
        assert self._state() == (0, 0, 0)
        serial = run_specs(specs, jobs=1)
        assert [result_digest(r) for r in parallel] == [
            result_digest(r) for r in serial
        ]

    def test_pool_shared_key_warms_once(self, captures):
        specs = self._specs([("mail", "baseline"), ("mail", "mq-dvp")])
        parallel = run_specs(specs, jobs=2)
        assert len(captures) == 1
        assert self._state() == (1, 0, 1)
        serial = run_specs(specs, jobs=1)
        assert [result_digest(r) for r in parallel] == [
            result_digest(r) for r in serial
        ]


def test_prefill_skips_the_intern_cache():
    """Prefill's one-shot initial values never enter the fingerprint
    intern LRU, and equal the interned fingerprints of the same ids."""
    profile = make_profile(working_set_pages=300, num_requests=1000)
    ftl = build_system("baseline", config_for_profile(profile), 0)
    # Every profile's initial values are the same ids, so an earlier
    # interning prefill would hide a new one: start from an empty cache.
    fingerprint_of_value.cache_clear()
    pages = prefill(ftl, profile)
    assert fingerprint_of_value.cache_info().currsize == 0
    assert pages == profile.total_pages
    assert [ftl._ppn_fp[ftl.mapping.lookup(lpn)] for lpn in range(pages)] == [
        fingerprint_of_value(initial_value_of(lpn)) for lpn in range(pages)
    ]
