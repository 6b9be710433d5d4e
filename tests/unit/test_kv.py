"""Unit tests for the KV translation layer (requests, inline packing,
store) and the keyed workload zoo."""

import itertools
import random

import pytest

from repro.kv.inline import InlinePacker, InlineSlot, pack_value_id
from repro.kv.requests import KVOp, KVRequest, key_to_int, mix64
from repro.kv.store import KVStore, page_value_id
from repro.kv.zoo import (
    KV_WORKLOADS,
    KVWorkload,
    interleave_kv_tenants,
    kv_workload,
    load_stream,
    txn_stream,
)
from repro.sim.request import IORequest, OpType


class TestKeyMixing:
    def test_mix64_is_deterministic_and_64bit(self):
        assert mix64(0) == mix64(0)
        assert 0 <= mix64(123456789) < (1 << 64)
        # Distinct small ints spread apart (the finaliser's whole point).
        assert len({mix64(i) for i in range(1000)}) == 1000

    def test_string_keys_avoid_builtin_hash(self):
        # sha256-based: a fixed value across processes and runs.
        assert key_to_int("user/42") == key_to_int("user/42")
        assert key_to_int("user/42") != key_to_int("user/43")

    def test_int_and_str_namespaces_do_not_trivially_collide(self):
        assert key_to_int(7) != key_to_int("7")

    def test_invalid_keys(self):
        with pytest.raises(TypeError):
            key_to_int(3.5)
        with pytest.raises(TypeError):
            key_to_int(True)
        with pytest.raises(ValueError):
            key_to_int(-1)

    def test_request_validation(self):
        with pytest.raises(ValueError, match="PUT requires"):
            KVRequest(0.0, KVOp.PUT, 1)
        with pytest.raises(ValueError, match="SCAN requires"):
            KVRequest(0.0, KVOp.SCAN, 1)
        with pytest.raises(ValueError, match="arrival_us"):
            KVRequest(-1.0, KVOp.GET, 1)


class TestPackValueId:
    def test_identical_membership_identical_identity(self):
        slots = [InlineSlot(key_to_int(k), 10 + k, 100) for k in range(5)]
        assert pack_value_id(slots) == pack_value_id(list(slots))

    def test_order_sensitive(self):
        slots = [InlineSlot(key_to_int(k), 10 + k, 100) for k in range(5)]
        assert pack_value_id(slots) != pack_value_id(slots[::-1])

    def test_content_sensitive(self):
        a = [InlineSlot(key_to_int(1), 10, 100)]
        b = [InlineSlot(key_to_int(1), 11, 100)]
        assert pack_value_id(a) != pack_value_id(b)


class _Alloc:
    """Deterministic LPN allocator harness for packer tests."""

    def __init__(self):
        self.next = 0
        self.released = []

    def alloc(self):
        lpn = self.next
        self.next += 1
        return lpn

    def release(self, lpn):
        self.released.append(lpn)


class TestInlinePacker:
    def make(self, page_bytes=1000, threshold=0.5):
        alloc = _Alloc()
        packer = InlinePacker(
            page_bytes, alloc.alloc, alloc.release,
            repack_threshold=threshold,
        )
        return packer, alloc

    def test_seals_when_buffer_overflows(self):
        packer, _ = self.make()
        actions = []
        for key in range(3):
            actions += packer.add(key, InlineSlot(key_to_int(key), key, 400))
        # Third add overflows the 1000-byte page: one seal of keys 0-1.
        writes = [a for a in actions if a[0] == "write"]
        assert len(writes) == 1
        assert packer.sealed_pages == 1
        assert packer.buffered_count == 1
        assert packer.lpn_of(0) == writes[0][1]
        assert packer.lpn_of(2) is None  # still buffered

    def test_kill_empty_page_trims(self):
        packer, alloc = self.make()
        for key in range(2):
            packer.add(key, InlineSlot(key_to_int(key), key, 400))
        packer.flush()
        actions = packer.kill(0) + packer.kill(1)
        trims = [a for a in actions if a[0] == "trim"]
        assert len(trims) == 1
        assert alloc.released == [trims[0][1]]
        assert packer.live_count == 0

    def test_repack_preserves_identity(self):
        """Survivors re-sealed after a repack reproduce the value_id a
        direct seal of the same membership produces — the property that
        makes repack traffic revivable."""
        packer, _ = self.make(threshold=0.6)
        for key in range(4):
            packer.add(key, InlineSlot(key_to_int(key), 100 + key, 250))
        packer.flush()
        # Kill 0 and 1: live fraction 0.5 < 0.6 triggers a repack after
        # the second kill; survivors (2, 3) go back to the open buffer.
        packer.kill(0)
        actions = packer.kill(1)
        assert [a[0] for a in actions] == ["read", "trim"]
        assert packer.buffered_count == 2
        seal = packer.flush()
        expected = pack_value_id([
            InlineSlot(key_to_int(2), 102, 250),
            InlineSlot(key_to_int(3), 103, 250),
        ])
        assert seal[0][2] == expected

    def test_double_add_raises(self):
        packer, _ = self.make()
        packer.add(1, InlineSlot(key_to_int(1), 0, 100))
        with pytest.raises(ValueError, match="already packed"):
            packer.add(1, InlineSlot(key_to_int(1), 0, 100))


class TestKVStore:
    def collect(self, rows):
        """The store emits replay rows; read them back as records."""
        return [IORequest(*row) for row in rows]

    def test_large_put_allocates_extent(self):
        store = KVStore(page_bytes=4096)
        requests = self.collect(store.put(1, 10_000, 7, 0.0))
        assert [r.op for r in requests] == [OpType.WRITE] * 3
        assert [r.lpn for r in requests] == [0, 1, 2]
        assert requests[0].value_id == page_value_id(7, 0)
        assert store.live_keys == 1

    def test_same_content_same_page_identities(self):
        store = KVStore(page_bytes=4096)
        a = self.collect(store.put(1, 10_000, 7, 0.0))
        b = self.collect(store.put(2, 10_000, 7, 0.0))
        assert [r.value_id for r in a] == [r.value_id for r in b]

    def test_overwrite_reuses_pages_and_trims_shrink(self):
        store = KVStore(page_bytes=4096)
        self.collect(store.put(1, 12_000, 7, 0.0))   # 3 pages: 0,1,2
        requests = self.collect(store.put(1, 5_000, 8, 1.0))  # 2 pages
        trims = [r for r in requests if r.op == OpType.TRIM]
        writes = [r for r in requests if r.op == OpType.WRITE]
        assert [r.lpn for r in writes] == [0, 1]    # reused in place
        assert [r.lpn for r in trims] == [2]        # the shrink excess
        # The freed page is reused by the next extent.
        nxt = self.collect(store.put(2, 4_000, 9, 2.0))
        assert nxt[0].lpn == 2

    def test_extent_to_inline_transition_trims_extent(self):
        store = KVStore(page_bytes=4096)
        self.collect(store.put(1, 8_192, 7, 0.0))   # 2-page extent
        requests = self.collect(store.put(1, 100, 8, 1.0))  # now inline
        assert [r.op for r in requests] == [OpType.TRIM, OpType.TRIM]
        assert 1 in store.packer

    def test_delete_trims_every_page(self):
        store = KVStore(page_bytes=4096)
        self.collect(store.put(1, 10_000, 7, 0.0))
        requests = self.collect(store.delete(1, 1.0))
        assert [r.op for r in requests] == [OpType.TRIM] * 3
        assert store.live_keys == 0
        assert self.collect(store.get(1, 2.0)) == []
        assert store.stats.get_misses == 1

    def test_get_reads_extent_or_pack_page(self):
        store = KVStore(page_bytes=4096)
        self.collect(store.put(1, 9_000, 7, 0.0))
        reads = self.collect(store.get(1, 1.0))
        assert [r.op for r in reads] == [OpType.READ] * 3
        # A buffered inline value costs no flash read.
        self.collect(store.put(2, 100, 8, 2.0))
        assert self.collect(store.get(2, 3.0)) == []
        assert store.stats.buffer_hits == 1
        # Sealed: one page read.
        self.collect(store.flush(4.0))
        assert len(self.collect(store.get(2, 5.0))) == 1

    def test_scan_skips_missing_keys(self):
        store = KVStore(page_bytes=4096)
        for key in (3, 5):
            self.collect(store.put(key, 4_096, key, 0.0))
        requests = self.collect(store.scan(2, 5, 1.0))
        assert [r.lpn for r in requests] == [0, 1]
        assert store.stats.scanned_keys == 2
        with pytest.raises(TypeError):
            self.collect(store.scan("a", 3, 1.0))

    def test_translate_is_lazy(self):
        store = KVStore(page_bytes=4096)

        def endless():
            for key in itertools.count():
                yield KVRequest(float(key), KVOp.PUT, key,
                                value_bytes=4_096, content_id=key)

        stream = store.translate(endless())
        first = self.collect(next(stream) for _ in range(5))
        assert [r.lpn for r in first] == [0, 1, 2, 3, 4]

    def test_max_pages_guard(self):
        store = KVStore(page_bytes=4096, max_pages=2)
        list(store.put(1, 8_192, 7, 0.0))
        with pytest.raises(RuntimeError, match="exhausted"):
            list(store.put(2, 4_096, 8, 1.0))


class TestZooStreams:
    def test_registry_shapes(self):
        assert set(KV_WORKLOADS) == {
            "ycsb-a", "ycsb-b", "ycsb-c", "ycsb-d", "ycsb-e",
            "trim-heavy", "diurnal",
        }
        for workload in KV_WORKLOADS.values():
            props = (workload.read_prop + workload.update_prop
                     + workload.insert_prop + workload.delete_prop
                     + workload.scan_prop)
            assert props == pytest.approx(1.0)
        with pytest.raises(ValueError, match="unknown KV workload"):
            kv_workload("nope")

    def test_streams_are_lazy_and_deterministic(self):
        workload = kv_workload("ycsb-a").scaled(0.05)
        stream = txn_stream(workload)
        head = [next(stream) for _ in range(10)]
        # Re-deriving the stream reproduces it exactly (generators are
        # pure functions of the frozen workload).
        again = list(itertools.islice(txn_stream(workload), 10))
        assert head == again

    def test_reseeding_changes_the_stream(self):
        workload = kv_workload("ycsb-a").scaled(0.05)
        a = list(itertools.islice(txn_stream(workload), 50))
        b = list(itertools.islice(
            txn_stream(workload.reseeded(999)), 50
        ))
        assert a != b

    def test_streamed_equals_materialized(self):
        """Digest parity: consuming lazily request-by-request sees the
        identical sequence a full materialisation sees."""
        for name in ("ycsb-a", "trim-heavy", "diurnal"):
            workload = kv_workload(name).scaled(0.02)
            materialized = list(txn_stream(workload))
            streamed = []
            stream = txn_stream(workload)
            for request in stream:
                streamed.append(request)
            assert streamed == materialized

    def test_arrival_order_is_monotone(self):
        for name in ("ycsb-a", "diurnal"):
            workload = kv_workload(name).scaled(0.02)
            arrivals = [r.arrival_us for r in txn_stream(workload)]
            assert arrivals == sorted(arrivals)

    def test_load_inserts_every_key_once(self):
        workload = kv_workload("ycsb-b").scaled(0.05)
        load = list(load_stream(workload))
        assert len(load) == workload.num_keys
        assert all(r.op is KVOp.PUT for r in load)
        assert len({r.key for r in load}) == workload.num_keys

    def test_trim_heavy_emits_deletes(self):
        workload = kv_workload("trim-heavy").scaled(0.05)
        ops = [r.op for r in txn_stream(workload)]
        assert ops.count(KVOp.DELETE) > 0

    def test_scan_heavy_emits_scans(self):
        workload = kv_workload("ycsb-e").scaled(0.05)
        requests = list(txn_stream(workload))
        scans = [r for r in requests if r.op is KVOp.SCAN]
        assert scans and all(r.scan_length >= 1 for r in scans)


class TestInterleaveKvTenants:
    def put(self, t, key, content):
        return KVRequest(t, KVOp.PUT, key, value_bytes=100,
                         content_id=content)

    def test_namespaces_are_private(self):
        merged = list(interleave_kv_tenants(
            [[self.put(0.0, 1, 5)], [self.put(1.0, 1, 5)]],
            key_space=10, content_space=100,
        ))
        assert [r.key for r in merged] == [1, 11]
        assert merged[0].content_id != merged[1].content_id

    def test_key_overflow_raises(self):
        with pytest.raises(ValueError, match="private key space"):
            list(interleave_kv_tenants(
                [[self.put(0.0, 12, 5)]], key_space=10,
            ))

    def test_content_overflow_raises_unless_shared(self):
        streams = [[self.put(0.0, 1, 105)]]
        with pytest.raises(ValueError, match="private namespace"):
            list(interleave_kv_tenants(
                streams, key_space=10, content_space=100,
            ))
        merged = list(interleave_kv_tenants(
            [[self.put(0.0, 1, 105)]], key_space=10, content_space=100,
            share_contents=True,
        ))
        assert merged[0].content_id == 105

    def test_string_keys_get_tenant_prefix(self):
        merged = list(interleave_kv_tenants(
            [[KVRequest(0.0, KVOp.GET, "a")],
             [KVRequest(1.0, KVOp.GET, "a")]],
            key_space=10,
        ))
        assert [r.key for r in merged] == ["tenant0/a", "tenant1/a"]

    def test_merge_orders_by_arrival(self):
        merged = list(interleave_kv_tenants(
            [[self.put(5.0, 1, 1)], [self.put(2.0, 1, 2)],
             [self.put(9.0, 1, 3)]],
            key_space=10,
        ))
        assert [r.arrival_us for r in merged] == [2.0, 5.0, 9.0]

    def test_diurnal_zoo_profile_respects_namespaces(self):
        # The zoo's own multi-tenant stream passes its validation
        # end-to-end (keys always fit tenant_key_space).
        workload = kv_workload("diurnal").scaled(0.02)
        requests = list(txn_stream(workload))
        assert requests
        spaces = {r.key // workload.tenant_key_space
                  for r in requests if isinstance(r.key, int)}
        assert spaces == set(range(workload.tenants))


class TestWorkloadConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="sum"):
            KVWorkload("bad", read_prop=0.5)
        with pytest.raises(ValueError, match="amplitude"):
            KVWorkload("bad", read_prop=1.0, diurnal_amplitude=1.5)
        with pytest.raises(ValueError, match="length mismatch"):
            KVWorkload("bad", read_prop=1.0, value_sizes=(1, 2),
                       value_size_weights=(1.0,))

    def test_scaled_floors(self):
        tiny = kv_workload("ycsb-a").scaled(0.0001)
        assert tiny.num_keys >= 64
        assert tiny.num_requests >= 256
        with pytest.raises(ValueError):
            kv_workload("ycsb-a").scaled(0)

    def test_estimated_pages_positive_and_monotone(self):
        workload = kv_workload("ycsb-a")
        assert workload.estimated_pages() > 0
        assert (workload.scaled(2.0).estimated_pages()
                > workload.estimated_pages())
