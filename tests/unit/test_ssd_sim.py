"""Unit tests for the simulated SSD's timing semantics."""

import pytest

from repro.core.dvp import InfiniteDeadValuePool
from repro.faults import FaultConfig, FaultModel
from repro.ftl.dedup import DedupFTL
from repro.ftl.ftl import BaseFTL
from repro.sim.background import BackgroundGCSSD
from repro.sim.request import IORequest, OpType, rows_of
from repro.sim.ssd import SimulatedSSD, replay

from ..reference import ReferenceSSD, as_reference


def w(t, lpn, value):
    return IORequest(arrival_us=t, op=OpType.WRITE, lpn=lpn, value_id=value)


def r(t, lpn, value=0):
    return IORequest(arrival_us=t, op=OpType.READ, lpn=lpn, value_id=value)


class TestWriteTiming:
    def test_baseline_write_latency(self, tiny_config):
        device = SimulatedSSD(BaseFTL(tiny_config))
        done = device.submit(w(0.0, 0, 1))
        t = tiny_config.timing
        expected = t.mapping_us + t.channel_xfer_us + t.program_us
        assert done.latency_us == pytest.approx(expected)

    def test_content_aware_write_adds_hash(self, tiny_config):
        ftl = BaseFTL(tiny_config, pool=InfiniteDeadValuePool())
        device = SimulatedSSD(ftl)
        done = device.submit(w(0.0, 0, 1))
        t = tiny_config.timing
        expected = t.hash_us + t.mapping_us + t.channel_xfer_us + t.program_us
        assert done.latency_us == pytest.approx(expected)

    def test_short_circuited_write_skips_flash(self, tiny_config):
        ftl = BaseFTL(tiny_config, pool=InfiniteDeadValuePool())
        device = SimulatedSSD(ftl)
        device.submit(w(0.0, 0, 1))
        device.submit(w(1000.0, 0, 2))       # value 1 dies
        done = device.submit(w(2000.0, 1, 1))  # revived
        t = tiny_config.timing
        assert done.short_circuited
        assert done.latency_us == pytest.approx(t.hash_us + t.mapping_us)

    def test_dedup_hit_skips_flash(self, tiny_config):
        device = SimulatedSSD(DedupFTL(tiny_config))
        device.submit(w(0.0, 0, 1))
        done = device.submit(w(1000.0, 1, 1))
        t = tiny_config.timing
        assert done.dedup_hit
        assert done.latency_us == pytest.approx(t.hash_us + t.mapping_us)


class TestReadTiming:
    def test_read_latency(self, tiny_config):
        device = SimulatedSSD(BaseFTL(tiny_config))
        device.submit(w(0.0, 0, 1))
        done = device.submit(r(10_000.0, 0))
        t = tiny_config.timing
        expected = t.mapping_us + t.channel_xfer_us + t.read_us
        assert done.latency_us == pytest.approx(expected)

    def test_unmapped_read_is_table_only(self, tiny_config):
        device = SimulatedSSD(BaseFTL(tiny_config))
        done = device.submit(r(0.0, 7))
        assert done.latency_us == pytest.approx(tiny_config.timing.mapping_us)

    def test_read_queues_behind_write_on_same_chip(self, tiny_config):
        """The read/write interference the paper targets: a read arriving
        during an ongoing program on its chip waits for it."""
        device = SimulatedSSD(BaseFTL(tiny_config))
        first = device.submit(w(0.0, 0, 1))
        blocked = device.submit(r(1.0, 0))  # same page -> same chip
        t = tiny_config.timing
        assert blocked.latency_us > t.mapping_us + t.channel_xfer_us + t.read_us
        assert blocked.finish_us > first.finish_us

    def test_reads_on_different_chips_parallel(self, tiny_config):
        device = SimulatedSSD(BaseFTL(tiny_config))
        # Writes stripe across planes/chips, so LPN 0 and 1 land apart.
        device.submit(w(0.0, 0, 1))
        device.submit(w(0.0, 1, 2))
        r0 = device.submit(r(10_000.0, 0))
        r1 = device.submit(r(10_000.0, 1))
        # both served without queueing on the chip
        t = tiny_config.timing
        floor = t.mapping_us + t.channel_xfer_us + t.read_us
        assert r0.latency_us == pytest.approx(floor)
        assert r1.latency_us <= floor + t.channel_xfer_us  # channel overlap


class TestRun:
    def test_run_collects_stats(self, tiny_config):
        trace = [w(float(i * 100), i % 8, i) for i in range(20)]
        trace += [r(2000.0 + i, i % 8) for i in range(10)]
        result = replay(BaseFTL(tiny_config), trace, system="s", workload="w")
        assert result.writes.count == 20
        assert result.reads.count == 10
        assert result.counters.host_writes == 20
        assert result.horizon_us > 0
        assert result.pool_stats is None

    def test_run_reports_pool_stats(self, tiny_config):
        ftl = BaseFTL(tiny_config, pool=InfiniteDeadValuePool())
        trace = [w(float(i * 100), 0, i % 2) for i in range(10)]
        result = replay(ftl, trace)
        assert result.pool_stats is not None
        assert result.pool_stats["hits"] > 0

    def test_gc_blocks_later_requests(self, tiny_config):
        """Once churn forces GC, requests behind the erase see multi-ms
        latency — the paper's core motivation."""
        ftl = BaseFTL(tiny_config)
        device = SimulatedSSD(ftl)
        ws = tiny_config.logical_pages // 2
        worst = 0.0
        for i in range(tiny_config.total_pages * 2):
            done = device.submit(w(i * 10.0, i % ws, 10_000 + i))
            worst = max(worst, done.latency_us)
        assert ftl.counters.gc_erases > 0
        assert worst >= tiny_config.timing.erase_us


class TestServiceRouting:
    """``submit`` is the one service loop over a single request, so every
    request counts toward ``requests_served`` however it arrives, and a
    background-GC device runs its pass before each one."""

    def test_submit_counts_toward_crash_injection(self, tiny_config):
        ftl = BaseFTL(tiny_config)
        ftl.attach_faults(FaultModel(FaultConfig(crash_after_requests=5)))
        device = SimulatedSSD(ftl)
        for i in range(4):
            device.submit(w(i * 100.0, i, i))
        assert device.requests_served == 4 and not device.recovery_reports
        done = device.submit(r(400.0, 0))
        assert done.request.lpn == 0 and done.finish_us > 400.0
        assert device.requests_served == 5
        assert len(device.recovery_reports) == 1
        assert ftl.faults.stats.crashes == 1
        # Counting continues across submit and service alike.
        assert device.service(rows_of([w(10_000.0, 1, 9)])) == 1
        assert device.requests_served == 6

    def test_submit_returns_what_the_reference_chain_returns(
        self, tiny_config
    ):
        trace = [w(i * 50.0, i % 8, i % 5) for i in range(60)]
        trace += [r(3000.0 + i, i % 8) for i in range(20)]
        trace.append(IORequest(5000.0, OpType.TRIM, 3, 0))
        device = SimulatedSSD(BaseFTL(tiny_config, pool=InfiniteDeadValuePool()))
        reference = ReferenceSSD(
            as_reference(BaseFTL(tiny_config, pool=InfiniteDeadValuePool()))
        )
        for request in trace:
            assert device.submit(request) == reference.submit(request)
        assert device.writes.samples == reference.writes.samples
        assert device.reads.samples == reference.reads.samples

    def test_background_gc_probes_before_every_request(
        self, tiny_config, monkeypatch
    ):
        seen = []
        original = BackgroundGCSSD._background_pass

        def probe(self, now_us):
            seen.append(now_us)
            return original(self, now_us)

        monkeypatch.setattr(BackgroundGCSSD, "_background_pass", probe)
        device = BackgroundGCSSD(BaseFTL(tiny_config))
        trace = [w(i * 100.0, i % 8, i) for i in range(50)]
        assert device.service(rows_of(trace)) == len(trace)
        assert seen == [request.arrival_us for request in trace]
