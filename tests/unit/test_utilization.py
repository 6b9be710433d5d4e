"""Unit tests for utilisation reporting."""

import pytest

from repro.analysis.utilization import (
    ResourceUsage,
    UtilisationReport,
    utilisation_report,
)
from repro.ftl.ftl import BaseFTL
from repro.sim.des_ssd import EventDrivenSSD
from repro.sim.request import IORequest, OpType
from repro.sim.ssd import SimulatedSSD


def w(t, lpn, value):
    return IORequest(t, OpType.WRITE, lpn, value)


class TestResourceUsage:
    def test_utilisation_fraction(self):
        usage = ResourceUsage("chip0", busy_time_us=25.0, op_count=3)
        assert usage.utilisation(100.0) == 0.25

    def test_zero_horizon(self):
        assert ResourceUsage("x", 10.0, 1).utilisation(0.0) == 0.0

    def test_capped_at_one(self):
        assert ResourceUsage("x", 200.0, 1).utilisation(100.0) == 1.0


class TestReportFromTimelineModel:
    def _run(self, config, n=50):
        device = SimulatedSSD(BaseFTL(config))
        for i in range(n):
            device.submit(w(i * 200.0, i % 16, i))
        return device

    def test_report_covers_all_resources(self, tiny_config):
        device = self._run(tiny_config)
        report = utilisation_report(device)
        assert len(report.chips) == tiny_config.total_chips
        assert len(report.channels) == tiny_config.channels
        assert report.hash_unit.op_count == 0  # baseline never hashes

    def test_mean_and_peak_bounds(self, tiny_config):
        report = utilisation_report(self._run(tiny_config))
        assert 0.0 < report.mean_chip_utilisation <= 1.0
        peak = max(c.utilisation(report.horizon_us) for c in report.chips)
        assert peak >= report.mean_chip_utilisation

    def test_striping_keeps_chips_balanced(self, tiny_config):
        report = utilisation_report(self._run(tiny_config, n=400))
        busy = [c.busy_time_us for c in report.chips]
        assert max(busy) / (sum(busy) / len(busy)) < 1.5

    def test_rows_render(self, tiny_config):
        from repro.analysis.report import render_table

        report = utilisation_report(self._run(tiny_config))
        text = render_table(["resource", "util", "ops"], report.rows())
        assert "chip0" in text and "hash" in text


class TestReportFromEventModel:
    def test_event_model_supported(self, tiny_config):
        device = EventDrivenSSD(BaseFTL(tiny_config))
        device.run([w(i * 200.0, i % 16, i) for i in range(50)])
        report = utilisation_report(device)
        assert report.mean_chip_utilisation > 0.0
        assert len(report.chips) == tiny_config.total_chips

    def test_models_report_similar_utilisation(self, tiny_config):
        trace = [w(i * 200.0, i % 16, i) for i in range(200)]
        timeline = SimulatedSSD(BaseFTL(tiny_config))
        for request in trace:
            timeline.submit(request)
        des = EventDrivenSSD(BaseFTL(tiny_config))
        des.run(trace)
        a = utilisation_report(timeline)
        b = utilisation_report(des)
        assert a.mean_chip_utilisation == pytest.approx(
            b.mean_chip_utilisation, rel=0.05
        )


class TestEmptyReport:
    def test_empty_report_defaults(self):
        report = UtilisationReport(
            horizon_us=0.0, chips=[], channels=[],
            hash_unit=ResourceUsage("hash", 0.0, 0),
        )
        assert report.mean_chip_utilisation == 0.0
        assert report.rows() == [("hash", "0.000", 0)]
