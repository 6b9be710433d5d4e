"""Unit tests for the bench regression gate (benchmarks/perf/harness.py).

The one gate walks every section of a v2 report the same way and must
fail on digest drift, per-cell slowdowns beyond tolerance, serial and
parallel legs that disagree, and sub-1× speedups that are not
explicitly marked ``serial_fallback`` — the "never a silent loss"
contract.  Each failure class is exercised on the matrix, fleet and kv
sections alike; the fleet's ≥2× floor on ≥4 cores is the one
per-section datum.
"""

import copy
import json
from pathlib import Path

import pytest

from benchmarks.perf.harness import gate

SCHEMA = "repro.perf.bench_matrix/v2"
SECTIONS = ("matrix", "fleet", "kv")

#: Two cells per section, ids shaped like the real ones.
_CELL_IDS = {
    "matrix": ("mail/baseline", "web/mq-dvp"),
    "fleet": ("mail/mq-dvp/shard0of4", "mail/mq-dvp/shard1of4"),
    "kv": ("ycsb-a/mq-dvp", "ycsb-a/baseline"),
}
_SCALES = {"matrix": 0.05, "fleet": 0.2, "kv": 0.5}


def _section(name="matrix", **overrides):
    first, second = _CELL_IDS[name]
    base = {
        "scale": _SCALES[name],
        "jobs": 4,
        "identical_results": True,
        "serial_fallback": False,
        "speedup": 2.4,
        "cells": [
            {"id": first, "serial_seconds": 1.0, "digest": "a" * 64},
            {"id": second, "serial_seconds": 0.5, "digest": "b" * 64},
        ],
    }
    base.update(overrides)
    return base


def _report(sections=("matrix",), **overrides):
    base = {
        "schema": SCHEMA,
        "calibration_seconds": 0.05,
        "sections": {name: _section(name) for name in sections},
    }
    base.update(overrides)
    return base


class TestBenchGate:
    def test_clean_report_passes(self):
        assert gate(_report(SECTIONS), _report(SECTIONS), 0.15) == []

    def test_faster_cells_pass(self):
        fresh = _report()
        for cell in fresh["sections"]["matrix"]["cells"]:
            cell["serial_seconds"] *= 0.5
        assert gate(fresh, _report(), 0.15) == []

    def test_slowdown_beyond_tolerance_fails(self):
        fresh = _report()
        fresh["sections"]["matrix"]["cells"][0]["serial_seconds"] = 1.2
        failures = gate(fresh, _report(), 0.15)  # +20% > 15%
        assert len(failures) == 1
        assert "mail/baseline" in failures[0]

    def test_slowdown_within_tolerance_passes(self):
        fresh = _report()
        fresh["sections"]["matrix"]["cells"][0]["serial_seconds"] = 1.1
        assert gate(fresh, _report(), 0.15) == []  # +10% < 15%

    def test_slow_machine_is_normalized_away(self):
        """A container running 1.5x slower than at mint time must not
        read as a simulator regression: the calibration loop slows by
        the same factor and cancels out."""
        fresh = _report(SECTIONS, calibration_seconds=0.075)
        for section in fresh["sections"].values():
            for cell in section["cells"]:
                cell["serial_seconds"] *= 1.5
        assert gate(fresh, _report(SECTIONS), 0.15) == []

    def test_real_regression_survives_normalization(self):
        fresh = _report(calibration_seconds=0.075)
        for cell in fresh["sections"]["matrix"]["cells"]:
            cell["serial_seconds"] *= 1.5 * 1.3  # machine x real slowdown
        failures = gate(fresh, _report(), 0.15)
        assert len(failures) == 2
        assert all("machine-normalized" in f for f in failures)

    def test_fast_machine_does_not_mask_regression(self):
        fresh = _report(calibration_seconds=0.025)  # machine 2x faster
        # Cells "only" as slow as before = 2x slower in simulator work.
        failures = gate(fresh, _report(), 0.15)
        assert len(failures) == 2

    def test_missing_calibration_falls_back_to_raw_seconds(self):
        tracked = _report()
        del tracked["calibration_seconds"]
        fresh = _report(calibration_seconds=0.075)
        fresh["sections"]["matrix"]["cells"][0]["serial_seconds"] = 1.2
        failures = gate(fresh, tracked, 0.15)
        assert len(failures) == 1

    def test_digest_drift_fails(self):
        fresh = _report()
        fresh["sections"]["matrix"]["cells"][1]["digest"] = "c" * 64
        failures = gate(fresh, _report(), 0.15)
        assert any("digest" in f for f in failures)

    def test_sub_unity_speedup_without_marker_fails(self):
        fresh = _report()
        fresh["sections"]["matrix"]["speedup"] = 0.73
        failures = gate(fresh, _report(), 0.15)
        assert any("serial_fallback" in f for f in failures)

    def test_serial_fallback_marker_excuses_missing_speedup(self):
        fresh = _report()
        fresh["sections"]["matrix"].update(serial_fallback=True, speedup=None)
        assert gate(fresh, _report(), 0.15) == []

    def test_nonidentical_results_fail(self):
        fresh = _report()
        fresh["sections"]["matrix"]["identical_results"] = False
        failures = gate(fresh, _report(), 0.15)
        assert any("different digests" in f for f in failures)

    def test_scale_mismatch_blocks_timing_comparison(self):
        tracked = _report()
        tracked["sections"]["matrix"]["scale"] = 0.01
        # Make a cell "slower" too: it must NOT double-report, because
        # cross-scale timings are not comparable.
        fresh = _report()
        fresh["sections"]["matrix"]["cells"][0]["serial_seconds"] = 99.0
        failures = gate(fresh, tracked, 0.15)
        assert len(failures) == 1
        assert "scale" in failures[0]

    def test_new_cell_has_nothing_to_regress_against(self):
        fresh = _report()
        fresh["sections"]["matrix"]["cells"].append(
            {"id": "desktop/dedup", "serial_seconds": 5.0, "digest": "d" * 64}
        )
        assert gate(fresh, _report(), 0.15) == []

    def test_schema_mismatch_fails_fast(self):
        tracked = copy.deepcopy(_report())
        tracked["schema"] = "repro.perf.bench_matrix/v1"
        failures = gate(_report(), tracked, 0.15)
        assert len(failures) == 1
        assert "schema" in failures[0]


class TestFleetGate:
    """The fleet section through the one gate (once its own gate)."""

    def test_clean_fleet_passes(self):
        assert gate(_report(("fleet",)), _report(("fleet",)), 0.15) == []

    def test_nonidentical_shard_digests_fail(self):
        fresh = _report(("fleet",))
        fresh["sections"]["fleet"]["identical_results"] = False
        failures = gate(fresh, _report(("fleet",)), 0.15)
        assert any(
            f.startswith("fleet:") and "different digests" in f
            for f in failures
        )

    def test_sub_unity_speedup_without_marker_fails(self):
        fresh = _report(("fleet",))
        fresh["sections"]["fleet"]["speedup"] = 0.8
        failures = gate(fresh, _report(("fleet",)), 0.15)
        assert any("serial_fallback" in f for f in failures)

    def test_serial_fallback_excuses_missing_speedup(self):
        fresh = _report(("fleet",))
        fresh["sections"]["fleet"].update(serial_fallback=True, speedup=None)
        assert gate(fresh, _report(("fleet",)), 0.15) == []

    def test_fleet_digest_drift_fails(self):
        fresh = _report(("fleet",))
        fresh["sections"]["fleet"]["cells"][0]["digest"] = "0" * 64
        failures = gate(fresh, _report(("fleet",)), 0.15)
        assert any("shard0of4" in f and "drifted" in f for f in failures)

    def test_different_fleet_shape_skips_digest_comparison(self):
        # An 8-shard fleet has other cell ids: nothing to compare against.
        fresh = _report(("fleet",))
        for index, cell in enumerate(fresh["sections"]["fleet"]["cells"]):
            cell.update(id=f"mail/mq-dvp/shard{index}of8", digest="0" * 64)
        assert gate(fresh, _report(("fleet",)), 0.15) == []

    def test_new_fleet_section_has_no_tracked_digest(self):
        fresh = _report(("fleet",))
        fresh["sections"]["fleet"]["cells"][0]["digest"] = "0" * 64
        assert gate(fresh, _report(()), 0.15) == []

    def test_speedup_floor_applies_only_with_enough_cores(self, monkeypatch):
        import benchmarks.perf.harness as harness_mod

        fresh = _report(SECTIONS)
        for section in fresh["sections"].values():
            section["speedup"] = 1.4  # real but weak speedup
        monkeypatch.setattr(harness_mod.os, "cpu_count", lambda: 2)
        assert gate(fresh, _report(SECTIONS), 0.15) == []
        monkeypatch.setattr(harness_mod.os, "cpu_count", lambda: 8)
        failures = gate(fresh, _report(SECTIONS), 0.15)
        # The floor is the fleet's alone.
        assert len(failures) == 1
        assert failures[0].startswith("fleet:") and "< 2.0" in failures[0]

    def test_gate_includes_fleet_section(self):
        fresh = _report(("matrix", "fleet"))
        fresh["sections"]["fleet"]["identical_results"] = False
        failures = gate(fresh, _report(("matrix", "fleet")), 0.15)
        assert any("fleet" in f for f in failures)

    def test_gate_tolerates_tracked_report_without_fleet(self):
        fresh = _report(("matrix", "fleet"))
        assert gate(fresh, _report(), 0.15) == []


@pytest.mark.parametrize("name", SECTIONS)
class TestEverySection:
    """Each failure class fires the same way on every section."""

    def _gate(self, fresh, tracked=None):
        return gate(fresh, tracked or _report(SECTIONS), 0.15)

    def test_identical_results_false_fails(self, name):
        fresh = _report(SECTIONS)
        fresh["sections"][name]["identical_results"] = False
        (failure,) = self._gate(fresh)
        assert failure.startswith(f"{name}:")
        assert "different digests" in failure

    def test_silent_sub_unity_speedup_fails(self, name):
        fresh = _report(SECTIONS)
        fresh["sections"][name]["speedup"] = 0.9
        (failure,) = self._gate(fresh)
        assert failure.startswith(f"{name}:")
        assert "serial_fallback" in failure

    def test_digest_drift_fails(self, name):
        fresh = _report(SECTIONS)
        cell = fresh["sections"][name]["cells"][1]
        cell["digest"] = "c" * 64
        (failure,) = self._gate(fresh)
        assert failure == f"{name} {cell['id']}: digest drifted from tracked report"

    def test_slowdown_beyond_tolerance_after_calibration_fails(self, name):
        fresh = _report(SECTIONS, calibration_seconds=0.1)  # machine 2x slower
        for section in fresh["sections"].values():
            for cell in section["cells"]:
                cell["serial_seconds"] *= 2.0  # machine drift only: passes
        fresh["sections"][name]["cells"][0]["serial_seconds"] *= 1.3
        (failure,) = self._gate(fresh)
        assert failure.startswith(f"{name} {_CELL_IDS[name][0]}: serial")
        assert "machine-normalized x2.00" in failure

    def test_new_cell_passes(self, name):
        fresh = _report(SECTIONS)
        fresh["sections"][name]["cells"].append(
            {"id": "new/cell", "serial_seconds": 50.0, "digest": "e" * 64}
        )
        assert self._gate(fresh) == []

    def test_schema_mismatch_fails(self, name):
        tracked = _report(SECTIONS, schema="repro.perf.bench_matrix/v1")
        fresh = _report(SECTIONS)
        fresh["sections"][name]["cells"][0]["digest"] = "c" * 64
        # Against another schema there is nothing to drift from: the
        # mismatch itself is the one failure.
        (failure,) = self._gate(fresh, tracked)
        assert "schema" in failure


class TestTrackedReport:
    def test_committed_report_is_v2_and_passes_its_own_gate(self):
        path = Path(__file__).resolve().parents[2] / "BENCH_matrix.json"
        report = json.loads(path.read_text())
        assert report["schema"] == SCHEMA
        assert set(report["sections"]) == set(SECTIONS)
        for section in report["sections"].values():
            for cell in section["cells"]:
                assert set(cell) >= {
                    "id", "serial_seconds", "requests", "digest", "record",
                }
                assert cell["record"]["digest"] == cell["digest"]
        assert gate(report, report, 0.15) == []
