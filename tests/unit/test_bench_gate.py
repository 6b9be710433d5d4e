"""Unit tests for the bench regression gate (benchmarks/perf/harness.py)
and the section runner it gates (repro.perf.bench.bench_section).

The one gate walks every section of a v2 report the same way and must
fail on digest drift, per-cell slowdowns beyond tolerance, serial and
parallel legs that disagree, and sub-1× speedups that are not
explicitly marked ``serial_fallback`` — the "never a silent loss"
contract.  Each failure class is exercised on the matrix, fleet and kv
sections alike; the fleet's ≥2× floor on ≥4 cores is the one
per-section datum.  The checks that need no tracked report run on a
re-mint too, and a report that fails any check is never written.
"""

import copy
import json
from pathlib import Path

import pytest

import benchmarks.perf.harness as harness
from benchmarks.perf.harness import check, gate
from repro.perf import bench
from repro.perf.spec import RunSpec

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
        "serial_seconds": 1.5,
        "parallel_seconds": 0.625,
        "pool_overhead_seconds": 0.01,
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

    def test_small_cell_slowdown_fails(self):
        """Seconds are already scaled to reference host speed, so there
        is no absolute floor: a 0.1 s cell 20% slower fails."""
        tracked = _report()
        tracked["sections"]["matrix"]["cells"][1]["serial_seconds"] = 0.1
        fresh = copy.deepcopy(tracked)
        fresh["sections"]["matrix"]["cells"][1]["serial_seconds"] = 0.12
        (failure,) = gate(fresh, tracked, 0.15)
        assert failure.startswith("matrix web/mq-dvp: 1.200x tracked")

    def test_slowdown_is_median_of_window_ratios(self):
        # Ratios 1.5, 0.75, 2.0, 1.0: their median is 1.25, where the
        # ratio of the medians would read 1.75 / 1.5.
        assert harness._slowdown(
            {"serial_seconds": 1.75, "windows": [1.5, 2.0]},
            {"serial_seconds": 1.5, "windows": [1.0, 2.0]},
        ) == 1.25

    def test_shifted_windows_fail_and_one_slow_window_passes(self):
        tracked = _report()
        tracked["sections"]["matrix"]["cells"][1]["windows"] = [
            0.09, 0.1, 0.1, 0.11, 0.12,
        ]
        shifted = copy.deepcopy(tracked)
        cell = shifted["sections"]["matrix"]["cells"][1]
        cell["windows"] = [w * 1.2 for w in cell["windows"]]
        (failure,) = gate(shifted, tracked, 0.15)
        assert failure.startswith("matrix web/mq-dvp: 1.200x tracked")
        spiked = copy.deepcopy(tracked)
        spiked["sections"]["matrix"]["cells"][1]["windows"][2] = 0.3
        assert gate(spiked, tracked, 0.15) == []

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
        # Report seconds are calibrated when measured (HostSpeed-scaled),
        # so the gate compares them as they are.
        fresh = _report(SECTIONS)
        fresh["sections"][name]["cells"][0]["serial_seconds"] *= 1.3
        (failure,) = self._gate(fresh)
        assert failure == (
            f"{name} {_CELL_IDS[name][0]}: 1.300x tracked > 1.15x "
            "(serial 1.300s, tracked 1.000s)"
        )

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


class TestMain:
    """``harness.main`` writes the report only when every check passes."""

    def _main(self, monkeypatch, tmp_path, fresh, tracked=None, *flags):
        out = tmp_path / "BENCH_matrix.json"
        if tracked is not None:
            out.write_text(json.dumps(tracked))
        monkeypatch.setattr(harness, "run_benchmark", lambda **_: fresh)
        code = harness.main(["--out", str(out), *flags])
        return code, json.loads(out.read_text()) if out.exists() else None

    def test_failed_gate_keeps_tracked_report(self, monkeypatch, tmp_path):
        fresh = _report()
        fresh["sections"]["matrix"]["cells"][0]["serial_seconds"] = 1.5
        code, written = self._main(monkeypatch, tmp_path, fresh, _report())
        assert code == 1
        assert written == _report()

    def test_passing_gate_writes_report(self, monkeypatch, tmp_path):
        fresh = _report()
        fresh["sections"]["matrix"]["cells"][0]["serial_seconds"] = 0.9
        code, written = self._main(monkeypatch, tmp_path, fresh, _report())
        assert code == 0
        assert written == fresh

    @pytest.mark.parametrize("flags", [(), ("--no-gate",)])
    def test_remint_runs_fresh_checks(self, monkeypatch, tmp_path, flags):
        """With no tracked file, or with --no-gate, a silent sub-1x
        speedup still fails and is not minted."""
        fresh = _report()
        fresh["sections"]["matrix"]["speedup"] = 0.9
        tracked = _report() if flags else None
        code, written = self._main(monkeypatch, tmp_path, fresh, tracked, *flags)
        assert code == 1
        assert written == tracked

    def test_fresh_checks_need_no_tracked_report(self, monkeypatch):
        fresh = _report(SECTIONS)
        fresh["sections"]["fleet"]["speedup"] = 1.4
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 8)
        (failure,) = check(fresh)
        assert failure.startswith("fleet:") and "< 2.0" in failure


class TestBenchSection:
    """One section runner: medians of cold legs, measured pool overhead."""

    SPECS = [RunSpec("web", system, scale=0.004)
             for system in ("baseline", "mq-dvp")]

    @pytest.fixture(autouse=True)
    def _two_legs(self, monkeypatch):
        monkeypatch.setattr(bench, "BENCH_LEGS", 2)

    def test_section_serial_is_sum_of_cells(self):
        section = bench.bench_section(self.SPECS, jobs=1)
        assert section["serial_seconds"] == pytest.approx(
            sum(cell["serial_seconds"] for cell in section["cells"]),
            abs=1e-5,
        )
        assert section["identical_results"] is True

    @pytest.mark.parametrize("overhead, fallback", [(0.45, False), (0.55, True)])
    def test_fallback_follows_measured_overhead(
        self, monkeypatch, overhead, fallback
    ):
        """Every window reads 0.5 s: two cells make 1.0 s serial, and
        two workers could save at most 1.0 · (1 − 1/2) = 0.5 s."""
        monkeypatch.setattr(bench.os, "cpu_count", lambda: 2)
        monkeypatch.setattr(
            bench, "_pool_overhead",
            lambda count, jobs, timer, windows: windows.append(overhead),
        )
        section = bench.bench_section(self.SPECS, jobs=2, timer=lambda s: 0.5)
        assert section["serial_seconds"] == 1.0
        assert section["pool_overhead_seconds"] == overhead
        assert section["serial_fallback"] is fallback
        assert section["speedup"] == (None if fallback else 2.0)
        assert check({"sections": {"matrix": section}}) == []
