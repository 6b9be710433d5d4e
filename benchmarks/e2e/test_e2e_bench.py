"""The benchmark's own tests, at ``--smoke`` sizes with one rep::

    PYTHONPATH=src python -m pytest benchmarks/e2e
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run as bench
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")

#: Ledger entries timed inside Device.step (their self times partition it).
STEP_LAYERS = (
    "sim.submit", "flash.timing", "ftl.write", "ftl.read", "ftl.trim",
    "gc.collect", "pool.lookup", "pool.insert", "kv.translate",
)


def invoke(out_dir: Path, *argv: str):
    """``run.main`` in-process; returns (exit code, result line, --out report)."""
    report = out_dir / "report.json"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = bench.main(["--smoke", "--out", str(report), *argv])
    line = json.loads(out.getvalue().strip().splitlines()[-1])
    return code, line, json.loads(report.read_text())


def by_workload(line):
    """``{workload: {metric: entry}}`` from a multi-workload result line."""
    table = {}
    for key, entry in line["metrics"].items():
        workload, _, metric = key.partition("/")
        table.setdefault(workload, {})[metric] = entry
    return table


@pytest.fixture(scope="module")
def untraced(tmp_path_factory):
    return invoke(tmp_path_factory.mktemp("untraced"))


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    return invoke(tmp_path_factory.mktemp("traced"), "--trace", "1")


def test_spec_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == [w.name for w in WORKLOADS]
    assert all(w["why"] == spec.why for w, spec in zip(SPEC["workloads"], WORKLOADS))
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_every_metric_emitted_and_nothing_else(untraced, traced):
    for (code, line, _), section in ((untraced, "end_to_end"), (traced, "per_layer")):
        assert code == 0 and line["correct"]
        listed = {m["name"]: m["unit"] for m in SPEC[section]}
        table = by_workload(line)
        assert set(table) == {w.name for w in WORKLOADS}
        for workload, metrics in table.items():
            assert {k: v["unit"] for k, v in metrics.items()} == listed, workload
    names = {m["name"] for s in ("end_to_end", "per_layer") for m in SPEC[s]}
    for entry in traced[2]["workloads"].values():
        names.update(entry["ledger"])
    assert all(NAME.fullmatch(name) for name in names)


def test_outputs_correct_and_counted(untraced):
    _, line, report = untraced
    assert line["failed"] == 0 and line["attempted"] >= len(WORKLOADS)
    for entry in report["workloads"].values():
        assert entry["correct"] and entry["problems"] == []


def test_wrong_digest_fails_every_op(monkeypatch, tmp_path):
    real = bench.run_child

    def corrupt_leg(workload, mode, args, spans=None):
        outcome, wall, error = real(workload, mode, args, spans)
        if mode == "check":
            outcome = dict(outcome, digest="0" * 64)
        return outcome, wall, error

    monkeypatch.setattr(bench, "run_child", corrupt_leg)
    code, line, _ = invoke(tmp_path, "--workload", "web-baseline")
    assert code != 0 and not line["correct"]
    assert line["failed"] == line["attempted"] > 0


def test_traced_self_times_partition_the_step(traced):
    for workload, entry in traced[2]["workloads"].items():
        ledger = entry["ledger"]
        assert "trace.overhead_frac" in ledger
        inside = sum(ledger.get(f"{layer}.self_s", 0.0) for layer in STEP_LAYERS)
        assert 0 < inside <= ledger["device.step_s"], workload
    serve = traced[2]["workloads"]["serve-web"]["ledger"]
    assert serve["serve.step_s"] > 0 and "serve.ack_gap_ms.p50" in serve
    fleet = traced[2]["workloads"]["fleet-mail"]["ledger"]
    assert fleet["fleet.shard_s.max"] >= fleet["fleet.shard_s.mean"] > 0
    assert traced[2]["workloads"]["kv-ycsb-a"]["ledger"]["ftl.trim.calls"] > 0


def test_seed_reaches_every_workload(untraced, tmp_path):
    code, line, report = invoke(tmp_path, "--seed", "7")
    assert code == 0 and line["correct"]
    for name, entry in report["workloads"].items():
        default = untraced[2]["workloads"][name]
        assert entry["digest"] != default["digest"], name
        assert entry["counts"] != default["counts"], name


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "web-baseline",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
