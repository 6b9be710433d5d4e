"""Unit tests for the flow-analysis plumbing: cache, memoisation, CLI.

The rule-level behaviour (each ``flow.*`` code firing and staying
quiet) lives in ``test_lint_rules.py``; the graph invariants live in
``tests/property/test_flow_graph.py``.  This file covers the machinery
around them: the content-keyed facts cache, per-program memoisation of
the analysis, and the baseline hygiene flags the flow work added to the
CLI (``--strict-baseline``, atomic ``--write-baseline``).
"""

import ast
import json
import textwrap

import pytest

import repro.cli as cli
from repro.lint import LintEngine
from repro.lint.baseline import Baseline, BaselineEntry
from repro.lint.flow import FactsCache, extract_module_facts, flow_report
from repro.lint.flow.cache import content_key

pytestmark = pytest.mark.usefixtures("scratch_cwd")

SOURCE = textwrap.dedent("""
    import time

    def result_digest(value):
        return value

    def record():
        return result_digest(time.perf_counter())
""")


def facts_of(source, module="repro.m", path="repro/m.py"):
    return extract_module_facts(module, path, ast.parse(source), False)


# ---------------------------------------------------------------------------
# content keys + cache tiers
# ---------------------------------------------------------------------------

def test_content_key_changes_with_content_module_and_path():
    base = content_key(b"x = 1\n", "repro.a", "a.py")
    assert content_key(b"x = 2\n", "repro.a", "a.py") != base
    assert content_key(b"x = 1\n", "repro.b", "a.py") != base
    assert content_key(b"x = 1\n", "repro.a", "b.py") != base
    assert content_key(b"x = 1\n", "repro.a", "a.py") == base


def test_disk_cache_round_trips_across_instances(tmp_path):
    key = content_key(SOURCE.encode(), "repro.m", "repro/m.py")
    writer = FactsCache(tmp_path / "cache")
    assert writer.get(key) is None
    writer.put(key, facts_of(SOURCE))
    assert writer.misses == 1

    # A fresh process (new instance, empty memory tier) hits the disk.
    reader = FactsCache(tmp_path / "cache")
    facts = reader.get(key)
    assert reader.hits == 1
    assert facts is not None
    assert sorted(fn.qualname for fn in facts.functions) == \
        ["record", "result_digest"]


def test_torn_disk_entry_degrades_to_a_miss(tmp_path):
    cache = FactsCache(tmp_path / "cache")
    key = content_key(b"pass\n", "repro.m", "m.py")
    cache.put(key, facts_of("pass\n"))
    entry = cache._entry_path(key)
    entry.write_text("{not json")
    assert FactsCache(tmp_path / "cache").get(key) is None


def test_memory_only_cache_never_touches_disk(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cache = FactsCache(None)
    key = content_key(SOURCE.encode(), "repro.m", "m.py")
    cache.put(key, facts_of(SOURCE))
    assert cache.get(key) is not None
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# flow_report: memoised per program, warm across engine runs via disk
# ---------------------------------------------------------------------------

def write_tree(tmp_path, files):
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))


def test_flow_report_memoised_on_the_program(tmp_path):
    write_tree(tmp_path, {"repro/perf/m.py": SOURCE})
    engine = LintEngine(package_root=str(tmp_path))
    program = engine.load_program([str(tmp_path)])
    first = flow_report(program)
    assert flow_report(program) is first
    assert first.files == 1
    assert len(first.taint) == 1


def test_second_run_is_all_cache_hits(tmp_path):
    write_tree(tmp_path, {
        "repro/perf/a.py": SOURCE,
        "repro/perf/b.py": "def quiet(x):\n    return x\n",
    })

    def report():
        engine = LintEngine(
            package_root=str(tmp_path), cache_dir=str(tmp_path / "cache")
        )
        return flow_report(engine.load_program([str(tmp_path)]))

    cold = report()
    assert (cold.cache_hits, cold.cache_misses) == (0, 2)
    warm = report()
    assert (warm.cache_hits, warm.cache_misses) == (2, 0)
    assert [f.sink_name for f in warm.taint] == \
        [f.sink_name for f in cold.taint]


# ---------------------------------------------------------------------------
# baseline hygiene: --strict-baseline, atomic prune-on-write
# ---------------------------------------------------------------------------

STALE_ENTRY = {
    "path": "repro/gone.py",
    "code": "det.wallclock",
    "context": "vanished",
    "justification": "matched something once",
}


def test_strict_baseline_fails_on_stale_entries(tmp_path, capsys):
    write_tree(tmp_path, {"repro/ok.py": "def f(x):\n    return x\n"})
    baseline = tmp_path / "baseline.json"
    baseline.write_text(json.dumps(
        {"version": 1, "entries": [STALE_ENTRY]}
    ))
    argv = [
        "lint", str(tmp_path / "repro"),
        "--baseline", str(baseline),
        "--package-root", str(tmp_path),
    ]
    assert cli.main(argv) == 0          # stale is only a warning...
    assert cli.main(argv + ["--strict-baseline"]) == 1   # ...until CI
    out = capsys.readouterr()
    assert "stale baseline" in out.err


def test_write_baseline_prunes_atomically(tmp_path, capsys):
    write_tree(tmp_path, {
        "repro/sim/hot.py": "import time\n\ndef f():\n    return time.time()\n",
    })
    baseline = tmp_path / "baseline.json"
    baseline.write_text(json.dumps(
        {"version": 1, "entries": [STALE_ENTRY]}
    ))
    rc = cli.main([
        "lint", str(tmp_path / "repro"),
        "--baseline", str(baseline),
        "--package-root", str(tmp_path),
        "--write-baseline",
    ])
    capsys.readouterr()
    assert rc == 0
    # The stale entry is gone, the live finding is covered, and no
    # temp file survives the atomic replace.
    rewritten = Baseline.load(str(baseline))
    assert [e.context for e in rewritten.entries] == ["f"]
    assert [p.name for p in tmp_path.glob("baseline.json.tmp*")] == []


def test_baseline_save_is_load_clean(tmp_path):
    path = tmp_path / "b.json"
    Baseline([BaselineEntry(
        path="a.py", code="det.environ", context="g",
        justification="reads a doc-only env var",
    )]).save(str(path))
    loaded = Baseline.load(str(path))
    assert len(loaded) == 1
    assert loaded.entries[0].code == "det.environ"
