"""Engine-level tests for :mod:`repro.lint`: baseline, reports, CLI.

The per-rule semantics live in ``test_lint_rules.py``; here the
machinery around them is pinned down — baseline round-trips (with the
mandatory-justification contract), the three report formats, the import
graph helpers, and the ``repro lint`` CLI exit-code contract
(0 clean / 1 violations / 2 usage-or-IO error).
"""

import ast
import json
import textwrap

import pytest

import repro.cli as cli
from repro.lint import (
    Baseline,
    BaselineEntry,
    LintEngine,
    Violation,
    build_import_graph,
    find_cycles,
    render_github,
    render_jsonl,
    render_text,
    suppressed_codes,
)

pytestmark = pytest.mark.usefixtures("scratch_cwd")

WALLCLOCK_SOURCE = """
    import time

    def stamp():
        return time.time()
"""


def write_tree(tmp_path, files):
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    return tmp_path


def run_lint(tmp_path, files, **engine_kwargs):
    write_tree(tmp_path, files)
    engine_kwargs.setdefault("package_root", str(tmp_path))
    engine = LintEngine(**engine_kwargs)
    return engine.run([str(tmp_path)])


# ---------------------------------------------------------------------------
# baseline
# ---------------------------------------------------------------------------

def test_baseline_suppresses_matching_violation(tmp_path):
    files = {"repro/sim/hot.py": WALLCLOCK_SOURCE}
    first = run_lint(tmp_path, files, select=["det.wallclock"])
    (violation,) = first.violations

    baseline = Baseline([
        BaselineEntry(
            path=violation.path,
            code=violation.code,
            context=violation.context,
            justification="fixture: grandfathered for the round-trip test",
        )
    ])
    second = run_lint(tmp_path, files, select=["det.wallclock"],
                      baseline=baseline)
    assert second.clean
    assert second.baselined == 1
    assert second.stale_baseline == []


def test_baseline_survives_line_drift(tmp_path):
    """Context matching means unrelated edits above do not unmatch."""
    first = run_lint(
        tmp_path, {"repro/sim/hot.py": WALLCLOCK_SOURCE},
        select=["det.wallclock"],
    )
    (violation,) = first.violations
    baseline = Baseline([
        BaselineEntry(violation.path, violation.code, violation.context,
                      "fixture: line-drift test")
    ])

    drifted = """
        import time

        PAD_A = 1
        PAD_B = 2

        def stamp():
            return time.time()
    """
    second = run_lint(
        tmp_path, {"repro/sim/hot.py": drifted},
        select=["det.wallclock"], baseline=baseline,
    )
    assert second.clean
    assert second.baselined == 1


def test_stale_baseline_entry_is_reported(tmp_path):
    baseline = Baseline([
        BaselineEntry("repro/sim/gone.py", "det.wallclock", "stamp",
                      "fixture: the finding was fixed")
    ])
    result = run_lint(
        tmp_path, {"repro/sim/clean.py": "X = 1\n"},
        select=["det.wallclock"], baseline=baseline,
    )
    assert result.clean  # stale entries warn, they do not fail the run
    assert result.stale_baseline == [
        "repro/sim/gone.py::stamp::det.wallclock"
    ]


def test_baseline_load_rejects_empty_justification(tmp_path):
    path = tmp_path / "baseline.json"
    path.write_text(json.dumps({
        "version": 1,
        "entries": [{
            "path": "a.py", "code": "det.wallclock",
            "context": "f", "justification": "   ",
        }],
    }))
    with pytest.raises(ValueError, match="empty justification"):
        Baseline.load(str(path))


def test_baseline_load_rejects_missing_keys_and_bad_version(tmp_path):
    path = tmp_path / "baseline.json"
    path.write_text(json.dumps({"version": 2, "entries": []}))
    with pytest.raises(ValueError, match="version"):
        Baseline.load(str(path))
    path.write_text(json.dumps({
        "version": 1,
        "entries": [{"path": "a.py", "code": "det.wallclock"}],
    }))
    with pytest.raises(ValueError, match="missing"):
        Baseline.load(str(path))


def test_baseline_missing_file_is_empty(tmp_path):
    baseline = Baseline.load(str(tmp_path / "nope.json"))
    assert len(baseline) == 0


def test_baseline_save_load_round_trip(tmp_path):
    entries = [
        BaselineEntry("b.py", "det.set-iter", "g", "reason two"),
        BaselineEntry("a.py", "det.wallclock", "f", "reason one"),
    ]
    path = tmp_path / "baseline.json"
    Baseline(entries).save(str(path))
    loaded = Baseline.load(str(path))
    assert [e.key() for e in loaded.entries] == [
        "a.py::f::det.wallclock", "b.py::g::det.set-iter",
    ]
    assert loaded.entries[0].justification == "reason one"


def test_from_violations_preserves_old_justifications():
    violation = Violation(
        path="a.py", line=3, col=1, code="det.wallclock",
        message="m", context="f",
    )
    previous = Baseline([
        BaselineEntry("a.py", "det.wallclock", "f", "curated reason")
    ])
    rebuilt = Baseline.from_violations([violation], previous)
    assert rebuilt.entries[0].justification == "curated reason"

    fresh = Baseline.from_violations([violation], Baseline())
    assert fresh.entries[0].justification.startswith("TODO")


# ---------------------------------------------------------------------------
# report formats
# ---------------------------------------------------------------------------

def lint_result(tmp_path):
    return run_lint(
        tmp_path, {"repro/sim/hot.py": WALLCLOCK_SOURCE},
        select=["det.wallclock"],
    )


def test_render_text_shows_location_tally_and_verdict(tmp_path):
    text = render_text(lint_result(tmp_path))
    assert "repro/sim/hot.py:5:" in text
    assert "det.wallclock" in text
    assert "repro lint: 1 violation (" in text


def test_render_jsonl_is_parseable_with_trailing_summary(tmp_path):
    lines = render_jsonl(lint_result(tmp_path)).splitlines()
    records = [json.loads(line) for line in lines]
    assert records[-1]["summary"]["violations"] == 1
    # Violations ride the repro.api/v1 schema as lint.finding records.
    from repro.api import parse_record

    parsed = parse_record(records[0])
    assert parsed.kind == "lint.finding"
    assert parsed.meta["code"] == "det.wallclock"
    assert parsed.counters["line"] == 5


def test_render_github_escapes_and_annotates(tmp_path):
    result = lint_result(tmp_path)
    out = render_github(result)
    first = out.splitlines()[0]
    assert first.startswith("::error file=")
    assert ",line=5," in first
    assert ",title=det.wallclock::" in first
    assert "\n::notice title=repro lint::" in out

    # workflow-command data escaping: %, CR, LF never appear raw
    hacked = LintEngine()  # only need a Violation to format
    del hacked
    tricky = result.violations[0]
    tricky = Violation(
        path=tricky.path, line=1, col=1, code=tricky.code,
        message="50% of\nruns", context="f",
    )
    result.violations[0] = tricky
    out = render_github(result)
    assert "50%25 of%0Aruns" in out


def test_render_text_clean_verdict(tmp_path):
    result = run_lint(
        tmp_path, {"repro/core/ok.py": "X = 1\n"},
        select=["det.wallclock"],
    )
    assert "repro lint: clean (1 files" in render_text(result)


# ---------------------------------------------------------------------------
# suppression comment parsing
# ---------------------------------------------------------------------------

def test_suppressed_codes_parses_lists_and_whitespace():
    line = "x = f()  # lint: disable=det.wallclock, det.set-iter"
    assert suppressed_codes(line) == {"det.wallclock", "det.set-iter"}
    assert suppressed_codes("x = f()  # just a comment") == set()


# ---------------------------------------------------------------------------
# import graph helpers
# ---------------------------------------------------------------------------

def _graph(sources):
    triples = [
        (name, ast.parse(textwrap.dedent(src)), name.endswith("__init__"))
        for name, src in sources.items()
    ]
    return build_import_graph(triples)


def test_find_cycles_reports_canonical_rotation():
    graph = _graph({
        "p.a": "from p import b\n",
        "p.b": "import p.c\n",
        "p.c": "import p.a\n",
    })
    cycles = find_cycles(graph.adjacency(include_lazy=False))
    assert cycles == [["p.a", "p.b", "p.c", "p.a"]]


def test_adjacency_trims_attribute_tails_to_known_modules():
    graph = _graph({
        "p.a": "from p.b import SomeClass\n",
        "p.b": "X = 1\n",
    })
    adjacency = graph.adjacency()
    assert adjacency["p.a"] == {"p.b"}


def test_lazy_imports_excluded_from_default_adjacency():
    graph = _graph({
        "p.a": "def f():\n    import p.b\n",
        "p.b": "X = 1\n",
    })
    assert graph.adjacency(include_lazy=False)["p.a"] == set()
    assert graph.adjacency(include_lazy=True)["p.a"] == {"p.b"}


# ---------------------------------------------------------------------------
# CLI exit-code contract
# ---------------------------------------------------------------------------

def test_cli_clean_tree_exits_zero(tmp_path, capsys):
    write_tree(tmp_path, {"repro/core/ok.py": "X = 1\n"})
    rc = cli.main([
        "lint", str(tmp_path), "--no-baseline",
        "--package-root", str(tmp_path),
    ])
    out = capsys.readouterr().out
    assert rc == 0
    assert "repro lint: clean" in out


def test_cli_violations_exit_one_all_formats(tmp_path, capsys):
    write_tree(tmp_path, {"repro/sim/hot.py": WALLCLOCK_SOURCE})
    for fmt in ("text", "jsonl", "github"):
        rc = cli.main([
            "lint", str(tmp_path), "--no-baseline", "--format", fmt,
            "--package-root", str(tmp_path),
        ])
        capsys.readouterr()
        assert rc == 1, fmt


def test_cli_unknown_select_code_exits_two(tmp_path, capsys):
    rc = cli.main(["lint", str(tmp_path), "--select", "det.nonsense"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "unknown rule codes" in err


def test_cli_rules_lists_catalog(capsys):
    rc = cli.main(["lint", "--rules"])
    out = capsys.readouterr().out
    assert rc == 0
    for code in ("det.wallclock", "layer.cycle", "flow.spec-pickle"):
        assert code in out
    assert "frozen.spec-picklable" not in out


def test_cli_retired_code_exits_two(tmp_path, capsys):
    """frozen.spec-picklable was folded into flow.spec-pickle; naming
    it is an error, never a silent no-op."""
    rc = cli.main([
        "lint", str(tmp_path), "--select", "frozen.spec-picklable",
    ])
    err = capsys.readouterr().err
    assert rc == 2
    assert "unknown rule codes frozen.spec-picklable" in err


def test_cli_write_baseline_then_clean(tmp_path, capsys, monkeypatch):
    write_tree(tmp_path, {"repro/sim/hot.py": WALLCLOCK_SOURCE})
    baseline_path = tmp_path / "baseline.json"
    rc = cli.main([
        "lint", str(tmp_path),
        "--baseline", str(baseline_path),
        "--write-baseline",
        "--package-root", str(tmp_path),
    ])
    capsys.readouterr()
    assert rc == 0
    payload = json.loads(baseline_path.read_text())
    assert payload["version"] == 1
    assert payload["entries"][0]["code"] == "det.wallclock"
    assert payload["entries"][0]["justification"].startswith("TODO")

    # the freshly written baseline makes the same tree lint clean
    rc = cli.main([
        "lint", str(tmp_path),
        "--baseline", str(baseline_path),
        "--package-root", str(tmp_path),
    ])
    out = capsys.readouterr().out
    assert rc == 0
    assert "1 baselined" in out


def test_cli_corrupt_baseline_exits_two(tmp_path, capsys):
    baseline_path = tmp_path / "baseline.json"
    baseline_path.write_text(json.dumps({"version": 99}))
    write_tree(tmp_path, {"repro/core/ok.py": "X = 1\n"})
    rc = cli.main([
        "lint", str(tmp_path), "--baseline", str(baseline_path),
    ])
    err = capsys.readouterr().err
    assert rc == 2
    assert "version" in err


def test_cli_syntax_error_exits_two(tmp_path, capsys):
    write_tree(tmp_path, {"repro/core/broken.py": "def f(:\n"})
    rc = cli.main([
        "lint", str(tmp_path), "--no-baseline",
        "--package-root", str(tmp_path),
    ])
    assert rc == 2
    assert "error:" in capsys.readouterr().err
