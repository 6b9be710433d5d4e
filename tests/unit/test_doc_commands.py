"""Every ``python -m repro …`` command line in the docs parses.

The docs are where users copy commands from, so a renamed subcommand or
flag must take its documented uses along.  Backslash continuations are
joined; a line containing ``...`` (or ``…``) is an elided sketch and is
skipped; anything after a shell comment, redirect, pipe or ``&`` is not
the command's.
"""

import re
import shlex
from pathlib import Path

import pytest

from repro.cli import build_parser

ROOT = Path(__file__).resolve().parents[2]
#: The user docs plus the repo's verify-skill notes (a dot-directory).
DOCS = [ROOT / "README.md", ROOT / "EXPERIMENTS.md",
        ROOT / ".claude/skills/verify/SKILL.md"]
COMMAND = re.compile(r"python -m repro ([^`]*)")
SHELL_OPERATORS = {"&", "&&", "|", ";", ">", ">>", "2>", "2>&1"}


def documented_commands():
    commands = []
    for path in DOCS:
        doc = path.relative_to(ROOT)
        text = path.read_text().replace("\\\n", " ")
        for line in text.splitlines():
            match = COMMAND.search(line)
            if match is None or "..." in line or "\u2026" in line:
                continue
            argv = []
            for token in shlex.split(match.group(1), comments=True):
                if token in SHELL_OPERATORS:
                    break
                argv.append(token)
            commands.append(pytest.param(argv, id=f"{doc}:{' '.join(argv)}"))
    return commands


COMMANDS = documented_commands()


def test_docs_document_commands():
    assert len(COMMANDS) >= 30


@pytest.mark.parametrize("argv", COMMANDS)
def test_documented_command_parses(argv, capsys):
    try:
        build_parser().parse_args(argv)
    except SystemExit:
        pytest.fail(f"repro {' '.join(argv)}: {capsys.readouterr().err}")
