"""The CI workflow runs the tests and nothing else: every ``run:`` command
installs with pip or runs pytest, so each check lives in a test that a
plain ``pytest`` run also runs.  The file is read line by line, as CI
installs no YAML parser."""

import re
from pathlib import Path

import pytest

WORKFLOW = Path(__file__).resolve().parent.parent / ".github/workflows/test.yml"
RUN = re.compile(r"(\s*)(?:- )?run:\s*(.*)")
# a word with no shell operator and no command substitution
WORD = r"[^\s;&|<>`()]+"
# environment assignments, then pip install or pytest and their arguments
ALLOWED = re.compile(rf"(?:\w+={WORD}\s+)*python -m (?:pip install|pytest)"
                     rf"(?:\s+{WORD})*")
# the loop that runs Tier-1 under each hash seed
LOOP = re.compile(r"for \w+ in [\w ]+; do|done")


def run_commands(text: str) -> list[str]:
    """Each command line of the ``run:`` keys in ``text``: the value itself,
    or each line of a ``|`` block."""
    lines, commands = text.splitlines(), []
    for i, line in enumerate(lines):
        m = RUN.fullmatch(line)
        if m is None:
            continue
        indent, value = len(m[1]), m[2].strip()
        if value not in ("|", ">"):
            commands.append(value)
            continue
        for inner in lines[i + 1:]:
            if inner.strip() and len(inner) - len(inner.lstrip()) <= indent:
                break
            if inner.strip():
                commands.append(inner.strip())
    return commands


def strays(text: str) -> list[str]:
    return [c for c in run_commands(text)
            if not (ALLOWED.fullmatch(c) or LOOP.fullmatch(c))]


def test_workflow_runs_only_pip_and_pytest():
    commands = run_commands(WORKFLOW.read_text())
    assert any("python -m pytest" in c for c in commands)
    assert strays(WORKFLOW.read_text()) == []


@pytest.mark.parametrize("step", [
    "      - run: python -m fluxq.cli check samples/leaves.muxq\n",
    "      - run: python -m pytest -q; rm -rf src\n",
    "      - run: X=$(make) python -m pytest -q\n",
    "      - name: inline\n        run: |\n          python -m pytest -q\n"
    "          python -c 'import fluxq'\n",
    "      - run: >\n          python -m pip install pytest &&\n"
    "          make\n",
], ids=["command", "chained", "substituted", "block", "folded"])
def test_a_stray_command_is_caught(step):
    assert strays(step) != []
