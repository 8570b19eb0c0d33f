"""Answers that must not depend on the process.  Types hash by identity, so
a set of them iterates in address order; the step rows walk a state's
members in serial (construction) order instead, so candidate order, goal
counts and ``refute`` witnesses are one answer under every hash seed.  The
suites draw in the ``repr`` order of values, so the oracle's report is
one text under every hash seed too."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
LEAFUPD = str(SRC.parent / "samples" / "leafupd.flux")

SCRIPT = f"""\
import json, sys
sys.path.insert(0, {str(SRC)!r})
from fluxq import EMPTY_SIGNATURE as E, parse_type, refute, subtype, value_str
from fluxq.subtyping import _Inclusion
left = parse_type("a[c[]],d[]")
right = parse_type("a[b[]],d[] | a[c[]],e[] | a[c[]|b[]],f[]")
verdict = subtype(E, left, right)
inc = _Inclusion(E)  # entered as ``subtype`` enters, to count its goals
assert inc.check(left, E.state(right)) == verdict
witness = refute(E, parse_type("a[b[]|c[]],(d[]|e[])"),
                 parse_type("a[b[]],d[] | a[c[]],e[]"))
print(json.dumps([verdict, inc.goals, value_str(witness)]))
"""


def test_goal_counts_and_witnesses_agree_across_hash_seeds():
    # before step rows were read in serial order, the goal count was 4, 5
    # or 6 and the witness a[b[]],e[] or a[c[]],d[], by seed
    answers = set()
    for seed in range(8):
        run = subprocess.run(
            [sys.executable, "-c", SCRIPT], capture_output=True, text=True,
            timeout=60, env={**os.environ, "PYTHONHASHSEED": str(seed)})
        assert run.returncode == 0, run.stderr
        answers.add(run.stdout)
    [answer] = answers
    assert json.loads(answer) == [False, 6, "a[b[]],e[]"]


@pytest.mark.parametrize("args", [[], [LEAFUPD, "--cases", "50"]],
                         ids=["defaults", "leafupd"])
def test_oracle_report_agrees_across_hash_seeds(args):
    reports = []
    for seed in (0, 1):
        run = subprocess.run(
            [sys.executable, "-m", "fluxq.cli", "--json", "oracle", *args],
            capture_output=True, timeout=60,
            env={**os.environ, "PYTHONHASHSEED": str(seed),
                 "PYTHONPATH": str(SRC)})
        assert run.returncode == 0, run.stderr
        reports.append(run.stdout)
    assert reports[0] == reports[1]
