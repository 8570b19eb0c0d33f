"""The three workloads.  Each builds its items from a seed, runs one item
through fluxq's public functions (``run``), and checks the result against
the item's known answer (``check``), which never comes from the code under
test.

fluxq functions are looked up on their modules at call time, so that the
traced run sees the wrappers ``tracing.Tracer`` installs there.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import re
from pathlib import Path

import corpus
import ref


class Typecheck:
    """``fluxq --json check FILE`` in process, over the typecheck corpus."""

    name = "typecheck"
    collect_every = 1

    def __init__(self, seed: int, root: Path, work: Path):
        import fluxq.cli
        self.cli = fluxq.cli
        folder = work / f"typecheck-{seed}"
        folder.mkdir(parents=True, exist_ok=True)
        self.items = corpus.typecheck_corpus(seed)
        for p in self.items:
            if p.text is None:
                p.path = str(root / p.path)
                continue
            suffix = ".flux" if re.search(r"^update ", p.text, re.M) else ".muxq"
            path = folder / f"{p.stratum}-{p.name}{suffix}"
            path.write_text(p.text, encoding="utf-8")
            p.path = str(path)

    def trace_items(self):
        return self.items

    def stratum(self, p) -> str:
        return p.stratum

    def run(self, p):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = self.cli.main(["--json", "check", p.path, *p.extra])
        return rc, out.getvalue(), err.getvalue()

    def check(self, p, result) -> bool:
        rc, out, err = result
        if rc != p.rc or "Traceback" in err:
            return False
        if rc == 2:
            return out == "" and err.startswith("parse error")
        report = json.loads(out)
        rules = tuple(d["rule"] for d in report["diagnostics"])
        if rc == 0:
            return report == {"status": "ok", "type": p.type, "diagnostics": []}
        return (report["status"] == "error" and report["type"] is None
                and rules == p.rules)

    def type_chars(self, p, result) -> int:
        rc, out, _ = result
        return len(json.loads(out)["type"]) if rc == 0 else 0


def _to_ref(t):
    """A fluxq type as a ``ref`` tuple, read off its constructor names."""
    kind = type(t).__name__
    if kind == "Empty":
        return ref.EMPTY
    if kind == "BoolAtom":
        return ref.BOOL
    if kind == "StringAtom":
        return ref.STRING
    if kind == "Element":
        return ref.elem(t.label, _to_ref(t.content))
    if kind == "Or":
        return ref.alt(_to_ref(t.left), _to_ref(t.right))
    if kind == "Seq":
        return ref.seq(_to_ref(t.left), _to_ref(t.right))
    if kind == "Star":
        return ref.star(_to_ref(t.inner))
    assert kind == "Var", kind
    return ref.var(t.name)


class Oracle:
    """Subtyping against bounded enumeration, over every pair of types of
    AST size at most 5 with labels a and b; values to depth 4, width 3."""

    name = "oracle"
    SIZE, LABELS, DEPTH, WIDTH = 5, ("a", "b"), 4, 3
    TRACE_ROWS = 64  # left-hand types in the traced pass
    collect_every = 257  # once per left-hand type: pairs are tiny

    def __init__(self, seed: int, root: Path, work: Path):
        from fluxq import enumeration, subtyping, types, values
        self.enumeration, self.subtyping, self.values = enumeration, subtyping, values
        self.sig = types.EMPTY_SIGNATURE
        self.types = enumeration.types_upto(self.SIZE, self.LABELS)
        if len(self.types) != 257:
            raise SystemExit(f"types_upto gave {len(self.types)} types, not 257")
        bounded = [ref.bounded_values(_to_ref(t), self.DEPTH, self.WIDTH)
                   for t in self.types]
        self.expected = [[left <= right for right in bounded] for left in bounded]
        rng = random.Random(seed)
        self.rows = list(range(len(self.types)))
        self.cols = list(range(len(self.types)))
        rng.shuffle(self.rows)
        rng.shuffle(self.cols)
        self.items = [(i, j) for i in self.rows for j in self.cols]
        self._row = -1
        self._values = ()

    def trace_items(self):
        return self.items[:self.TRACE_ROWS * len(self.cols)]

    def stratum(self, item) -> str:
        return "pairs"

    def run(self, item):
        i, j = item
        left, right = self.types[i], self.types[j]
        if i != self._row:
            # one enumeration per left-hand type, in a fixed order so that
            # the membership calls repeat exactly
            self._values = sorted(self.enumeration.values_upto(
                self.sig, left, self.DEPTH, self.WIDTH), key=repr)
            self._row = i
        verdict = self.subtyping.subtype(self.sig, left, right)
        member = self.values.member
        enumerated = all(member(self.sig, v, right) for v in self._values)
        return verdict, enumerated

    def check(self, item, result) -> bool:
        i, j = item
        return result[0] == result[1] == self.expected[i][j]

    def type_chars(self, item, result) -> int:
        return 0


class Run:
    """Large seeded documents through the sample programs: parse, check the
    input's membership, evaluate, check the output's membership, print."""

    name = "run"
    collect_every = 1

    def __init__(self, seed: int, root: Path, work: Path):
        from fluxq import evaluator, parser, printer, types, values
        self.parser, self.evaluator, self.printer, self.values = (
            parser, evaluator, printer, values)
        samples = root / "samples"

        def load(name: str, replace: tuple[str, str] | None = None):
            text = (samples / name).read_text(encoding="utf-8")
            if replace:
                if replace[0] not in text:
                    raise SystemExit(f"{name} no longer contains {replace[0]!r}")
                text = text.replace(*replace)
            return parser.parse_program(text, name)

        self.programs = {}
        for stratum, name in (("insert_after", "insert_after.flux"),
                              ("leafupd", "leafupd.flux")):
            prog, sig = load(name)
            rt = evaluator.runtime_for_update_program(prog)
            self.programs[stratum] = ("update", prog, sig, rt, prog.input, prog.output)
        # the leaves function applied to a free $x : Tree
        prog, sig = load("leaves.muxq", (
            'leaves(tree[node[tree[leaf["u"]], tree[leaf["v"]]]])', "leaves($x)"))
        self.programs["leaves_x"] = ("query", prog, sig,
                                     evaluator.runtime_for_query_program(prog),
                                     parser.parse_type("Tree"), prog.ascription)
        # $x is the tree variable the sample's header binds to a[b[]*,c[]?]
        prog, sig = load("children.muxq")
        self.programs["children"] = ("query", prog, sig,
                                     evaluator.runtime_for_query_program(prog),
                                     parser.parse_type("a[b[]*,c[]?]"), prog.ascription)
        self.flat = {"flat_alt": parser.parse_type("(a[]|b[])*"),
                     "flat_pair": parser.parse_type("(a[],a[]?)*")}
        self.empty_sig = types.EMPTY_SIGNATURE
        self.items = corpus.run_corpus(seed)

    def trace_items(self):
        return self.items

    def stratum(self, d) -> str:
        return d.stratum

    def run(self, d):
        member = self.values.member
        v = self.parser.parse_value(d.text)
        if d.stratum in self.flat:
            return member(self.empty_sig, v, self.flat[d.stratum])
        kind, prog, sig, rt, in_type, out_type = self.programs[d.stratum]
        input_ok = member(sig, v, in_type)
        if kind == "update":
            out = self.evaluator.apply_update(rt, {}, v, prog.main)
        else:
            out = self.evaluator.eval_query(rt, {"x": v}, prog.main)
        output_ok = member(sig, out, out_type)
        return input_ok, output_ok, self.printer.value_str(out)

    def check(self, d, result) -> bool:
        if d.stratum in self.flat:
            return result is d.expected
        return result == (True, True, d.expected)

    def type_chars(self, d, result) -> int:
        return 0


WORKLOADS = {w.name: w for w in (Typecheck, Oracle, Run)}
