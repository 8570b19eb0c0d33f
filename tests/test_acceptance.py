"""Acceptance gate: the headline behaviors, each with its tolerance and a
wall-clock budget, printed one line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import sys
import time
from contextlib import contextmanager
from pathlib import Path

from fluxq import (
    BOOL, Element, EMPTY_DECLS, EMPTY_SIGNATURE, ForestBinding, FunctionDecl,
    GenConfig, GlobalDecls, Multiplicity, Signature, STRING, TreeBinding,
    Var, WildcardTest, BoolTest, LabelTest, StringTest,
    check_query_program, check_update_program, parse_expr, parse_program,
    parse_stmt, parse_type, subtype, synth_expr, synth_for, synth_stmt,
)
from fluxq import test_subtype as passes_test
from fluxq.cli import main as cli_main
from fluxq.suites import (
    QUERY, UPDATE, downward_monotonicity, filter_commutation, homomorphism,
    oracle_agreement, soundness,
)

SAMPLES = Path(__file__).resolve().parent.parent / "samples"
E = EMPTY_SIGNATURE
TREE_SIG = Signature({"Tree": parse_type("tree[leaf[string] | node[Tree*]]")})
LEAVES_DECLS = GlobalDecls(functions={"leaves": FunctionDecl(
    "leaves", (("x", Var("Tree")),), parse_type("leaf[string]*"),
    parse_expr("()"))})


@contextmanager
def criterion(number: int, name: str, budget_seconds: float):
    start = time.perf_counter()
    failed = True
    try:
        yield
        failed = False
    finally:
        elapsed = time.perf_counter() - start
        status = "FAIL" if failed else ("PASS" if elapsed < budget_seconds
                                        else "FAIL(over-budget)")
        print(f"ACCEPTANCE {number:02d} {name}: {status} ({elapsed:.2f}s, "
              f"budget {budget_seconds:.0f}s)", file=sys.stderr)
        if not failed:
            assert elapsed < budget_seconds, (
                f"criterion {number} exceeded its {budget_seconds}s budget: "
                f"{elapsed:.2f}s")


def test_criterion_01_flagship_iteration():
    with criterion(1, "flagship-iteration", 1.0):
        env = {"x": TreeBinding(parse_type("a[b[]*,c[]?]"))}
        synthesized = synth_expr(
            EMPTY_DECLS, E, env, parse_expr("for $y in $x/child return $y"))
        assert synthesized == parse_type("b[]*,c[]?")  # structural equality
        assert cli_main(["subtype", "b[]*,c[]?", "(b[]|c[])*"]) == 0


def test_criterion_02_recursive_query_program():
    with criterion(2, "recursive-query-program", 1.0):
        # end to end: signature, recursive function, sugar, main ascription
        text = (SAMPLES / "leaves.muxq").read_text()
        prog, sig = parse_program(text)
        assert check_query_program(sig, prog) == []
        # the same program with its main query under an ambient binding
        open_prog, _ = parse_program(
            text.replace('leaves(tree[node[tree[leaf["u"]], tree[leaf["v"]]]])',
                         "leaves($x)"))
        assert check_query_program(
            sig, open_prog, {"x": ForestBinding(Var("Tree"))}) == []
        # the iteration at the heart of the recursion: iterating the
        # recursive call over the unfolded tree sequence is exact
        loop = synth_for(LEAVES_DECLS, TREE_SIG, {}, "z",
                         parse_type("tree[leaf[string]|node[Tree*]]*"),
                         parse_expr("leaves($z)"))
        assert loop == parse_type("(leaf[string]*)*")
        assert synth_for(LEAVES_DECLS, TREE_SIG, {}, "z", parse_type("Tree*"),
                         parse_expr("leaves($z)")) == parse_type(
                             "(leaf[string]*)*")
        # the concatenated body type passes the declared ascription
        assert subtype(TREE_SIG, parse_type("leaf[string],(leaf[string]*)*"),
                       parse_type("leaf[string]*"))
        # the filter-based function body synthesizes a noisier shape; it
        # must still sit below the ascription
        fn = prog.functions[0]
        body_type = synth_expr(LEAVES_DECLS, TREE_SIG,
                               {fn.params[0][0]: ForestBinding(Var("Tree"))},
                               fn.body)
        assert body_type == parse_type("(leaf[string]|()),(()|(leaf[string]*)*)")
        assert subtype(TREE_SIG, body_type, parse_type("leaf[string]*"))


def test_criterion_03_golden_update_derivation():
    with criterion(3, "golden-update-derivation", 1.0):
        synthesized = synth_stmt(
            EMPTY_DECLS, E, {}, Multiplicity.PLURAL,
            parse_type("a[b[]*,c[]],d[]"),
            parse_stmt("iter[a?children[iter[b? right[insert c[]]]]]"))
        assert synthesized == parse_type("a[(b[],c[])*,c[]],d[]")
        assert cli_main(["check", str(SAMPLES / "insert_after.flux")]) == 0


def test_criterion_04_recursive_update_procedure():
    with criterion(4, "recursive-update-procedure", 1.0):
        prog, sig = parse_program((SAMPLES / "leafupd.flux").read_text())
        assert check_update_program(sig, prog) == []
        # the recursive call's input premise
        unfolded = Element("tree", parse_type("leaf[string]|node[Tree*]"))
        assert subtype(sig, unfolded, Var("Tree"))


def test_criterion_05_subtype_spot_checks():
    with criterion(5, "subtype-spot-checks", 1.0):
        assert subtype(E, parse_type("a[],a[]"), parse_type("a[]*"))
        assert not subtype(E, parse_type("a[],a[]"), parse_type("a[]"))
        assert subtype(E, parse_type("c[]?"), parse_type("c[]?|d[]*"))
        assert passes_test(BOOL, BoolTest())
        assert passes_test(STRING, StringTest())
        assert passes_test(Element("n", parse_type("a[]*")), LabelTest("n"))
        assert passes_test(Element("n", parse_type("a[]*")), WildcardTest())


def test_criterion_06_oracle_equivalence():
    with criterion(6, "oracle-equivalence", 300.0):
        result = oracle_agreement(
            GenConfig(labels=("a", "b"), depth=3, width=3), E)
        assert result.cases >= 2000  # all pairs over the size-4 corpus
        assert result.failures == [], result.failures[:3]


def test_criterion_07_downward_monotonicity():
    with criterion(7, "downward-monotonicity", 120.0):
        cfg = GenConfig(seed=42, cases=1000)
        queries = downward_monotonicity(QUERY, cfg, E)
        assert queries.cases == 1000
        assert queries.failures == [], queries.failures[:3]
        updates = downward_monotonicity(UPDATE, cfg, E)
        assert updates.cases == 1000
        assert updates.failures == [], updates.failures[:3]


def test_criterion_08_homomorphism_laws():
    with criterion(8, "homomorphism-laws", 60.0):
        cfg = GenConfig(seed=42, cases=500)
        queries = homomorphism(QUERY, cfg, E)
        assert queries.cases == 500
        assert queries.failures == [], queries.failures[:3]
        updates = homomorphism(UPDATE, cfg, E)
        assert updates.cases == 500
        assert updates.failures == [], updates.failures[:3]


def test_criterion_09_empirical_type_soundness():
    with criterion(9, "empirical-type-soundness", 300.0):
        cfg = GenConfig(seed=42, cases=500)
        queries = soundness(QUERY, cfg, E)
        assert queries.cases == 500
        assert queries.failures == [], queries.failures[:3]
        updates = soundness(UPDATE, cfg, E)
        assert updates.cases == 500
        assert updates.failures == [], updates.failures[:3]


def test_criterion_10_filter_language_commutation():
    with criterion(10, "filter-language-commutation", 120.0):
        for k in range(4):
            result = filter_commutation(E, ("a", "b"), size=4, k=k)
            assert result.failures == [], (k, result.failures[:3])
