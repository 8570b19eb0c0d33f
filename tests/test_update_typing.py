"""Algorithmic update typechecking: the statement judgment with
multiplicities, iteration, and program checking."""

import pytest

from fluxq import (
    BOOL, EMPTY, EMPTY_DECLS, EMPTY_SIGNATURE, ForestBinding, GlobalDecls,
    Multiplicity, ProcedureDecl, Signature, Skip, SourceSpan, TypeCheckFailure,
    Var,
    check_program, check_stmt, check_update_program, parse_program,
    parse_stmt, parse_type, synth_iter, synth_stmt, type_str,
)

E = EMPTY_SIGNATURE
SING = Multiplicity.SINGULAR
PLUR = Multiplicity.PLURAL
TREE_SIG = Signature({"Tree": parse_type("tree[leaf[string] | node[Tree*]]")})
LEAFUPD_DECLS = GlobalDecls(procedures={"leafupd": ProcedureDecl(
    "leafupd", (("x", parse_type("string")),), parse_type("Tree"),
    parse_type("Tree"), Skip())})


def synth(text, mult, t, env=None, decls=EMPTY_DECLS, sig=E):
    return synth_stmt(decls, sig, env or {}, mult, parse_type(t),
                      parse_stmt(text))


class TestSynthStmt:
    def test_skip_is_identity(self):
        assert synth("skip", PLUR, "a[]*,b[]") == parse_type("a[]*,b[]")
        assert synth("skip", SING, "a[]") == parse_type("a[]")

    def test_insert_after_each_matching_child(self):
        got = synth("iter[a?children[iter[b? right[insert c[]]]]]", PLUR,
                    "a[b[]*,c[]],d[]")
        assert got == parse_type("a[(b[],c[])*,c[]],d[]")

    def test_rename_rewrites_label(self):
        assert synth("rename n", SING, "m[b[]]") == parse_type("n[b[]]")

    def test_unmatched_test_returns_focus_unchanged(self):
        assert synth("b?skip", SING, "c[]") == parse_type("c[]")
        assert synth("b?insert d[]", SING, "c[]") == parse_type("c[]")

    def test_matched_test_runs_body(self):
        assert synth("b?delete", SING, "b[]") == EMPTY
        assert synth("*?rename n", SING, "m[]") == parse_type("n[]")
        assert synth("bool?skip", SING, "bool") == BOOL

    def test_insert_on_empty_plural_focus(self):
        assert synth("insert c[]", PLUR, "()") == parse_type("c[]")

    def test_delete_yields_empty(self):
        assert synth("delete", PLUR, "a[]*") == EMPTY
        assert synth("delete", SING, "a[]") == EMPTY

    def test_left_right_grow_around_focus(self):
        assert synth("left[insert c[]]", PLUR, "b[]") == parse_type("c[],b[]")
        assert synth("right[insert c[]]", SING, "b[]") == parse_type("b[],c[]")

    def test_children_rewraps_element(self):
        assert synth("children[delete]", SING, "a[b[]*]") == parse_type("a[()]")

    def test_sequencing_threads_types(self):
        assert synth("delete; insert c[]", PLUR, "a[]") == parse_type("c[]")

    def test_sequencing_after_delete_at_singular(self):
        # the focus type may become plural mid-sequence; later statements
        # still check at the same multiplicity
        assert synth("delete; skip", SING, "a[]") == EMPTY

    def test_if_joins_branches(self):
        got = synth("if true then delete else skip", PLUR, "a[]")
        assert got == parse_type("()|a[]")

    def test_snapshot_binds_focus(self):
        got = synth("snapshot $db in children[(delete; insert $db)]", SING,
                    "a[b[]]")
        assert got == parse_type("a[a[b[]]]")

    def test_let_binds_query_result(self):
        got = synth('let $x = c[] in (delete; insert $x)', PLUR, "b[]*")
        assert got == parse_type("c[]")

    def test_procedure_call_uses_declared_output(self):
        env = {"x": ForestBinding(parse_type("string"))}
        got = synth("leafupd($x)", SING,
                    "tree[leaf[string]|node[Tree*]]", env, LEAFUPD_DECLS,
                    TREE_SIG)
        assert got == Var("Tree")


class TestSynthStmtErrors:
    def expect_rule(self, rule, text, mult, t, env=None, decls=EMPTY_DECLS,
                    sig=E):
        with pytest.raises(TypeCheckFailure) as exc:
            synth(text, mult, t, env, decls, sig)
        assert exc.value.diagnostic.rule == rule
        return exc.value.diagnostic

    def test_insert_requires_plural(self):
        self.expect_rule("update/insert-multiplicity", "insert c[]", SING, "a[]")

    def test_insert_requires_empty_focus(self):
        diag = self.expect_rule("update/insert-focus", "insert c[]", PLUR,
                                "a[]*")
        assert "left[...]" in diag.message or "left" in diag.message

    def test_insert_requires_syntactically_empty_focus(self):
        self.expect_rule("update/insert-focus", "insert c[]", PLUR, "()|()")

    def test_rename_requires_singular(self):
        self.expect_rule("update/rename-multiplicity", "rename n", PLUR, "a[]")

    def test_rename_requires_element(self):
        self.expect_rule("update/rename-focus", "rename n", SING, "bool")

    def test_test_requires_singular(self):
        self.expect_rule("update/test-multiplicity", "b?skip", PLUR, "b[]*")

    def test_test_requires_atomic_focus(self):
        self.expect_rule("update/test-focus", "delete; b?skip", SING, "b[]")

    def test_children_requires_element(self):
        self.expect_rule("update/children-focus", "children[skip]", SING,
                         "bool")

    def test_children_requires_singular(self):
        self.expect_rule("update/children-multiplicity", "children[skip]",
                         PLUR, "a[b[]]")

    def test_iter_requires_plural(self):
        self.expect_rule("update/iter-multiplicity", "iter[skip]", SING, "a[]")

    def test_condition_must_be_boolean(self):
        self.expect_rule("update/if-condition", 'if "s" then skip else skip',
                         PLUR, "a[]")

    def test_undeclared_procedure(self):
        self.expect_rule("update/call-undeclared", "nope()", PLUR, "a[]")

    def test_procedure_input_not_subtype(self):
        self.expect_rule("update/call-input", 'leafupd("s")', PLUR, "b[]",
                         None, LEAFUPD_DECLS, TREE_SIG)

    def test_procedure_argument_not_subtype(self):
        self.expect_rule("update/call-argument", "leafupd(true)", SING,
                         "tree[leaf[string]|node[Tree*]]", None,
                         LEAFUPD_DECLS, TREE_SIG)


class TestSynthIter:
    def test_iteration_grows_matching_atoms(self):
        got = synth_iter(EMPTY_DECLS, E, {}, parse_type("b[]*,c[]"),
                         parse_stmt("b?right[insert c[]]"))
        assert got == parse_type("(b[],c[])*,c[]")

    def test_empty_focus(self):
        assert synth_iter(EMPTY_DECLS, E, {}, EMPTY, parse_stmt("delete")) == EMPTY

    def test_recursive_procedure_iteration(self):
        env = {"x": ForestBinding(parse_type("string"))}
        got = synth_iter(LEAFUPD_DECLS, TREE_SIG, env, parse_type("Tree*"),
                         parse_stmt("leafupd($x)"))
        assert got == parse_type("Tree*")


def distinct_nodes(t):
    """Number of distinct type nodes reachable from ``t``, by identity."""
    seen = {}
    stack = [t]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack += [getattr(node, f) for f in ("left", "right", "inner", "content")
                      if hasattr(node, f)]
    return len(seen)


class TestSharedIteration:
    """n ``if``s double the focus type n times, as a DAG of n joins; typing
    ``iter`` over it must keep that sharing rather than walk 2^n copies."""

    @staticmethod
    def ifs_then_iter(n):
        return parse_stmt("; ".join(["if true then skip else skip"] * n
                                    + ["iter[a?rename b]"]))

    def test_ifs_before_iter_stay_linear(self):
        focus = parse_type("(a[]|b[])*")
        for n in (8, 16, 24):
            got = synth_stmt(EMPTY_DECLS, E, {}, PLUR, focus, self.ifs_then_iter(n))
            assert distinct_nodes(got) <= 2 * n
            ok, diag = check_stmt(EMPTY_DECLS, E, {}, PLUR, focus,
                                  self.ifs_then_iter(n), parse_type("b[]*"))
            assert ok and diag is None

    def test_printed_text_has_every_copy(self):
        # the text itself is 2^n copies long, so it is checked at n = 16
        # (786,429 characters) rather than n = 24 (about 200 MB)
        got = synth_stmt(EMPTY_DECLS, E, {}, PLUR, parse_type("(a[]|b[])*"),
                         self.ifs_then_iter(16))
        text = "(b[]|b[])*|(b[]|b[])*"
        for _ in range(15):
            text = f"({text})|{text}"
        assert type_str(got) == text


class TestCheckStmt:
    def test_insert_update_against_expected_type(self):
        ok, diag = check_stmt(
            EMPTY_DECLS, E, {}, PLUR, parse_type("a[b[]*,c[]],d[]"),
            parse_stmt("iter[a?children[iter[b? right[insert c[]]]]]"),
            parse_type("a[(b[],c[])*,c[]],d[]"))
        assert ok and diag is None

    def test_skip_against_wrong_type(self):
        ok, diag = check_stmt(EMPTY_DECLS, E, {}, SING, parse_type("b[]"),
                              Skip(), parse_type("c[]"))
        assert not ok
        assert diag.rule == "update/ascription"

    def test_delete_against_empty(self):
        ok, _ = check_stmt(EMPTY_DECLS, E, {}, PLUR, parse_type("a[]*,b[]"),
                           parse_stmt("delete"), EMPTY)
        assert ok


LEAFUPD_PROGRAM = """
type Tree = tree[leaf[string] | node[Tree*]]

declare procedure leafupd($x : string) : Tree => Tree {
  iter[children[iter[ leaf?children[(delete; insert $x)]
                    ; node?children[iter[leafupd($x)]] ]]]
};

update iter[leafupd("v")] : Tree* => Tree*
"""


class TestCheckUpdateProgram:
    def test_recursive_procedure_program_is_clean(self):
        prog, sig = parse_program(LEAFUPD_PROGRAM)
        assert check_update_program(sig, prog) == []

    def test_procedure_output_ascription_failure(self):
        prog, sig = parse_program(
            "declare procedure p() : b[] => () { skip };\n"
            "update skip : () => ()")
        diags = check_update_program(sig, prog)
        assert len(diags) == 1
        assert "in procedure p" in diags[0].message

    def test_main_update_widens_by_subtyping(self):
        prog, sig = parse_program("update skip : b[] => b[]*")
        assert check_update_program(sig, prog) == []

    def test_duplicate_procedure_diagnosed(self):
        prog, sig = parse_program(
            "declare procedure p() : () => () { skip };\n"
            "declare procedure p() : () => () { skip };\n"
            "update skip : () => ()")
        diags = check_update_program(sig, prog)
        assert any(d.rule == "program/duplicate-procedure" for d in diags)

    def test_functions_usable_inside_updates(self):
        prog, sig = parse_program(
            "declare function flag() : bool { true };\n"
            "update if flag() then delete else skip : a[] => a[]?")
        assert check_update_program(sig, prog) == []

    def test_undeclared_variable_in_annotations(self):
        prog, sig = parse_program("update skip : Gone => Gone")
        assert [d.rule for d in check_update_program(sig, prog)] == [
            "signature/undeclared"]


class TestCallAndConditionDiagnostics:
    """The full message, rule and span of the call and ``if`` diagnostics;
    of several faults of one call the first in the order undeclared, focus
    against the input type, arity, arguments is reported."""

    HEADER = "declare procedure p($x : a[]) : b[] => b[] { skip };\n"

    def diags(self, main, focus="b[]"):
        prog, sig = parse_program(
            f"{self.HEADER}update {main} : {focus} => b[]", "u.flux")
        return [(d.message, d.rule, d.span)
                for d in check_update_program(sig, prog)]

    @staticmethod
    def span(begin, end, begin_col, end_col):
        return SourceSpan("u.flux", begin, end, 2, begin_col, 2, end_col)

    def test_undeclared_before_input(self):
        assert self.diags("nope(c[])", "c[]") == [(
            "undeclared procedure nope", "update/call-undeclared",
            self.span(60, 69, 8, 17))]

    def test_input_before_arity(self):
        assert self.diags("p()", "c[]") == [(
            "focus has type c[], which is not a subtype of p's input type b[]",
            "update/call-input", self.span(60, 63, 8, 11))]

    def test_arity(self):
        assert self.diags("p()") == [(
            "p expects 1 argument(s), got 0", "update/call-arity",
            self.span(60, 63, 8, 11))]

    def test_arity_before_arguments(self):
        assert self.diags("p(c[], c[])") == [(
            "p expects 1 argument(s), got 2", "update/call-arity",
            self.span(60, 71, 8, 19))]

    def test_argument_at_its_own_span(self):
        assert self.diags("p(c[])") == [(
            "argument 1 of p has type c[], expected a subtype of a[]",
            "update/call-argument", self.span(62, 65, 10, 13))]

    def test_if_condition(self):
        assert self.diags('if "s" then skip else skip') == [(
            "condition has type string, not bool", "update/if-condition",
            self.span(60, 86, 8, 34))]

    def test_in_a_procedure_body(self):
        prog, sig = parse_program(
            "declare procedure q() : b[] => b[] { p() };\n" + self.HEADER
            + "update skip : () => ()", "u.flux")
        assert [(d.message, d.rule, d.span)
                for d in check_update_program(sig, prog)] == [(
            "in procedure q: p expects 1 argument(s), got 0",
            "update/call-arity", SourceSpan("u.flux", 37, 40, 1, 38, 1, 41))]


class TestCheckProgram:
    """One checker for both program kinds: the main's synthesized type when
    every check passes, else no type and the diagnostics."""

    def test_query_program_type(self):
        prog, sig = parse_program("query a[], b[] : (a[]|b[])*")
        assert check_program(sig, prog) == (parse_type("a[],b[]"), [])

    def test_update_program_type(self):
        prog, sig = parse_program(LEAFUPD_PROGRAM)
        main, diags = check_program(sig, prog)
        assert diags == []
        assert type_str(main) == "Tree*"

    def test_no_type_when_a_body_fails(self):
        prog, sig = parse_program(
            "declare procedure p() : b[] => () { skip };\n"
            "update skip : () => ()")
        main, diags = check_program(sig, prog)
        assert main is None
        assert [d.rule for d in diags] == ["update/ascription"]

    def test_no_type_when_the_ascription_fails(self):
        prog, sig = parse_program("query a[] : b[]")
        main, diags = check_program(sig, prog)
        assert main is None
        assert [d.rule for d in diags] == ["query/ascription"]

    def test_undeclared_environment_type_reported_at_program_span(self):
        prog, sig = parse_program("query () : ()")
        main, diags = check_program(sig, prog,
                                    {"x": ForestBinding(Var("Missing"))})
        assert main is None
        assert [(d.rule, d.span) for d in diags] == [
            ("signature/undeclared", prog.span)]
        assert "Missing" in diags[0].message
