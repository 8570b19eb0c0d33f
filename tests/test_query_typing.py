"""Algorithmic query typechecking: label filtering, synthesis, iteration,
and whole-program checking, pinned against hand-derived outputs."""

import pytest

from fluxq import (
    BOOL, Element, EMPTY, EMPTY_DECLS, EMPTY_SIGNATURE, ForestBinding,
    FunctionDecl, GlobalDecls, Or, Signature, SourceSpan, STRING, TreeBinding,
    TypeCheckFailure, Var, check_expr, check_query_program, filter_label,
    parse_expr, parse_program, parse_type, synth_expr, synth_for, type_str,
)

E = EMPTY_SIGNATURE
TREE_SIG = Signature({"Tree": parse_type("tree[leaf[string] | node[Tree*]]")})
LEAVES_DECLS = GlobalDecls(functions={"leaves": FunctionDecl(
    "leaves", (("x", parse_type("Tree")),), parse_type("leaf[string]*"),
    parse_expr("()"))})


def synth(text, env=None, decls=EMPTY_DECLS, sig=E):
    return synth_expr(decls, sig, env or {}, parse_expr(text))


class TestFilterLabel:
    def test_matching_element_is_kept(self):
        t = parse_type("n[b[]*]")
        assert filter_label(E, t, "n") == t

    def test_empty_maps_to_empty(self):
        assert filter_label(E, EMPTY, "n") == EMPTY

    def test_mismatching_atoms_map_to_empty(self):
        assert filter_label(E, parse_type("m[]"), "n") == EMPTY
        assert filter_label(E, BOOL, "n") == EMPTY
        assert filter_label(E, STRING, "n") == EMPTY

    def test_structure_is_mirrored_not_simplified(self):
        got = filter_label(E, parse_type("b[]*,c[]?"), "b")
        assert got == parse_type("b[]*,(()|())")

    def test_unfolds_variables(self):
        got = filter_label(TREE_SIG, Var("Tree"), "tree")
        assert got == parse_type("tree[leaf[string] | node[Tree*]]")
        assert filter_label(TREE_SIG, Var("Tree"), "leaf") == EMPTY


class TestSynthExpr:
    def test_literals(self):
        assert synth('"hello"') == STRING
        assert synth("true") == BOOL
        assert synth("()") == EMPTY

    def test_variable_lookup_by_binding_kind(self):
        assert synth("$x", {"x": TreeBinding(parse_type("b[]"))}) == parse_type("b[]")
        assert synth("$x", {"x": ForestBinding(parse_type("b[]*"))}) == parse_type("b[]*")

    def test_flagship_iteration_is_exact(self):
        env = {"x": TreeBinding(parse_type("a[b[]*,c[]?]"))}
        got = synth("for $y in $x/child return $y", env)
        assert got == parse_type("b[]*,c[]?")

    def test_concat_forms_seq(self):
        assert synth('"a", true') == parse_type("string,bool")

    def test_element_wraps(self):
        assert synth('n["w"]') == parse_type("n[string]")

    def test_let_threads_bound_type(self):
        assert synth('let $x = a[] in ($x, $x)') == parse_type("a[],a[]")

    def test_if_joins_branches_after_bool_check(self):
        got = synth('if true then a[] else "s"')
        assert got == parse_type("a[]|string")

    def test_if_accepts_subtype_of_bool(self):
        got = synth('if (if true then true else false) then a[] else b[]')
        assert got == parse_type("a[]|b[]")

    def test_children_of_element_binding(self):
        env = {"x": TreeBinding(parse_type("a[b[]*,c[]?]"))}
        assert synth("$x/child", env) == parse_type("b[]*,c[]?")

    def test_label_filter_composes(self):
        env = {"x": ForestBinding(parse_type("b[]*,c[]?"))}
        assert synth("$x::b", env) == parse_type("b[]*,(()|())")

    def test_call_checks_arguments_by_subtyping(self):
        env = {"t": ForestBinding(parse_type("Tree"))}
        got = synth("leaves($t)", env, LEAVES_DECLS, TREE_SIG)
        assert got == parse_type("leaf[string]*")

    def test_recursive_call_premise(self):
        env = {"z": TreeBinding(Element(
            "tree", parse_type("leaf[string]|node[Tree*]")))}
        got = synth("leaves($z)", env, LEAVES_DECLS, TREE_SIG)
        assert got == parse_type("leaf[string]*")


class TestSynthExprErrors:
    def expect_rule(self, rule, text, env=None, decls=EMPTY_DECLS, sig=E):
        with pytest.raises(TypeCheckFailure) as exc:
            synth(text, env, decls, sig)
        assert exc.value.diagnostic.rule == rule
        return exc.value.diagnostic

    def test_unbound_variable(self):
        self.expect_rule("query/var-unbound", "$nope")

    def test_children_of_base_atom(self):
        diag = self.expect_rule("query/child-of-non-element", "$x/child",
                                {"x": TreeBinding(BOOL)})
        assert "no children" in diag.message

    def test_children_of_forest_variable(self):
        self.expect_rule("query/child-source", "$x/child",
                         {"x": ForestBinding(parse_type("a[]"))})

    def test_condition_must_be_boolean(self):
        self.expect_rule("query/if-condition", 'if "s" then () else ()')

    def test_undeclared_function(self):
        self.expect_rule("query/call-undeclared", "nope()")

    def test_call_arity(self):
        self.expect_rule("query/call-arity", "leaves()", {}, LEAVES_DECLS,
                         TREE_SIG)

    def test_call_argument_not_subtype(self):
        diag = self.expect_rule("query/call-argument", 'leaves("s")', {},
                                LEAVES_DECLS, TREE_SIG)
        assert "argument 1" in diag.message


class TestSynthFor:
    def test_iteration_over_sequence_of_atoms(self):
        got = synth_for(EMPTY_DECLS, E, {}, "y", parse_type("b[]*,c[]?"),
                        parse_expr("$y"))
        assert got == parse_type("b[]*,c[]?")

    def test_empty_source(self):
        got = synth_for(EMPTY_DECLS, E, {}, "y", EMPTY, parse_expr("$nope"))
        assert got == EMPTY

    def test_alternative_children(self):
        got = synth_for(EMPTY_DECLS, E, {}, "y", parse_type("b[]|c[]"),
                        parse_expr("$y/child"))
        assert got == parse_type("()|()")

    def test_unfolds_source_variables(self):
        got = synth_for(LEAVES_DECLS, TREE_SIG, {}, "z", parse_type("Tree*"),
                        parse_expr("leaves($z)"))
        assert got == parse_type("(leaf[string]*)*")

    def test_identity_body_mirrors_any_source_structure(self):
        for text in ("(b[d[]*]|c[]?)*", "b[]*,(c[]|d[])", "()", "a[]+"):
            t = parse_type(text)
            assert synth_for(EMPTY_DECLS, E, {}, "y", t, parse_expr("$y")) == t

    def test_label_sugar_equals_filter_of_content(self):
        for binding, label in [("a[b[]*,c[]?]", "b"), ("n[leaf[string]|m[]]", "m"),
                               ("x[bool]", "y")]:
            env = {"v": TreeBinding(parse_type(binding))}
            got = synth(f"$v/{label}", env)
            content = parse_type(binding).content
            assert got == filter_label(E, content, label)


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
    """n chained ``let``s of an ``if`` double the source type n times, as a
    DAG of n joins; typing ``for`` and ``::`` over it must keep that sharing
    rather than walk 2^n copies."""

    ENV = {"x0": ForestBinding(parse_type("(a[]|b[])*"))}

    @staticmethod
    def lets_then_for(n):
        lets = "".join(f"let $x{i + 1} = if true then $x{i} else $x{i} in "
                       for i in range(n))
        return parse_expr(f"{lets}for $y in $x{n} return $y::a")

    def test_lets_before_for_stay_linear(self):
        for n in (8, 14, 20):
            expr = self.lets_then_for(n)
            got = synth_expr(EMPTY_DECLS, E, self.ENV, expr)
            assert distinct_nodes(got) <= 2 * n
            ok, diag = check_expr(EMPTY_DECLS, E, self.ENV, expr,
                                  parse_type("a[]*"))
            assert ok and diag is None
        text = "a[]?*|a[]?*"
        for _ in range(n - 1):
            text = f"({text})|{text}"
        assert type_str(got) == text

    def test_filter_keeps_sharing(self):
        t = parse_type("a[]|b[]")
        for n in range(1, 31):
            t = Or(t, t)
            if n in (8, 30):
                assert distinct_nodes(filter_label(E, t, "a")) <= n + 5


class TestCheckExpr:
    def test_flagship_against_factored_supertype(self):
        env = {"x": TreeBinding(parse_type("a[b[]*,c[]?]"))}
        ok, diag = check_expr(EMPTY_DECLS, E, env,
                              parse_expr("for $y in $x/child return $y"),
                              parse_type("(b[]|c[])*"))
        assert ok and diag is None

    def test_rejects_non_supertype(self):
        env = {"x": TreeBinding(parse_type("a[b[]*,c[]?]"))}
        ok, diag = check_expr(EMPTY_DECLS, E, env,
                              parse_expr("for $y in $x/child return $y"),
                              parse_type("c[]*"))
        assert not ok
        assert diag.rule == "query/ascription"
        assert "b[]*,c[]?" in diag.message

    def test_empty_against_empty(self):
        ok, _ = check_expr(EMPTY_DECLS, E, {}, parse_expr("()"), EMPTY)
        assert ok

    def test_flagship_against_other_supertypes(self):
        env = {"x": TreeBinding(parse_type("a[b[]*,c[]?]"))}
        e = parse_expr("for $y in $x/child return $y")
        for supertype in ("b[]*,(c[]?|d[]*)", "(b[d[]*]|c[]?)*"):
            ok, _ = check_expr(EMPTY_DECLS, E, env, e, parse_type(supertype))
            assert ok, supertype


LEAVES_PROGRAM = """
type Tree = tree[leaf[string] | node[Tree*]]

declare function leaves($x : Tree) : leaf[string]* {
  $x/leaf, for $z in $x/node/* return leaves($z)
};

query leaves(tree[leaf["a"]]) : leaf[string]*
"""


class TestCheckQueryProgram:
    def test_leaves_program_is_clean(self):
        prog, sig = parse_program(LEAVES_PROGRAM)
        assert check_query_program(sig, prog) == []

    def test_main_query_under_ambient_binding(self):
        prog, sig = parse_program(
            LEAVES_PROGRAM.replace('query leaves(tree[leaf["a"]])',
                                   "query leaves($x)"))
        env = {"x": ForestBinding(Var("Tree"))}
        assert check_query_program(sig, prog, env) == []
        assert len(check_query_program(sig, prog)) == 1  # unbound without it

    def test_body_ascription_failure_names_function(self):
        prog, sig = parse_program(
            'declare function f() : string { true };\nquery () : ()')
        diags = check_query_program(sig, prog)
        assert len(diags) == 1
        assert "in function f" in diags[0].message

    def test_empty_program(self):
        prog, sig = parse_program("query () : ()")
        assert check_query_program(sig, prog) == []

    def test_duplicate_function_diagnosed(self):
        prog, sig = parse_program(
            "declare function f() : () { () };\n"
            "declare function f() : () { () };\n"
            "query () : ()")
        diags = check_query_program(sig, prog)
        assert any(d.rule == "program/duplicate-function" for d in diags)

    def test_ascription_failure_on_main(self):
        prog, sig = parse_program("query a[] : b[]")
        diags = check_query_program(sig, prog)
        assert len(diags) == 1
        assert diags[0].rule == "query/ascription"

    def test_undeclared_variable_in_annotations(self):
        prog, sig = parse_program(
            "declare function f($x : Missing) : () { () };\nquery () : ()")
        diags = check_query_program(sig, prog)
        assert [d.rule for d in diags] == ["signature/undeclared"]
        prog2, sig2 = parse_program("query () : Gone")
        assert [d.rule for d in check_query_program(sig2, prog2)] == [
            "signature/undeclared"]


class TestCallAndConditionDiagnostics:
    """The full message, rule and span of the call and ``if`` diagnostics;
    of several faults of one call the first in the order undeclared,
    arity, arguments is reported."""

    HEADER = "declare function f($x : a[]) : b[] { b[] };\n"

    def diags(self, main):
        prog, sig = parse_program(f"{self.HEADER}query {main} : b[]", "q.muxq")
        return [(d.message, d.rule, d.span)
                for d in check_query_program(sig, prog)]

    @staticmethod
    def span(begin, end, begin_col, end_col):
        return SourceSpan("q.muxq", begin, end, 2, begin_col, 2, end_col)

    def test_undeclared_before_arity(self):
        assert self.diags("nope(c[])") == [(
            "undeclared function nope", "query/call-undeclared",
            self.span(50, 59, 7, 16))]

    def test_arity(self):
        assert self.diags("f()") == [(
            "f expects 1 argument(s), got 0", "query/call-arity",
            self.span(50, 53, 7, 10))]

    def test_arity_before_arguments(self):
        assert self.diags("f(c[], c[])") == [(
            "f expects 1 argument(s), got 2", "query/call-arity",
            self.span(50, 61, 7, 18))]

    def test_argument_at_its_own_span(self):
        assert self.diags("f(c[])") == [(
            "argument 1 of f has type c[], expected a subtype of a[]",
            "query/call-argument", self.span(52, 55, 9, 12))]

    def test_if_condition(self):
        assert self.diags('if "s" then b[] else b[]') == [(
            "condition has type string, not bool", "query/if-condition",
            self.span(50, 74, 7, 31))]

    def test_in_a_function_body(self):
        prog, sig = parse_program(
            "declare function g() : b[] { f(c[]) };\n" + self.HEADER
            + "query () : ()", "q.muxq")
        assert [(d.message, d.rule, d.span)
                for d in check_query_program(sig, prog)] == [(
            "in function g: argument 1 of f has type c[], expected a subtype "
            "of a[]", "query/call-argument",
            SourceSpan("q.muxq", 31, 34, 1, 32, 1, 35))]


class TestDeterminism:
    def test_synthesis_is_a_function(self):
        env = {"x": TreeBinding(parse_type("a[b[]*,c[]?]"))}
        e = parse_expr("for $y in $x/child return ($y, $y)")
        first = synth_expr(EMPTY_DECLS, E, env, e)
        second = synth_expr(EMPTY_DECLS, E, env, e)
        assert first == second
