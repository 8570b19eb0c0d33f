"""Reference interpreter: query evaluation, update application, and runtime
error behavior."""

import re

import pytest

from fluxq import (
    Concat, Elem, EmptySeq, EvalError, Insert, Nav, RecursionLimitExceeded,
    Runtime, SeqStmt, StrVal, apply_update, eval_query, parse_expr,
    parse_program, parse_stmt, parse_value, runtime_for_query_program,
    runtime_for_update_program,
)

RT = Runtime()


def run(text, env=None, rt=RT):
    return eval_query(rt, env or {}, parse_expr(text))


def apply(text, value_text, env=None, rt=RT):
    return apply_update(rt, env or {}, parse_value(value_text),
                        parse_stmt(text))


def fails(message, kind=EvalError):
    """Expect ``kind`` with exactly ``message``, the whole of its text."""
    return pytest.raises(kind, match="^" + re.escape(message) + "$")


class TestEvalQuery:
    def test_children_of_bound_tree(self):
        env = {"x": parse_value("a[b[],c[]]")}
        assert run("$x/child", env) == parse_value("b[],c[]")

    def test_label_selection_preserves_order(self):
        assert run("(b[],c[],b[])::b") == parse_value("b[],b[]")

    def test_filter_drops_strings_and_bools(self):
        assert run('("w", true, b[])::b') == parse_value("b[]")

    def test_for_concatenates_bodies(self):
        env = {"x": parse_value("a[b[],c[]]")}
        assert run("for $y in $x/child return ($y, $y)", env) == parse_value(
            "b[],b[],c[],c[]")

    def test_let_and_if(self):
        assert run('let $b = true in if $b then "y" else "n"') == (
            StrVal("y"),)

    def test_recursive_function(self):
        text = '''
        type Tree = tree[leaf[string] | node[Tree*]]
        declare function leaves($x : Tree) : leaf[string]* {
          $x/leaf, for $z in $x/node/* return leaves($z)
        };
        query leaves(tree[node[tree[leaf["u"]], tree[leaf["v"]]]]) : leaf[string]*
        '''
        prog, _ = parse_program(text)
        rt = runtime_for_query_program(prog)
        assert eval_query(rt, {}, prog.main) == parse_value(
            'leaf["u"],leaf["v"]')

    def test_loop_variable_scoping(self):
        # an inner ``for`` over the same variable, a ``let`` that shadows it
        # and a call that reads it see their own bindings, and the outer
        # loop's binding holds again once the inner loop is done
        prog, _ = parse_program('''
        declare function wrap($y : a[] | b[] | c[]) : w[a[] | b[] | c[]] {
          w[$y]
        };
        query for $y in $x/child return
          (wrap($y),
           for $y in ($y, c[]) return ($y, let $y = d[] in $y, wrap($y)),
           $y)
        : (w[a[] | b[] | c[]] | a[] | b[] | c[] | d[])*
        ''')
        env = {"x": parse_value("p[a[],b[]]")}
        got = eval_query(runtime_for_query_program(prog), env, prog.main)
        assert got == parse_value(
            "w[a[]], a[],d[],w[a[]], c[],d[],w[c[]], a[],"
            "w[b[]], b[],d[],w[b[]], c[],d[],w[c[]], b[]")
        assert env == {"x": parse_value("p[a[],b[]]")}

    def test_unbound_variable(self):
        with fails("unbound variable $nope"):
            run("$nope")
        with fails("unbound variable $nope"):
            run("$nope/child")

    def test_child_of_a_forest_variable(self):
        with fails("$x holds a forest of length 2, not a single tree"):
            run("$x/child", {"x": parse_value("a[],b[]")})
        with fails("$x holds a forest of length 0, not a single tree"):
            run("$x/child", {"x": ()})

    def test_condition_must_be_single_boolean(self):
        with fails('condition evaluated to "s", not a boolean'):
            run('if "s" then () else ()')
        with fails("condition evaluated to true,true, not a boolean"):
            run("if (true, true) then () else ()")

    def test_recursion_limit(self):
        prog, _ = parse_program(
            "declare function loop() : () { loop() };\nquery loop() : ()")
        rt = runtime_for_query_program(prog, recursion_limit=32)
        with fails("recursion limit 32 exceeded calling loop",
                   RecursionLimitExceeded):
            eval_query(rt, {}, prog.main)

    def test_undeclared_function_in_an_unchecked_program(self):
        prog, _ = parse_program("query f() : ()")
        with pytest.raises(EvalError, match=r"^undeclared function f$"):
            eval_query(runtime_for_query_program(prog), {}, prog.main)

    def test_arity_mismatch(self):
        prog, _ = parse_program(
            "declare function f($x : a[]) : a[] { $x };\nquery f() : a[]")
        with pytest.raises(EvalError,
                           match=r"^f expects 1 argument\(s\), got 0$"):
            eval_query(runtime_for_query_program(prog), {}, prog.main)

    def test_call_checks_in_order(self):
        # arguments first, then the declaration, the depth limit, the arity
        prog, _ = parse_program(
            "declare function f() : () { () };\nquery f(a[]) : ()")
        with fails("unbound variable $nope"):
            run("nope($nope)", rt=runtime_for_query_program(prog))
        with fails("f expects 0 argument(s), got 1"):
            run("nope(f(a[]))", rt=runtime_for_query_program(prog))
        with fails("undeclared function nope"):
            run("nope(f())", rt=runtime_for_query_program(prog))
        rt = runtime_for_query_program(prog, recursion_limit=0)
        with pytest.raises(RecursionLimitExceeded,
                           match=r"^recursion limit 0 exceeded calling f$"):
            eval_query(rt, {}, prog.main)


class TestApplyUpdate:
    def test_skip_is_identity(self):
        assert apply("skip", 'a[b[],"w"]') == parse_value('a[b[],"w"]')

    def test_insert_after_each_b_child(self):
        got = apply("iter[a?children[iter[b? right[insert c[]]]]]",
                    "a[b[],b[],c[]],d[]")
        assert got == parse_value("a[b[],c[],b[],c[],c[]],d[]")

    def test_rename(self):
        assert apply("rename n", "m[b[]]") == parse_value("n[b[]]")

    def test_unmatched_test_is_identity(self):
        assert apply("b?delete", "c[]") == parse_value("c[]")
        assert apply("string?delete", "c[]") == parse_value("c[]")

    def test_iter_maps_over_forest(self):
        assert apply("iter[*?rename z]", 'a[],true,b[c[]]') == parse_value(
            "z[],true,z[c[]]")

    def test_snapshot_reads_focus(self):
        got = apply("snapshot $v in right[insert $v]", "a[],b[]")
        assert got == parse_value("a[],b[],a[],b[]")

    def test_sequence_threads_value(self):
        assert apply("delete; insert c[]", "a[],b[]") == parse_value("c[]")

    def test_recursive_procedure(self):
        text = '''
        type Tree = tree[leaf[string] | node[Tree*]]
        declare procedure leafupd($x : string) : Tree => Tree {
          iter[children[iter[ leaf?children[(delete; insert $x)]
                            ; node?children[iter[leafupd($x)]] ]]]
        };
        update iter[leafupd("n")] : Tree* => Tree*
        '''
        prog, _ = parse_program(text)
        rt = runtime_for_update_program(prog)
        v = parse_value('tree[node[tree[leaf["a"]],tree[node[tree[leaf["b"]]]]]]')
        got = apply_update(rt, {}, v, prog.main)
        assert got == parse_value(
            'tree[node[tree[leaf["n"]],tree[node[tree[leaf["n"]]]]]]')

    def test_insert_on_non_empty_focus_fails(self):
        with fails("insert applied to non-empty focus a[]"):
            apply("insert c[]", "a[]")

    def test_rename_on_forest_fails(self):
        with fails("rename applied to a[],b[], not a single element"):
            apply("rename n", "a[],b[]")
        with fails("rename applied to true, not a single element"):
            apply("rename n", "true")

    def test_children_on_non_element_fails(self):
        with fails('children[...] applied to "w", not a single element'):
            apply("children[skip]", '"w"')
        with fails("children[...] applied to (), not a single element"):
            apply("children[skip]", "()")

    def test_test_on_a_forest_fails(self):
        with fails("test applied to a forest of length 2"):
            apply("b?delete", "a[],b[]")
        with fails("test applied to a forest of length 0"):
            apply("*?delete", "()")

    def test_undeclared_procedure_in_an_unchecked_program(self):
        prog, _ = parse_program("update p() : () => ()")
        with pytest.raises(EvalError, match=r"^undeclared procedure p$"):
            apply_update(runtime_for_update_program(prog), {}, (), prog.main)

    def test_procedure_arity_mismatch(self):
        prog, _ = parse_program(
            "declare procedure p($x : a[]) : () => () { skip };\n"
            "update p(a[], a[]) : () => ()")
        with pytest.raises(EvalError,
                           match=r"^p expects 1 argument\(s\), got 2$"):
            apply_update(runtime_for_update_program(prog), {}, (), prog.main)

    def test_condition_must_be_single_boolean(self):
        with pytest.raises(EvalError, match=r'^condition evaluated to "s", '
                                            r'not a boolean$'):
            apply('if "s" then skip else skip', "a[]")
        with fails("condition evaluated to (), not a boolean"):
            apply("if () then skip else skip", "a[]")

    def test_procedure_recursion_limit(self):
        prog, _ = parse_program(
            "declare procedure p() : () => () { p() };\nupdate p() : () => ()")
        rt = runtime_for_update_program(prog, recursion_limit=16)
        with fails("recursion limit 16 exceeded calling p",
                   RecursionLimitExceeded):
            apply_update(rt, {}, (), prog.main)


class TestLongChains:
    """A ``,`` or ``;`` list runs as one loop over its items, so its length
    is not bounded by Python's recursion limit."""

    N = 10_000

    def test_concat_chain(self):
        e = Concat((Elem("a", EmptySeq()),) * self.N)
        assert eval_query(RT, {}, e) == parse_value("a[]") * self.N

    def test_seq_chain(self):
        s = SeqStmt((Nav("right", Insert(Elem("a", EmptySeq()))),) * self.N)
        assert apply_update(RT, {}, (), s) == parse_value("a[]") * self.N


class TestScoping:
    def test_inner_binders_do_not_leak(self):
        assert run("let $x = a[] in ((for $x in (b[], c[]) return $x), $x)") == (
            parse_value("b[],c[],a[]"))
        assert run("let $x = a[] in ((let $x = b[] in $x), $x)") == (
            parse_value("b[],a[]"))
        got = apply("let $x = a[] in ((let $x = b[] in right[insert $x]); "
                    "right[insert $x])", "()")
        assert got == parse_value("b[],a[]")

    def test_snapshot_in_iter_sees_each_tree(self):
        got = apply("iter[snapshot $t in children[right[insert $t]]]",
                    "a[],b[c[]]")
        assert got == parse_value("a[a[]],b[c[],b[c[]]]")

    def test_recursive_function_twice(self):
        prog, _ = parse_program('''
        type Tree = tree[leaf[string] | node[Tree*]]
        declare function leaves($x : Tree) : leaf[string]* {
          $x/leaf, for $z in $x/node/* return leaves($z)
        };
        query leaves($t) : leaf[string]*
        ''')
        env = {"t": parse_value(
            'tree[node[tree[leaf["u"]],tree[node[tree[leaf["v"]]]]]]')}
        rt = runtime_for_query_program(prog)
        first = eval_query(rt, env, prog.main)
        assert first == parse_value('leaf["u"],leaf["v"]')
        assert eval_query(rt, env, prog.main) == first


class TestEffectLaws:
    def test_seq_is_composition(self):
        v = parse_value("b[],c[]")
        s1, s2 = parse_stmt("iter[b?delete]"), parse_stmt("right[insert d[]]")
        composed = apply_update(RT, {}, v, parse_stmt(
            "iter[b?delete]; right[insert d[]]"))
        assert composed == apply_update(RT, {}, apply_update(RT, {}, v, s1), s2)

    def test_iter_distributes_over_concat(self):
        s = parse_stmt("iter[b?rename z]")
        left = parse_value("b[],c[]")
        right = parse_value("b[]")
        assert (apply_update(RT, {}, left + right, s)
                == apply_update(RT, {}, left, s) + apply_update(RT, {}, right, s))


class TestDeterminism:
    def test_same_inputs_same_outputs(self):
        env = {"x": parse_value("a[b[],c[]]")}
        e = "for $y in $x/child return ($y, b[])"
        assert run(e, env) == run(e, env)
