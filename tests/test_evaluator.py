"""Reference interpreter: query evaluation, update application, and runtime
error behavior."""

import gc
import random
import re
import sys
from pathlib import Path

import pytest

from fluxq import (
    EMPTY, Concat, Elem, EmptySeq, EvalError, FunctionDecl, GlobalDecls,
    Insert, Nav, Node, ProcedureDecl, RecursionLimitExceeded, Runtime,
    SeqStmt, StrVal, apply_update, eval_query, member, parse_expr,
    parse_program, parse_stmt, parse_value, runtime_for_query_program,
    runtime_for_update_program,
)
from fluxq.cli import main
from fluxq.evaluator import _Compiler
from fluxq.printer import value_str

LEAVES = Path(__file__).resolve().parent.parent / "samples" / "leaves.muxq"

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
        # ``children[iter[s]]`` runs as one closure, with the same errors
        for value in ('"w"', "true", "()", "a[],b[]"):
            with fails(f"children[...] applied to {value}, not a single "
                       f"element"):
                apply("children[iter[skip]]", value)

    @pytest.mark.parametrize("test, admitted", [
        ("*", "a[]"), ("bool", "true"), ("string", '"w"'), ("a", "a[]"),
    ])
    def test_each_test_admits_its_trees(self, test, admitted):
        for value in ("a[]", "b[]", '"w"', "true"):
            expected = () if value == admitted or (
                test == "*" and value == "b[]") else parse_value(value)
            assert apply(f"{test}?delete", value) == expected, value

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


def child_step(forest, label=None):
    """``forest/label``, or ``forest/*`` for None, as a list comprehension
    over each tree's children (an atom has none)."""
    return tuple([c for t in forest if isinstance(t, Node) for c in t.children
                  if label is None or isinstance(c, Node) and c.label == label])


def random_tree(rng, size):
    """A ``Tree`` of ``leaves.muxq`` with at least ``size`` nodes, atoms
    counted: a random leaf is expanded to a node of one to four trees."""
    kids, nodes = [None], 3
    while nodes < size:
        k = rng.choice([i for i, c in enumerate(kids) if c is None])
        n = rng.randint(1, 4)
        kids[k] = range(len(kids), len(kids) + n)
        kids += [None] * n
        nodes += 3 * n - 1

    def build(i):
        if kids[i] is None:
            return Node("tree", (Node("leaf", (StrVal(f"w{i}"),)),))
        return Node("tree", (Node("node", tuple(build(j) for j in kids[i])),))
    return build(0)


def reference_leaves(tree):
    """``leaves($x)`` of ``leaves.muxq``: ``tree``'s own leaf, then the
    leaves of each tree under its node, in order."""
    [inner] = tree.children
    if inner.label == "leaf":
        return [inner]
    return [leaf for sub in inner.children for leaf in reference_leaves(sub)]


class TestChildSteps:
    """``e/n`` and ``e/*`` (a ``for`` whose body projects its own variable)
    agree with a comprehension over the children of each tree of ``e``,
    on forests of elements, of atoms, of both, and on ``()``."""

    X = parse_value('r[a[b[],"s"],c[a[]],a[true]],a[d[a[]]],"t",false,'
                    'q[a[],b[],a[c[]]]')

    @pytest.mark.parametrize("text, expected", [
        ("$x/a", lambda x: child_step(x, "a")),
        ("$x/*", lambda x: child_step(x)),
        ("$x/a/*", lambda x: child_step(child_step(x, "a"))),
        ("$x/*/a", lambda x: child_step(child_step(x), "a")),
        ("($x, $x)/a", lambda x: child_step(x + x, "a")),
        ("($x, $x)/*", lambda x: child_step(x + x)),
        ("for $y in $x return $y/child::a", lambda x: child_step(x, "a"))])
    def test_steps_match_the_reference(self, text, expected):
        for x in (self.X, self.X[:1], self.X[2:4], parse_value('"s"'),
                  parse_value("true"), ()):
            assert run(text, {"x": x}) == expected(x)

    def test_a_body_projecting_another_variable_repeats_it(self):
        env = {"x": parse_value("a[],b[],c[]"),
               "z": parse_value("p[a[],b[],a[d[]]]")}
        got = run("for $y in $x return $z/child::a", env)
        assert got == child_step(env["z"], "a") * 3
        assert got == parse_value("a[],a[d[]]") * 3

    def test_leaves_on_a_generated_tree(self):
        prog, _ = parse_program(LEAVES.read_text())
        rt = runtime_for_query_program(prog)
        tree = random_tree(random.Random(1), 1600)
        got = eval_query(rt, {"t": (tree,)}, parse_expr("leaves($t)"))
        assert got == tuple(reference_leaves(tree))
        assert len(got) > 300


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


class TestCallSites:
    """A call site binds each argument to its parameter by position, for
    declarations built in code and for the same declarations written as a
    program's text."""

    BODIES = {"f0": ((), "k[]", "insert k[]"),
              "f1": (("x",), "w[$x]", "insert w[$x]"),
              "f3": (("x", "y", "z"), "$z, $x, $y", "insert ($z, $x, $y)")}
    CASES = (("f0()", "k[]"), ("f1(a[])", "w[a[]]"),
             ("f3(a[], b[], c[])", "c[],a[],b[]"))
    ENV = {"u": parse_value("a[]")}
    FUNCTIONS = Runtime(GlobalDecls(functions={
        name: FunctionDecl(name, tuple((p, EMPTY) for p in params), EMPTY,
                           parse_expr(body))
        for name, (params, body, _) in BODIES.items()}))
    PROCEDURES = Runtime(GlobalDecls(procedures={
        name: ProcedureDecl(name, tuple((p, EMPTY) for p in params), EMPTY,
                            EMPTY, parse_stmt(body))
        for name, (params, _, body) in BODIES.items()}))

    def test_functions_bind_by_position(self):
        for text, expected in self.CASES + (
                ("f3($u, f1($u), f0())", "k[],a[],w[a[]]"),):
            got = eval_query(self.FUNCTIONS, self.ENV, parse_expr(text))
            assert got == parse_value(expected), text

    def test_procedures_bind_by_position(self):
        for text, expected in self.CASES + (
                ("f3($u, w[$u], k[])", "k[],a[],w[a[]]"),):
            got = apply_update(self.PROCEDURES, self.ENV, (), parse_stmt(text))
            assert got == parse_value(expected), text

    def test_declarations_written_as_text(self):
        # the declarations of ``BODIES`` as a program's text: a ``,`` before
        # a ``$`` variable ends a parameter's type
        def header(params):
            return ", ".join(f"${p} : ()" for p in params)
        text = "".join(
            f"declare function {name}({header(params)}) : () {{ {body} }};\n"
            f"declare procedure {name}({header(params)}) : () => () "
            f"{{ {stmt} }};\n"
            for name, (params, body, stmt) in self.BODIES.items())
        prog, _ = parse_program(text + "update skip : () => ()")
        assert prog.functions == tuple(self.FUNCTIONS.decls.functions.values())
        assert prog.procedures == tuple(
            self.PROCEDURES.decls.procedures.values())
        rt = runtime_for_update_program(prog)
        for call, expected in self.CASES + (
                ("f3($u, f1($u), f0())", "k[],a[],w[a[]]"),):
            assert eval_query(rt, self.ENV, parse_expr(call)) == parse_value(
                expected), call
            assert apply_update(rt, self.ENV, (), parse_stmt(call)) == (
                parse_value(expected)), call

    def test_arguments_run_left_to_right(self):
        with fails("unbound variable $p"):
            eval_query(self.FUNCTIONS, {}, parse_expr("f3($p, $q, $r)"))
        with fails("undeclared function p"):
            apply_update(self.PROCEDURES, {}, (),
                         parse_stmt("f3(p(), q(), r())"))

    def test_a_recursive_procedure_passes_its_focus_through(self):
        # ``mark`` hands the children of each ``a`` to itself as its whole
        # focus, with its two arguments swapped at each level
        body = parse_stmt("iter[ a?children[mark($t, $s)]"
                          "    ; b?children[(delete; insert $s)] ]")
        mark = ProcedureDecl("mark", (("s", EMPTY), ("t", EMPTY)),
                             EMPTY, EMPTY, body)
        rt = Runtime(GlobalDecls(procedures={"mark": mark}))
        got = apply_update(rt, {}, parse_value('b["x"],a[b[],a[b[],c[]]],a[]'),
                           parse_stmt('mark("1", "2")'))
        assert got == parse_value('b["1"],a[b["2"],a[b["1"],c[]]],a[]')


class TestClosedConstructors:
    """A constructor whose parts are all closed is built once per compile,
    and every evaluation returns that one value."""

    @pytest.mark.parametrize("text, value", [
        ("()", "()"), ('"s"', '"s"'), ("true", "true"), ("false", "false"),
        ("n[]", "n[]"), ('n[a[], "s"]', 'n[a[], "s"]'),
        ("(a[], b[])", "a[], b[]"),
        ('(n[a[], ("s", ())], (), true, m[k[]])', 'n[a[], "s"], true, m[k[]]')])
    def test_a_closed_constructor_is_its_value(self, text, value):
        compiled = _Compiler((RT, {})).compile(parse_expr(text))
        assert compiled.value == parse_value(value)
        assert compiled({}, 0) is compiled.value

    @pytest.mark.parametrize("text", [
        "$u", "n[$u]", "(a[], $u)", "n[m[], ($u, k[])]", "f()",
        "let $v = a[] in n[]", "if true then a[] else b[]",
        "for $v in $u return n[]", "$u/child", "$u::a"])
    def test_an_open_expression_is_not_folded(self, text):
        compiled = _Compiler((RT, {})).compile(parse_expr(text))
        assert not hasattr(compiled, "value")

    def test_a_constructor_over_a_variable_is_built_per_binding(self):
        env = {"x": parse_value("p[a[],b[]]")}
        assert run("for $y in $x/child return (n[$y], ($y, k[]))", env) == (
            parse_value("n[a[]],a[],k[],n[b[]],b[],k[]"))

    def test_a_closed_insertion_is_one_shared_tree(self):
        n = 50
        got = apply('iter[b? right[insert n[a[], "s"]]]', ",".join(["b[]"] * n))
        assert value_str(got) == ",".join(['b[],n[a[],"s"]'] * n)
        assert all(got[k] is got[1] for k in range(1, 2 * n, 2))


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


class TestCallMemo:
    """A call whose argument forests, and a procedure's focus, hold the
    trees of an earlier successful call of its callee, made at the same
    call depth or deeper, returns that call's result, once an earlier call
    on those trees has left its mark (see the ``evaluator`` docstring)."""

    LEAFUPD = LEAVES.parent / "leafupd.flux"

    def test_the_recursion_limit_is_exact(self, capsys):
        # ``d`` holds ``t`` four calls deeper than the runs of ``t`` itself,
        # which need two: the entry the second run stores at depth 0 must
        # not answer there, where the call below it exceeds limit 5
        t = 'tree[node[tree[leaf["a"]]]]'
        d = t
        for _ in range(4):
            d = f"tree[node[{d}]]"
        args = ["run-update", str(self.LEAFUPD), "--input", f"{t},{t},{d}"]
        assert main(["--recursion-limit", "5"] + args) == 1
        assert capsys.readouterr() == (
            "", "error: recursion limit 5 exceeded calling leafupd\n")
        assert main(["--recursion-limit", "6"] + args) == 0
        assert capsys.readouterr().out == (
            f"{t},{t},{d}\n".replace('"a"', '"pruned"'))

    def test_entries_keep_their_key_forests(self, tmp_path, capsys):
        # each ``($z, $z)`` is a new forest of two trees, keyed by its own
        # identity: its entry keeps it, so no later forest takes its id
        f = tmp_path / "pair.muxq"
        f.write_text(
            "type Tree = tree[leaf[string] | node[Tree*]]\n"
            "declare function pair($p : Tree*) : (leaf[string] | node[Tree*])*"
            " { $p/* };\n"
            "query for $z in $x/node/* return pair(($z, $z))"
            " : (leaf[string] | node[Tree*])*\n")
        x = ",".join(f'tree[leaf["{w}"]]' for w in "abcd")
        assert main(["eval", str(f), "--env", f"x=tree[node[{x}]]"]) == 0
        assert capsys.readouterr().out == ",".join(
            f'leaf["{w}"],leaf["{w}"]' for w in "abcd") + "\n"

    def test_entries_are_freed_on_return(self):
        # a recursive callee's closures hold its memo in a reference cycle,
        # so unless the memo is emptied on return, the entry that the
        # second call on ``u`` stores keeps the forest holding ``u`` until
        # the cyclic collector runs
        leaves, _ = parse_program(LEAVES.read_text(encoding="utf-8").replace(
            'leaves(tree[node[tree[leaf["u"]], tree[leaf["v"]]]])',
            "leaves($x)"))
        leafupd, _ = parse_program(self.LEAFUPD.read_text(encoding="utf-8"))
        x = parse_value('tree[node[tree[leaf["u"]],tree[leaf["u"]]]]')
        [u, _] = x[0].children[0].children
        gc.disable()
        try:
            before = sys.getrefcount(x), sys.getrefcount(u)
            eval_query(runtime_for_query_program(leaves), {"x": x},
                       leaves.main)
            apply_update(runtime_for_update_program(leafupd), {}, x,
                         leafupd.main)
            assert (sys.getrefcount(x), sys.getrefcount(u)) == before
        finally:
            gc.enable()

    def test_shared_input_gives_shared_output(self):
        # the first call on ``t`` leaves a mark, the second stores its
        # result, and the third returns it
        prog, sig = parse_program(self.LEAFUPD.read_text(encoding="utf-8"))
        [t] = parse_value('tree[node[tree[leaf["a"]],tree[leaf["b"]]]]')
        out = apply_update(runtime_for_update_program(prog), {}, (t, t, t),
                           prog.main)
        assert out[0] is not out[1] and out[1] is out[2]
        assert value_str(out) == ",".join(
            ['tree[node[tree[leaf["pruned"]],tree[leaf["pruned"]]]]'] * 3)
        # so ``member``'s memo decides the third tree's content from the
        # second's: the step rows are asked for ``node`` and ``leaf`` as
        # often as for two trees
        assert member(sig, out, prog.output)  # fills the step rows
        reads = {"node": 0, "leaf": 0}

        class Row(dict):
            def get(self, label, default=None):
                if label in reads:
                    reads[label] += 1
                return dict.get(self, label, default)

        for state, (nullable, row) in list(sig._steps.items()):
            sig._steps[state] = (nullable, Row(row))
        assert member(sig, out, prog.output)
        assert reads == {"node": 2, "leaf": 4}
