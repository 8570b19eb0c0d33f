"""The compiled evaluator against a definitional interpreter.

``evaluate`` and ``update`` below are a recursive, uncompiled big-step
semantics of the query and update cores, written from the README's
description of each form.  They share no code with ``fluxq.evaluator``:
they walk the syntax trees directly, with no compile step, no shared
closed constructors and no fused loops.  A run the semantics has no rule
for (a focus of the wrong shape, an unbound variable, a condition that is
not one boolean, a call too deep) is *stuck*, and must be an ``EvalError``
of the evaluator; every other run must give the same forest.
"""

import random
from pathlib import Path

from fluxq import (
    BoolAtom, BoolLit, BoolVal, Call, Children, Concat, Delete, Elem,
    EmptySeq, EvalError, For, GenConfig, If, IfStmt, Insert, LabelFilter,
    Let, LetStmt, Nav, Node, ProcCall, Rename, Runtime, SeqStmt, Signature,
    Skip, Snapshot, StrLit, StrVal, StringAtom, TreeBinding, UpdateProgram,
    VarRef, apply_update, check_program, eval_query, parse_program,
    parse_type, parse_value, runtime_for_update_program, value_str,
)
from fluxq import Test as Guard  # not collected as a test class
from fluxq.suites import QUERY, UPDATE, _conforming_envs

SAMPLES = Path(__file__).resolve().parent.parent / "samples"
RT = Runtime()
TREE = parse_type("Tree")
CALL_LIMIT = RT.recursion_limit


class Stuck(Exception):
    """No rule of the semantics applies."""


def first_of(decls):
    """Declarations by name; of two with one name, the first counts."""
    table = {}
    for d in decls:
        table.setdefault(d.name, d)
    return table


def single(v):
    if len(v) != 1:
        raise Stuck
    return v[0]


def element(v):
    tree = single(v)
    if not isinstance(tree, Node):
        raise Stuck
    return tree


def call(decls, depth, e, env):
    """The declaration ``e`` calls and its parameters bound to the
    arguments, each evaluated in the caller's ``env``."""
    table = decls["functions" if type(e) is Call else "procedures"]
    args = [evaluate(decls, depth, a, env) for a in e.args]
    d = table.get(e.name)
    if d is None or depth + 1 > CALL_LIMIT or len(d.params) != len(args):
        raise Stuck
    return d, {name: a for (name, _), a in zip(d.params, args)}


def evaluate(decls, depth, e, env):
    """The forest ``e`` denotes under ``env``."""
    kind = type(e)
    if kind is EmptySeq:
        return ()
    if kind is Concat:
        return tuple(t for item in e.items
                     for t in evaluate(decls, depth, item, env))
    if kind is Elem:
        return (Node(e.label, evaluate(decls, depth, e.content, env)),)
    if kind is StrLit:
        return (StrVal(e.value),)
    if kind is BoolLit:
        return (BoolVal(e.value),)
    if kind is VarRef:
        if e.name not in env:
            raise Stuck
        return env[e.name]
    if kind is Let:
        bound = evaluate(decls, depth, e.bound, env)
        return evaluate(decls, depth, e.body, {**env, e.var: bound})
    if kind is If:
        return evaluate(decls, depth, choose(decls, depth, e, env), env)
    if kind is Children:  # ``$x/child``: the children of one tree
        if e.var not in env:
            raise Stuck
        tree = single(env[e.var])
        return tree.children if isinstance(tree, Node) else ()
    if kind is LabelFilter:  # ``e::n``
        return tuple(t for t in evaluate(decls, depth, e.source, env)
                     if isinstance(t, Node) and t.label == e.label)
    if kind is For:
        return tuple(t for tree in evaluate(decls, depth, e.source, env)
                     for t in evaluate(decls, depth, e.body,
                                       {**env, e.var: (tree,)}))
    if kind is Call:
        d, inner = call(decls, depth, e, env)
        return evaluate(decls, depth + 1, d.body, inner)
    raise AssertionError(f"no rule for {kind.__name__}")


def choose(decls, depth, e, env):
    """The branch of an ``if`` its condition, one boolean, selects."""
    cond = single(evaluate(decls, depth, e.cond, env))
    if not isinstance(cond, BoolVal):
        raise Stuck
    return e.then if cond.value else e.els


def admits(test, tree):
    """``n?``, ``*?``, ``bool?`` and ``string?`` on one tree."""
    if test is BoolAtom:
        return isinstance(tree, BoolVal)
    if test is StringAtom:
        return isinstance(tree, StrVal)
    return isinstance(tree, Node) and test in ("*", tree.label)


def update(decls, depth, s, env, v):
    """The forest ``s`` makes of the focus ``v`` under ``env``."""
    kind = type(s)
    if kind is Skip:
        return v
    if kind is SeqStmt:
        for item in s.items:
            v = update(decls, depth, item, env, v)
        return v
    if kind is IfStmt:
        return update(decls, depth, choose(decls, depth, s, env), env, v)
    if kind is LetStmt:
        bound = evaluate(decls, depth, s.bound, env)
        return update(decls, depth, s.body, {**env, s.var: bound}, v)
    if kind is ProcCall:
        d, inner = call(decls, depth, s, env)
        return update(decls, depth + 1, d.body, inner, v)
    if kind is Insert:  # into an empty focus
        if v != ():
            raise Stuck
        return evaluate(decls, depth, s.expr, env)
    if kind is Delete:
        return ()
    if kind is Rename:
        return (Node(s.label, element(v).children),)
    if kind is Snapshot:
        return update(decls, depth, s.body, {**env, s.var: v}, v)
    if kind is Guard:  # the identity unless the one tree passes
        if admits(s.test, single(v)):
            return update(decls, depth, s.body, env, v)
        return v
    if kind is Nav and s.direction == "left":  # a forest before the focus
        return update(decls, depth, s.body, env, ()) + v
    if kind is Nav and s.direction == "right":
        return v + update(decls, depth, s.body, env, ())
    if kind is Nav and s.direction == "children":
        tree = element(v)
        return (Node(tree.label,
                     update(decls, depth, s.body, env, tree.children)),)
    if kind is Nav and s.direction == "iter":
        return tuple(t for tree in v
                     for t in update(decls, depth, s.body, env, (tree,)))
    raise AssertionError(f"no rule for {kind.__name__}")


def outcome(run):
    """A run's forest, or ``Stuck`` for a run stuck or an ``EvalError``."""
    try:
        return run()
    except (Stuck, EvalError):
        return Stuck


def random_tree(rng, budget):
    """A ``Tree`` of ``leaves.muxq`` and ``leafupd.flux`` of at most
    about ``budget`` nodes, with two to four trees under each node."""
    if budget < 6:
        return parse_value(f'tree[leaf["w{rng.randrange(9)}"]]')[0]
    k = rng.randint(2, 4)
    kids = tuple(random_tree(rng, rng.randint(1, budget // k))
                 for _ in range(k))
    return Node("tree", (Node("node", kids),))


def shared(forest):
    """``forest`` read back from its text, so that its repeated subtrees
    are shared as ``parse_value`` shares them; some are."""
    v = parse_value(value_str(forest))
    nodes, stack = [], list(v)
    while stack:
        t = stack.pop()
        nodes.append(id(t))
        stack += t.children
    assert len(set(nodes)) < len(nodes)
    return v


# Element constructors whose content reads a variable that a loop, a call
# or a ``snapshot`` under ``iter`` binds anew for each tree, so each tree
# needs a node of its own.  Each query runs on ``$x``, one ``Tree``.
REBINDING = (
    "query for $t in $x/node return for $y in $t/child return w[$y]"
    " : w[Tree]*",
    "query for $y in $x/node/* return w[$y/leaf, $y]"
    " : w[leaf[string]*, Tree]*",
    "declare function wrap($z : Tree) : w[Tree] { w[$z] };\n"
    "query for $y in $x/node/* return wrap($y) : w[Tree]*",
    "declare function up($z : Tree) : w[leaf[string]*]* {\n"
    "  w[$z/leaf], for $y in $z/node/* return up($y)\n};\n"
    "query up($x) : w[leaf[string]*]*",
    "update iter[snapshot $y in right[insert w[$y]]]"
    " : Tree* => (Tree, w[Tree])*",
    "update iter[children[iter[snapshot $y in node?children[right[insert"
    " w[$y]]]]]] : Tree* => tree[leaf[string] | node[Tree*, w[node[Tree*]]]]*",
)


def rebinding_runs(forests):
    """The ``REBINDING`` programs on the trees and forests of
    ``forests``."""
    for text in REBINDING:
        prog, sig = parse_program(
            "type Tree = tree[leaf[string] | node[Tree*]]\n" + text)
        assert check_program(sig, prog, {"x": TreeBinding(TREE)})[1] == []
        if isinstance(prog, UpdateProgram):
            yield prog, [({}, f) for f in forests]
        else:
            yield prog, [({"x": (t,)}, None) for f in forests for t in f]


def sample_runs():
    """Each sample's programs with inputs: conforming values of its input
    type or free variables, and seeded ``Tree`` documents for the two
    recursive samples, the query as ``leaves($x)``, built node by node and
    read back from their text, with repeated subtrees shared; then the
    ``REBINDING`` programs on those documents."""
    rng = random.Random(7)
    trees = [random_tree(rng, size) for size in (1, 20, 60, 200) * 3]
    forests = [tuple(trees[i:i + 3]) for i in range(0, len(trees), 3)]
    forests += [shared(f) for f in forests[1:]]
    trees = [t for f in forests for t in f]
    for name in ("insert_after.flux", "leafupd.flux", "leaves.muxq",
                 "children.muxq"):
        text = (SAMPLES / name).read_text(encoding="utf-8")
        prog, sig = parse_program(text, name)
        if name.endswith(".flux"):
            runs = [({}, v) for _, v in _conforming_envs(
                sig, {}, prog.input, 3, 3)]
            if name == "leafupd.flux":
                runs += [({}, f) for f in forests]
            yield prog, runs
            continue
        if name == "children.muxq":  # ``$x`` as its header binds it
            env = {"x": TreeBinding(parse_type("a[b[]*,c[]?]"))}
            yield prog, _conforming_envs(sig, env, None, 3, 3)
            continue
        yield prog, [({}, None)]
        prog, _ = parse_program(text.replace(
            'leaves(tree[node[tree[leaf["u"]], tree[leaf["v"]]]])',
            "leaves($x)"), name)
        yield prog, [({"x": (t,)}, None) for t in trees]
    yield from rebinding_runs(forests)


def drawn_runs(lang):
    """300 well-typed terms of ``lang`` drawn at seed 7, each with up to
    six conforming inputs."""
    cfg, sig = GenConfig(seed=7), Signature()
    rng = random.Random(cfg.seed)
    for _ in range(300):
        env = lang.closed_env(rng, cfg, sig)
        term, t = lang.term(rng, cfg, sig, env)
        yield term, _conforming_envs(sig, env, t, cfg.depth, cfg.width)


def outcomes(rt, decls, term, venv, v):
    """The evaluator's outcome and the interpreter's: of a query when
    ``v`` is None, else of an update of the focus ``v``."""
    if v is None:
        return (outcome(lambda: eval_query(rt, venv, term)),
                outcome(lambda: evaluate(decls, 0, term, venv)))
    return (outcome(lambda: apply_update(rt, venv, v, term)),
            outcome(lambda: update(decls, 0, term, venv, v)))


def test_evaluator_agrees_with_the_definitional_interpreter():
    runs = []
    for prog, inputs in sample_runs():
        decls = {"functions": first_of(prog.functions),
                 "procedures": first_of(getattr(prog, "procedures", ()))}
        rt = runtime_for_update_program(prog)
        runs += [(rt, decls, prog.main, venv, v) for venv, v in inputs]
    no_decls = {"functions": {}, "procedures": {}}
    for lang in (QUERY, UPDATE):
        for term, inputs in drawn_runs(lang):
            runs += [(RT, no_decls, term, venv, v) for venv, v in inputs]
    assert len(runs) > 1_500
    for run in runs:
        got, want = outcomes(*run)
        # every program is well typed and every input conforms
        assert got == want and want is not Stuck, run[2:]
