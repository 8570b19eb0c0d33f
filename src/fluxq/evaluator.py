"""Reference interpreter for queries and updates.

Evaluation is call-by-value and deterministic.  Variable environments map
names to forests; a tree variable holds a singleton forest.  Updates operate
on a focused part of the value: navigation changes the focus, tests check a
single tree's ``label`` as the checker does (``types.passes``), and
iteration maps a singular update over a forest, concatenating the results.

Each ``eval_query`` or ``apply_update`` call compiles its program to closures
once, then runs them.  What no environment changes is settled when
compiling: a call site resolves its callee and arity, and a constructor whose
parts are all closed (``()``, a literal, ``n[e]``, ``e, e``) is built once
and shared, as trees are immutable.  A function or procedure body is
compiled on its first call, and each call site keeps it.  A
``,`` or ``;`` list runs as one loop over its items.  A ``for`` loop copies
its environment once and rebinds its variable in the copy for each tree; no
closure keeps an environment after it returns.  A child step ``e/n`` or
``e/*``, which the parser builds as a ``for`` whose body projects the loop's
own variable, runs as one comprehension over the children of each tree of
``e``, with no environment: the variable holds one tree, and an atom has no
children.

Focus-shape violations (rename on a non-singleton focus, insert on a
non-empty focus, and the like) are runtime errors rather than no-ops:
well-typed programs never trigger them, so any occurrence points at a
typechecker bug.
"""

from __future__ import annotations

from typing import Callable, Mapping, NamedTuple, NoReturn

from .diagnostics import EvalError, RecursionLimitExceeded
from .printer import value_str
from .types import (
    BoolLit, Call, Children, Delete, Elem, EMPTY_DECLS, EmptySeq, For,
    GlobalDecls, If, IfStmt, Insert, LabelFilter, Let, LetStmt, Nav,
    ProcCall, QueryExpr, QueryProgram, Rename, Skip, Snapshot, StrLit, Test,
    UpdateProgram, UpdateStmt, VarRef, passes, program_decls,
)
from .values import BoolVal, FALSE, Forest, Node, StrVal, TRUE, Tree

ValueEnv = Mapping[str, Forest]

DEFAULT_RECURSION_LIMIT = 256


class Runtime(NamedTuple):
    """A program's declarations, whose bodies calls run, and the limit on
    the depth of nested calls."""

    decls: GlobalDecls = EMPTY_DECLS
    recursion_limit: int = DEFAULT_RECURSION_LIMIT


def runtime_for_query_program(prog: QueryProgram | UpdateProgram, *,
                              recursion_limit: int = DEFAULT_RECURSION_LIMIT) -> Runtime:
    """The runtime of a query or update program, its declarations resolved
    as ``program_decls`` says.  ``runtime_for_update_program`` is the same
    builder."""
    return Runtime(program_decls(prog)[0], recursion_limit)


runtime_for_update_program = runtime_for_query_program


def _fail(message: str) -> NoReturn:
    raise EvalError(message)


def _too_deep(limit: int, name: str) -> NoReturn:
    raise RecursionLimitExceeded(
        f"recursion limit {limit} exceeded calling {name}")


def _closed(value: Forest) -> Callable:
    """A closed constructor's closure, returning the one ``value``; it keeps
    it as ``.value``, so a constructor of closed parts is closed too."""
    def run(env, depth):
        return value
    run.value = value
    return run


class _Compiler(tuple):
    """One evaluation's runtime and compiled bodies, by kind and name.  A
    method named after a node class compiles it to a closure taking ``(env,
    depth)`` and a statement's focus; ``depth`` counts the calls running.
    A ``Concat`` or ``SeqStmt`` compiles each of its items.  A ``For``
    whose body is ``Children(v)`` or ``LabelFilter(Children(v), n)`` of its
    own variable ``v`` compiles to one comprehension, not a loop over the
    body.  A ``Call`` resolves its callee and arity here and keeps the body
    it finds on its first call; a closed constructor compiles to
    ``_closed`` of its value."""

    __slots__ = ()

    def compile(self, node: QueryExpr | UpdateStmt) -> Callable:
        return _RULES[type(node)](self, node)

    def Let(self, node):  # and LetStmt: a statement's focus is passed on
        var, bound = node.var, self.compile(node.bound)
        body = self.compile(node.body)
        return lambda env, depth, *v: body(
            {**env, var: bound(env, depth)}, depth, *v)

    def If(self, node):  # and IfStmt
        cond, then = self.compile(node.cond), self.compile(node.then)
        els = self.compile(node.els)

        def branch(env, depth, *v):
            value = cond(env, depth)  # must be one boolean
            if len(value) != 1 or not isinstance(value[0], BoolVal):
                _fail(f"condition evaluated to {value_str(value)}, not a boolean")
            return (then if value[0].value else els)(env, depth, *v)
        return branch

    def Call(self, node):  # and ProcCall: arguments, callee, depth limit, arity
        (decls, limit), bodies = self
        kind = "function" if type(node) is Call else "procedure"
        name, args = node.name, [self.compile(a) for a in node.args]
        decl = getattr(decls, kind + "s").get(name)  # .functions or .procedures
        if decl is None or len(decl.params) != len(args):
            def fail(env, depth, *v):  # what a call raises, in its order
                for arg in args:
                    arg(env, depth)
                if decl is None:
                    _fail(f"undeclared {kind} {name}")
                if depth + 1 > limit:
                    _too_deep(limit, name)
                _fail(f"{name} expects {len(decl.params)} argument(s), got "
                      f"{len(args)}")
            return fail
        key, body = (kind, name), None
        binds = [(param, arg) for (param, _), arg in zip(decl.params, args)]

        def compiled():  # on this call site's first call
            nonlocal body
            body = bodies.get(key)
            if body is None:
                body = bodies[key] = self.compile(decl.body)
            return body

        if kind == "function":
            def call(env, depth):  # the arguments go straight into ``inner``
                inner = {}
                for param, arg in binds:
                    inner[param] = arg(env, depth)
                if depth + 1 > limit:
                    _too_deep(limit, name)
                return (body or compiled())(inner, depth + 1)
            return call

        def run(env, depth, v):  # a procedure's: the focus is passed on
            inner = {}
            for param, arg in binds:
                inner[param] = arg(env, depth)
            if depth + 1 > limit:
                _too_deep(limit, name)
            return (body or compiled())(inner, depth + 1, v)
        return run

    def StrLit(self, node):  # and BoolLit
        return _closed(((TRUE if node.value else FALSE) if type(node) is BoolLit
                        else StrVal(node.value),))

    def EmptySeq(self, node):
        return _closed(())

    def Delete(self, node, run=lambda env, depth, v: ()):
        return run

    def Skip(self, node, run=lambda env, depth, v: v):
        return run

    LetStmt, IfStmt, ProcCall, BoolLit = Let, If, Call, StrLit

    def VarRef(self, node):
        name = node.name

        def read(env, depth):
            try:
                return env[name]
            except KeyError:
                raise EvalError(f"unbound variable ${name}") from None
        return read

    def Children(self, node):
        name, variable = node.var, self.compile(VarRef(node.var))
        return lambda env, depth: (
            v[0].children if len(v := variable(env, depth)) == 1
            else _fail(f"${name} holds a forest of length {len(v)}, not a "
                       f"single tree"))

    def Concat(self, node):
        parts = [self.compile(item) for item in node.items]
        if all(hasattr(part, "value") for part in parts):
            return _closed(tuple([t for part in parts for t in part.value]))

        def concat(env, depth):
            out: list[Tree] = []
            for part in parts:
                out += part(env, depth)
            return tuple(out)
        return concat

    def Elem(self, node):
        label, content = node.label, self.compile(node.content)
        if hasattr(content, "value"):
            return _closed((Node(label, content.value),))
        return lambda env, depth: (Node(label, content(env, depth)),)

    def LabelFilter(self, node):
        label, source = node.label, self.compile(node.source)
        return lambda env, depth: tuple(
            [t for t in source(env, depth) if t.label == label])

    def For(self, node):
        var, source, body = node.var, self.compile(node.source), node.body
        # ``e/n`` and ``e/*``: the loop variable holds one tree, whose
        # children are read directly (an atom's are ``()``)
        label = body.label if type(body) is LabelFilter else None
        step = body.source if label is not None else body
        if type(step) is Children and step.var == var:
            if label is None:
                return lambda env, depth: tuple(
                    [c for t in source(env, depth) for c in t.children])
            return lambda env, depth: tuple(
                [c for t in source(env, depth) for c in t.children
                 if c.label == label])
        body = self.compile(body)

        def loop(env, depth):
            out: list[Tree] = []
            inner = dict(env)  # the loop's one environment (see above)
            for tree in source(env, depth):
                inner[var] = (tree,)
                out += body(inner, depth)
            return tuple(out)
        return loop

    def SeqStmt(self, node):
        steps = [self.compile(item) for item in node.items]

        def seq(env, depth, v):
            for step in steps:
                v = step(env, depth, v)
            return v
        return seq

    def Snapshot(self, node):
        var, body = node.var, self.compile(node.body)
        return lambda env, depth, v: body({**env, var: v}, depth, v)

    def Insert(self, node):
        expr = self.compile(node.expr)
        return lambda env, depth, v: (
            expr(env, depth) if v == ()
            else _fail(f"insert applied to non-empty focus {value_str(v)}"))

    def Rename(self, node):
        label = node.label
        return lambda env, depth, v: (
            (Node(label, v[0].children),) if len(v) == 1 and isinstance(v[0], Node)
            else _fail(f"rename applied to {value_str(v)}, not a single element"))

    def Test(self, node):
        test, body = node.test, self.compile(node.body)
        return lambda env, depth, v: (
            _fail(f"test applied to a forest of length {len(v)}") if len(v) != 1
            else body(env, depth, v) if passes(v[0].label, test) else v)

    def Nav(self, node):
        body, direction = self.compile(node.body), node.direction
        if direction == "left":
            return lambda env, depth, v: body(env, depth, ()) + v
        if direction == "right":
            return lambda env, depth, v: v + body(env, depth, ())
        if direction == "children":
            return lambda env, depth, v: (
                (Node(v[0].label, body(env, depth, v[0].children)),)
                if len(v) == 1 and isinstance(v[0], Node) else _fail(
                    f"children[...] applied to {value_str(v)}, not a single element"))

        def each(env, depth, v):  # iter[...]
            out: list[Tree] = []
            for tree in v:
                out += body(env, depth, (tree,))
            return tuple(out)
        return each


_RULES = {cls: getattr(_Compiler, cls.__name__)
          for cls in QueryExpr.__subclasses__() + UpdateStmt.__subclasses__()}


def eval_query(rt: Runtime, env: ValueEnv, e: QueryExpr) -> Forest:
    """Evaluate ``e`` to a forest under ``env``."""
    return _Compiler((rt, {})).compile(e)(env, 0)


def apply_update(rt: Runtime, env: ValueEnv, v: Forest, s: UpdateStmt) -> Forest:
    """Apply ``s`` to the focused value ``v`` and return the updated value."""
    return _Compiler((rt, {})).compile(s)(env, 0, v)
