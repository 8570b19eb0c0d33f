"""Reference interpreter for queries and updates.

Evaluation is call-by-value and deterministic.  Variable environments map
names to forests; a tree variable holds a singleton forest.  Updates operate
on a focused part of the value: navigation changes the focus, tests check a
single tree's ``label`` as the checker does (``subtyping.passes``), and
iteration maps a singular update over a forest, concatenating the results.

Each ``eval_query`` or ``apply_update`` call compiles its program to closures
once, then runs them; a function or procedure body is compiled on its first
call and reused after.  ``,`` and ``;`` chains run as loops, not recursion.

Focus-shape violations (rename on a non-singleton focus, insert on a
non-empty focus, and the like) are runtime errors rather than no-ops:
well-typed programs never trigger them, so any occurrence points at a
typechecker bug.
"""

from __future__ import annotations

from typing import Callable, Mapping, NamedTuple, NoReturn

from .errors import EvalError, RecursionLimitExceeded
from .printer import value_str
from .queries import (
    BoolLit, Call, Children, Concat, Elem, EmptySeq, For, If, LabelFilter,
    Let, QueryExpr, QueryProgram, StrLit, VarRef,
)
from .subtyping import passes
from .types import EMPTY_DECLS, GlobalDecls, Signature, TypeEnv
from .updates import (
    Delete, Direction, IfStmt, Insert, LetStmt, Nav, ProcCall, Rename,
    SeqStmt, Skip, Snapshot, Test, UpdateProgram, UpdateStmt, program_decls,
)
from .values import (
    BoolVal, EMPTY_FOREST, FALSE, Forest, Node, StrVal, TRUE, Tree, member,
)

ValueEnv = Mapping[str, Forest]
_LEFT, _RIGHT, _CHILDREN = Direction.LEFT, Direction.RIGHT, Direction.CHILDREN

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


class _Compiler(tuple):
    """One evaluation's runtime and compiled bodies, by kind and name.  A
    method named after a node class compiles it to a closure taking ``(env,
    depth)`` and a statement's focus; ``depth`` counts the calls running."""

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
        decl = getattr(decls, kind + "s").get(node.name)  # .functions or .procedures
        args, name = [self.compile(a) for a in node.args], node.name

        def call(env, depth, *v):
            values = [arg(env, depth) for arg in args]
            if decl is None:
                _fail(f"undeclared {kind} {name}")
            if depth + 1 > limit:
                raise RecursionLimitExceeded(
                    f"recursion limit {limit} exceeded calling {name}")
            if len(decl.params) != len(values):
                _fail(f"{name} expects {len(decl.params)} argument(s), got "
                      f"{len(values)}")
            if (kind, name) not in bodies:
                bodies[kind, name] = self.compile(decl.body)
            inner = {p: value for (p, _), value in zip(decl.params, values)}
            return bodies[kind, name](inner, depth + 1, *v)
        return call

    def StrLit(self, node):  # and BoolLit
        value = ((TRUE if node.value else FALSE) if type(node) is BoolLit
                 else StrVal(node.value),)
        return lambda env, depth: value

    def Delete(self, node, run=lambda env, depth, *v: EMPTY_FOREST):  # and EmptySeq
        return run

    def Skip(self, node, run=lambda env, depth, v: v):
        return run

    LetStmt, IfStmt, ProcCall, BoolLit, EmptySeq = Let, If, Call, StrLit, Delete

    def VarRef(self, node):
        name = node.name
        return lambda env, depth: (
            env[name] if name in env else _fail(f"unbound variable ${name}"))

    def Children(self, node):
        name, variable = node.var, self.compile(VarRef(node.var))
        return lambda env, depth: (
            v[0].children if len(v := variable(env, depth)) == 1
            else _fail(f"${name} holds a forest of length {len(v)}, not a "
                       f"single tree"))

    def Concat(self, node):
        parts = []  # the parser nests a ``,`` list rightwards; read it by a loop
        while type(node) is Concat:
            parts.append(self.compile(node.left))
            node = node.right
        parts.append(self.compile(node))

        def concat(env, depth):
            out: list[Tree] = []
            for part in parts:
                out += part(env, depth)
            return tuple(out)
        return concat

    def Elem(self, node):
        label, content = node.label, self.compile(node.content)
        return lambda env, depth: (Node(label, content(env, depth)),)

    def LabelFilter(self, node):
        label, source = node.label, self.compile(node.source)
        return lambda env, depth: tuple(
            t for t in source(env, depth) if t.label == label)

    def For(self, node):
        var, source = node.var, self.compile(node.source)
        body = self.compile(node.body)

        def loop(env, depth):
            out: list[Tree] = []
            for tree in source(env, depth):
                out += body({**env, var: (tree,)}, depth)
            return tuple(out)
        return loop

    def SeqStmt(self, node):
        steps = []  # and a ``;`` list
        while type(node) is SeqStmt:
            steps.append(self.compile(node.first))
            node = node.second
        steps.append(self.compile(node))

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
            expr(env, depth) if v == EMPTY_FOREST
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
        if direction is _LEFT:
            return lambda env, depth, v: body(env, depth, EMPTY_FOREST) + v
        if direction is _RIGHT:
            return lambda env, depth, v: v + body(env, depth, EMPTY_FOREST)
        if direction is _CHILDREN:
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


def conforms(sig: Signature, env: ValueEnv, type_env: TypeEnv) -> bool:
    """Do the bindings of ``env`` inhabit the types declared in ``type_env``?

    Tree bindings must hold exactly one tree belonging to their atom, which
    is what membership in an atom means."""
    return env.keys() == type_env.keys() and all(
        member(sig, env[name], binding.type)
        for name, binding in type_env.items())
