"""Reference interpreter for queries and updates.

Evaluation is call-by-value and deterministic.  Variable environments map
names to forests; a tree variable holds a singleton forest.  Updates operate
on a focused part of the value: navigation changes the focus, tests check a
single tree's ``label`` as the checker does (``subtyping.passes``), and
iteration maps a singular update over a forest, concatenating the results.

Focus-shape violations (rename on a non-singleton focus, insert on a
non-empty focus, and the like) are runtime errors rather than no-ops:
well-typed programs never trigger them, so any occurrence points at a
typechecker bug.
"""

from __future__ import annotations

from typing import Mapping, NamedTuple

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


def _condition(rt: Runtime, env: ValueEnv, cond: QueryExpr,
               depth: int) -> bool:
    """The value of an ``if`` condition, which must be one boolean."""
    value = eval_query(rt, env, cond, depth)
    if len(value) != 1 or not isinstance(value[0], BoolVal):
        raise EvalError(
            f"condition evaluated to {value_str(value)}, not a boolean")
    return value[0].value


def _enter(rt: Runtime, env: ValueEnv, call: Call | ProcCall,
           declared: Mapping, kind: str, depth: int
           ) -> tuple[ValueEnv, QueryExpr | UpdateStmt]:
    """The parameter bindings and the body of a function or procedure
    ``call``: its arguments are evaluated first, then the callee is looked
    up in ``declared``, then the depth limit and the arity are checked."""
    args = [eval_query(rt, env, a, depth) for a in call.args]
    decl = declared.get(call.name)
    if decl is None:
        raise EvalError(f"undeclared {kind} {call.name}")
    if depth + 1 > rt.recursion_limit:
        raise RecursionLimitExceeded(
            f"recursion limit {rt.recursion_limit} exceeded calling {call.name}")
    if len(decl.params) != len(args):
        raise EvalError(f"{call.name} expects {len(decl.params)} argument(s), "
                        f"got {len(args)}")
    return {name: arg for (name, _), arg in zip(decl.params, args)}, decl.body


def eval_query(rt: Runtime, env: ValueEnv, e: QueryExpr,
               _depth: int = 0) -> Forest:
    """Evaluate ``e`` to a forest under ``env``."""
    if isinstance(e, EmptySeq):
        return EMPTY_FOREST
    if isinstance(e, StrLit):
        return (StrVal(e.value),)
    if isinstance(e, BoolLit):
        return (TRUE if e.value else FALSE,)
    if isinstance(e, VarRef):
        if e.name not in env:
            raise EvalError(f"unbound variable ${e.name}")
        return env[e.name]
    if isinstance(e, Concat):
        return (eval_query(rt, env, e.left, _depth)
                + eval_query(rt, env, e.right, _depth))
    if isinstance(e, Elem):
        return (Node(e.label, eval_query(rt, env, e.content, _depth)),)
    if isinstance(e, Let):
        bound = eval_query(rt, env, e.bound, _depth)
        return eval_query(rt, {**env, e.var: bound}, e.body, _depth)
    if isinstance(e, If):
        branch = e.then if _condition(rt, env, e.cond, _depth) else e.els
        return eval_query(rt, env, branch, _depth)
    if isinstance(e, Children):
        if e.var not in env:
            raise EvalError(f"unbound variable ${e.var}")
        v = env[e.var]
        if len(v) != 1:
            raise EvalError(f"${e.var} holds a forest of length {len(v)}, "
                            f"not a single tree")
        return v[0].children
    if isinstance(e, LabelFilter):
        source = eval_query(rt, env, e.source, _depth)
        return tuple(t for t in source if t.label == e.label)
    if isinstance(e, For):
        source = eval_query(rt, env, e.source, _depth)
        out: list[Tree] = []
        for tree in source:
            out.extend(eval_query(rt, {**env, e.var: (tree,)}, e.body, _depth))
        return tuple(out)
    assert isinstance(e, Call)
    inner, body = _enter(rt, env, e, rt.decls.functions, "function", _depth)
    return eval_query(rt, inner, body, _depth + 1)


def apply_update(rt: Runtime, env: ValueEnv, v: Forest, s: UpdateStmt,
                 _depth: int = 0) -> Forest:
    """Apply ``s`` to the focused value ``v`` and return the updated value."""
    while isinstance(s, SeqStmt):  # the parser nests ``;`` lists rightwards
        v = apply_update(rt, env, v, s.first, _depth)
        s = s.second
    if isinstance(s, Skip):
        return v
    if isinstance(s, IfStmt):
        branch = s.then if _condition(rt, env, s.cond, _depth) else s.els
        return apply_update(rt, env, v, branch, _depth)
    if isinstance(s, LetStmt):
        bound = eval_query(rt, env, s.bound, _depth)
        return apply_update(rt, {**env, s.var: bound}, v, s.body, _depth)
    if isinstance(s, Snapshot):
        return apply_update(rt, {**env, s.var: v}, v, s.body, _depth)
    if isinstance(s, Insert):
        if v != EMPTY_FOREST:
            raise EvalError(f"insert applied to non-empty focus {value_str(v)}")
        return eval_query(rt, env, s.expr, _depth)
    if isinstance(s, Delete):
        return EMPTY_FOREST
    if isinstance(s, Rename):
        if len(v) != 1 or not isinstance(v[0], Node):
            raise EvalError(f"rename applied to {value_str(v)}, not a single "
                            f"element")
        return (Node(s.label, v[0].children),)
    if isinstance(s, Test):
        if len(v) != 1:
            raise EvalError(f"test applied to a forest of length {len(v)}")
        if passes(v[0].label, s.test):
            return apply_update(rt, env, v, s.body, _depth)
        return v
    if isinstance(s, Nav):
        if s.direction is Direction.LEFT:
            grown = apply_update(rt, env, EMPTY_FOREST, s.body, _depth)
            return grown + v
        if s.direction is Direction.RIGHT:
            grown = apply_update(rt, env, EMPTY_FOREST, s.body, _depth)
            return v + grown
        if s.direction is Direction.CHILDREN:
            if len(v) != 1 or not isinstance(v[0], Node):
                raise EvalError(f"children[...] applied to {value_str(v)}, "
                                f"not a single element")
            node = v[0]
            return (Node(node.label,
                         apply_update(rt, env, node.children, s.body, _depth)),)
        assert s.direction is Direction.ITER
        out: list[Tree] = []
        for tree in v:
            out.extend(apply_update(rt, env, (tree,), s.body, _depth))
        return tuple(out)
    assert isinstance(s, ProcCall)
    inner, body = _enter(rt, env, s, rt.decls.procedures, "procedure", _depth)
    return apply_update(rt, inner, v, body, _depth + 1)


def conforms(sig: Signature, env: ValueEnv, type_env: TypeEnv) -> bool:
    """Do the bindings of ``env`` inhabit the types declared in ``type_env``?

    Tree bindings must hold exactly one tree belonging to their atom, which
    is what membership in an atom means."""
    return env.keys() == type_env.keys() and all(
        member(sig, env[name], binding.type)
        for name, binding in type_env.items())
