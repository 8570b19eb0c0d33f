"""The algorithmic typechecker of query expressions, whose syntax is in
``types``.

Synthesis is subsumption-free and deterministic: every expression either has
a unique synthesized type or fails with a diagnostic.  Subtyping enters in
exactly two places, mirroring the declarative system's essential uses: at
function-call arguments and when checking an expression (or function body)
against an ascribed type.  Synthesized types are never simplified, so golden
tests can compare them structurally.
"""

from __future__ import annotations

from typing import Callable

from .diagnostics import Diagnostic, SourceSpan, TypeCheckFailure
from .printer import type_str
from .subtyping import subtype
from .types import (
    BOOL, BoolLit, Call, Children, Concat, Elem, Element, EMPTY, EmptySeq,
    For, ForestBinding, GlobalDecls, If, LabelFilter, Let, Or, QueryExpr,
    QueryProgram, Seq, Signature, STRING, StrLit, Struct, TreeBinding, Type,
    TypeEnv, VarRef, map_atoms,
)


def _fail(message: str, rule: str, span: SourceSpan | None = None):
    raise TypeCheckFailure(Diagnostic(message, rule, span))


def _condition(decls: GlobalDecls, sig: Signature, env: TypeEnv, node,
               kind: str) -> None:
    """Fail with rule ``if-condition`` of ``kind`` unless the condition of
    an ``If`` or ``IfStmt`` ``node`` has a subtype of ``bool``."""
    t = synth_expr(decls, sig, env, node.cond)
    if not subtype(sig, t, BOOL):
        _fail(f"condition has type {type_str(t)}, not bool",
              f"{kind}/if-condition", node.span)


def _arguments(decls: GlobalDecls, sig: Signature, env: TypeEnv, call,
               params: tuple[tuple[str, Type], ...], kind: str) -> None:
    """Check a ``Call`` or ``ProcCall`` against the declared ``params``:
    its arity, then each argument by one subtype test (rules
    ``call-arity`` and ``call-argument`` of ``kind``)."""
    if len(call.args) != len(params):
        _fail(f"{call.name} expects {len(params)} argument(s), got "
              f"{len(call.args)}", f"{kind}/call-arity", call.span)
    for i, (arg, (_, expected)) in enumerate(zip(call.args, params)):
        actual = synth_expr(decls, sig, env, arg)
        if not subtype(sig, actual, expected):
            _fail(f"argument {i + 1} of {call.name} has type {type_str(actual)}, "
                  f"expected a subtype of {type_str(expected)}",
                  f"{kind}/call-argument", arg.span or call.span)


def filter_label(sig: Signature, t: Type, label: str) -> Type:
    """Type-level projection keeping only ``label``-named element atoms.

    Every other atom maps to ``()``; the result mirrors the structure of
    ``t`` and is not simplified, and shares subterms where ``t`` does.
    Total on well-formed inputs.
    """
    return map_atoms(sig, t, lambda atom: atom if atom.label == label
                     else EMPTY)


def synth_expr(decls: GlobalDecls, sig: Signature, env: TypeEnv,
               e: QueryExpr) -> Type:
    """Synthesize the unique algorithmic type of ``e``, or raise
    TypeCheckFailure with a diagnostic."""
    if isinstance(e, EmptySeq):
        return EMPTY
    if isinstance(e, StrLit):
        return STRING
    if isinstance(e, BoolLit):
        return BOOL
    if isinstance(e, VarRef):
        binding = env.get(e.name)
        if binding is None:
            _fail(f"unbound variable ${e.name}", "query/var-unbound", e.span)
        return binding.type
    if isinstance(e, Concat):
        *lefts, t = [synth_expr(decls, sig, env, item) for item in e.items]
        for left in reversed(lefts):
            t = Seq(left, t)
        return t
    if isinstance(e, Elem):
        return Element(e.label, synth_expr(decls, sig, env, e.content))
    if isinstance(e, Let):
        bound = synth_expr(decls, sig, env, e.bound)
        inner = {**env, e.var: ForestBinding(bound)}
        return synth_expr(decls, sig, inner, e.body)
    if isinstance(e, If):
        _condition(decls, sig, env, e, "query")
        return Or(synth_expr(decls, sig, env, e.then),
                  synth_expr(decls, sig, env, e.els))
    if isinstance(e, Children):
        binding = env.get(e.var)
        if binding is None:
            _fail(f"unbound variable ${e.var}", "query/var-unbound", e.span)
        if not isinstance(binding, TreeBinding):
            _fail(f"${e.var} is a forest variable; child projection needs a "
                  f"for-bound tree variable", "query/child-source", e.span)
        atom = binding.atom
        if not isinstance(atom, Element):
            _fail(f"${e.var} has type {type_str(atom)}, which has no children",
                  "query/child-of-non-element", e.span)
        return atom.content
    if isinstance(e, LabelFilter):
        source = synth_expr(decls, sig, env, e.source)
        return filter_label(sig, source, e.label)
    if isinstance(e, For):
        source = synth_expr(decls, sig, env, e.source)
        return synth_for(decls, sig, env, e.var, source, e.body)
    assert isinstance(e, Call)
    fn = decls.functions.get(e.name)
    if fn is None:
        _fail(f"undeclared function {e.name}", "query/call-undeclared", e.span)
    _arguments(decls, sig, env, e, fn.params, "query")
    return fn.result


def synth_for(decls: GlobalDecls, sig: Signature, env: TypeEnv, var: str,
              source_type: Type, body: QueryExpr) -> Type:
    """Iteration typing: recurse structurally over the source type, typing
    the body once per atomic alternative with the tree variable bound to it.
    Each distinct node of the source is typed once, so a shared subterm gets
    one shared result."""
    return map_atoms(sig, source_type, lambda atom: synth_expr(
        decls, sig, {**env, var: TreeBinding(atom)}, body))


def _ascribe(sig: Signature, synth: Callable[[], Type], expected: Type,
             at: Struct, kind: str) -> tuple[Type | None, Diagnostic | None]:
    """Run ``synth`` and check its type against ``expected`` by one subtype
    test: the type, or the diagnostic of the synthesis or of the check, at
    ``at`` (rule ``query/ascription`` or ``update/ascription`` by ``kind``)."""
    try:
        actual = synth()
    except TypeCheckFailure as exc:
        return None, exc.diagnostic
    if subtype(sig, actual, expected):
        return actual, None
    noun = "expression has type" if kind == "query" else "update produces type"
    return None, Diagnostic(f"{noun} {type_str(actual)}, which is not a "
                            f"subtype of {type_str(expected)}",
                            f"{kind}/ascription", at.span)


def check_expr(decls: GlobalDecls, sig: Signature, env: TypeEnv, e: QueryExpr,
               expected: Type) -> tuple[bool, Diagnostic | None]:
    """Synthesize then check against ``expected`` by one subtype test."""
    _, diag = _ascribe(sig, lambda: synth_expr(decls, sig, env, e), expected,
                       e, "query")
    return diag is None, diag


def check_query_program(sig: Signature, prog: QueryProgram,
                        env: TypeEnv | None = None) -> list[Diagnostic]:
    """The diagnostics of ``updates.check_program`` for a query program."""
    from .updates import check_program  # updates imports this module
    return check_program(sig, prog, env)[1]
