"""Update statements and their algorithmic typechecker.

A statement judgment is parameterized by a multiplicity: singular updates
apply to one tree, plural updates to a forest.  Synthesis threads the focus
type through sequencing, recurses into navigation, and types iteration by
structural recursion over the focus type (one singular check per atomic
alternative).  As with queries, subtyping appears only at procedure calls
and ascriptions, and outputs are never simplified.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from .diagnostics import Diagnostic, SourceSpan, error
from .errors import TypeCheckFailure, UndeclaredVariable
from .printer import type_str
from .queries import (
    FunctionDecl, QueryExpr, _declared_type_diags, check_expr,
    collect_function_decls, synth_expr,
)
from .subtyping import (
    BoolTest, LabelTest, StringTest, TestKind, subtype, test_subtype,
)
from .types import (
    Atom, BOOL, Element, Empty, EMPTY, ForestBinding, GlobalDecls,
    Or, ProcedureSig, Seq, Signature, Type, TypeEnv, map_atoms,
)


class Multiplicity(enum.Enum):
    SINGULAR = "1"
    PLURAL = "*"


class Direction(enum.Enum):
    LEFT = "left"
    RIGHT = "right"
    CHILDREN = "children"
    ITER = "iter"


@dataclass(frozen=True)
class UpdateStmt:
    pass


@dataclass(frozen=True)
class Skip(UpdateStmt):
    span: SourceSpan | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class SeqStmt(UpdateStmt):
    first: UpdateStmt
    second: UpdateStmt
    span: SourceSpan | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class IfStmt(UpdateStmt):
    cond: QueryExpr
    then: UpdateStmt
    els: UpdateStmt
    span: SourceSpan | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class LetStmt(UpdateStmt):
    var: str
    bound: QueryExpr
    body: UpdateStmt
    span: SourceSpan | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class ProcCall(UpdateStmt):
    name: str
    args: tuple[QueryExpr, ...]
    span: SourceSpan | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Insert(UpdateStmt):
    expr: QueryExpr
    span: SourceSpan | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Delete(UpdateStmt):
    span: SourceSpan | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Rename(UpdateStmt):
    label: str
    span: SourceSpan | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Snapshot(UpdateStmt):
    """Bind a forest variable to the focused value, then update it."""

    var: str
    body: UpdateStmt
    span: SourceSpan | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Test(UpdateStmt):
    """Run the body only if the focused tree passes the test."""

    test: TestKind
    body: UpdateStmt
    span: SourceSpan | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Nav(UpdateStmt):
    direction: Direction
    body: UpdateStmt
    span: SourceSpan | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class ProcedureDecl:
    name: str
    params: tuple[tuple[str, Type], ...]
    input: Type
    output: Type
    body: UpdateStmt
    span: SourceSpan | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class UpdateProgram:
    functions: tuple[FunctionDecl, ...]
    procedures: tuple[ProcedureDecl, ...]
    main: UpdateStmt
    input: Type
    output: Type
    span: SourceSpan | None = field(default=None, compare=False, repr=False)


def _fail(message: str, rule: str, span: SourceSpan | None = None):
    raise TypeCheckFailure(error(message, rule, span))


def _test_str(test: TestKind) -> str:
    if isinstance(test, LabelTest):
        return test.label
    if isinstance(test, BoolTest):
        return "bool"
    if isinstance(test, StringTest):
        return "string"
    return "*"


def synth_stmt(decls: GlobalDecls, sig: Signature, env: TypeEnv,
               mult: Multiplicity, t: Type, s: UpdateStmt) -> Type:
    """Synthesize the unique output type of ``s`` applied at multiplicity
    ``mult`` to focus type ``t``, or raise TypeCheckFailure."""
    if isinstance(s, Skip):
        return t
    if isinstance(s, SeqStmt):
        mid = synth_stmt(decls, sig, env, mult, t, s.first)
        return synth_stmt(decls, sig, env, mult, mid, s.second)
    if isinstance(s, IfStmt):
        cond = synth_expr(decls, sig, env, s.cond)
        if not subtype(sig, cond, BOOL):
            _fail(f"condition has type {type_str(cond)}, not bool",
                  "update/if-condition", s.span)
        return Or(synth_stmt(decls, sig, env, mult, t, s.then),
                  synth_stmt(decls, sig, env, mult, t, s.els))
    if isinstance(s, LetStmt):
        bound = synth_expr(decls, sig, env, s.bound)
        inner = {**env, s.var: ForestBinding(bound)}
        return synth_stmt(decls, sig, inner, mult, t, s.body)
    if isinstance(s, Snapshot):
        inner = {**env, s.var: ForestBinding(t)}
        return synth_stmt(decls, sig, inner, mult, t, s.body)
    if isinstance(s, Insert):
        if mult is not Multiplicity.PLURAL:
            _fail("insert requires plural focus", "update/insert-multiplicity",
                  s.span)
        if not isinstance(t, Empty):
            _fail(f"insert applies to an empty focus, but the focus has type "
                  f"{type_str(t)}; navigate with left[...] or right[...] first",
                  "update/insert-focus", s.span)
        return synth_expr(decls, sig, env, s.expr)
    if isinstance(s, Delete):
        return EMPTY
    if isinstance(s, Rename):
        if mult is not Multiplicity.SINGULAR:
            _fail("rename requires singular focus", "update/rename-multiplicity",
                  s.span)
        if not isinstance(t, Element):
            _fail(f"rename applies to an element, but the focus has type "
                  f"{type_str(t)}", "update/rename-focus", s.span)
        return Element(s.label, t.content)
    if isinstance(s, Test):
        if mult is not Multiplicity.SINGULAR:
            _fail(f"test {_test_str(s.test)}? requires singular focus",
                  "update/test-multiplicity", s.span)
        if not isinstance(t, Atom):
            _fail(f"test {_test_str(s.test)}? applies to an atomic focus, "
                  f"but the focus has type {type_str(t)}", "update/test-focus",
                  s.span)
        if test_subtype(t, s.test):
            return synth_stmt(decls, sig, env, Multiplicity.SINGULAR, t, s.body)
        return t
    if isinstance(s, Nav):
        if s.direction is Direction.LEFT:
            grown = synth_stmt(decls, sig, env, Multiplicity.PLURAL, EMPTY, s.body)
            return Seq(grown, t)
        if s.direction is Direction.RIGHT:
            grown = synth_stmt(decls, sig, env, Multiplicity.PLURAL, EMPTY, s.body)
            return Seq(t, grown)
        if s.direction is Direction.CHILDREN:
            if mult is not Multiplicity.SINGULAR:
                _fail("children[...] requires singular focus",
                      "update/children-multiplicity", s.span)
            if not isinstance(t, Element):
                _fail(f"children[...] applies to an element, but the focus "
                      f"has type {type_str(t)}", "update/children-focus", s.span)
            inner = synth_stmt(decls, sig, env, Multiplicity.PLURAL,
                               t.content, s.body)
            return Element(t.label, inner)
        assert s.direction is Direction.ITER
        if mult is not Multiplicity.PLURAL:
            _fail("iter[...] requires plural focus", "update/iter-multiplicity",
                  s.span)
        return synth_iter(decls, sig, env, t, s.body)
    assert isinstance(s, ProcCall)
    proc = decls.procedures.get(s.name)
    if proc is None:
        _fail(f"undeclared procedure {s.name}", "update/call-undeclared", s.span)
    if not subtype(sig, t, proc.input):
        _fail(f"focus has type {type_str(t)}, which is not a subtype of "
              f"{s.name}'s input type {type_str(proc.input)}",
              "update/call-input", s.span)
    if len(s.args) != len(proc.params):
        _fail(f"{s.name} expects {len(proc.params)} argument(s), got "
              f"{len(s.args)}", "update/call-arity", s.span)
    for i, (arg, expected) in enumerate(zip(s.args, proc.params)):
        actual = synth_expr(decls, sig, env, arg)
        if not subtype(sig, actual, expected):
            _fail(f"argument {i + 1} of {s.name} has type {type_str(actual)}, "
                  f"expected a subtype of {type_str(expected)}",
                  "update/call-argument", arg.span or s.span)
    return proc.output


def synth_iter(decls: GlobalDecls, sig: Signature, env: TypeEnv, t: Type,
               s: UpdateStmt) -> Type:
    """Iteration typing: apply ``s`` once, singularly, per atomic alternative
    of the focus type, recombining homomorphically.  Each distinct node of
    the focus is typed once, so a shared subterm gets one shared result."""
    return map_atoms(sig, t, lambda atom: synth_stmt(
        decls, sig, env, Multiplicity.SINGULAR, atom, s))


def check_stmt(decls: GlobalDecls, sig: Signature, env: TypeEnv,
               mult: Multiplicity, t: Type, s: UpdateStmt,
               expected: Type) -> tuple[bool, Diagnostic | None]:
    """Synthesize then check against ``expected`` by one subtype test."""
    try:
        actual = synth_stmt(decls, sig, env, mult, t, s)
    except TypeCheckFailure as exc:
        return False, exc.diagnostic
    if subtype(sig, actual, expected):
        return True, None
    return False, error(
        f"update produces type {type_str(actual)}, which is not a subtype "
        f"of {type_str(expected)}", "update/ascription", s.span)


def check_update_program(sig: Signature, prog: UpdateProgram,
                         env: TypeEnv | None = None) -> list[Diagnostic]:
    """Check function bodies, procedure bodies (plural, declared input vs.
    declared output), and the main update.  Assumes ``sig`` is well-formed."""
    env = env or {}
    fn_headers, diags = collect_function_decls(prog.functions)
    proc_headers: dict[str, ProcedureSig] = {}
    for proc in prog.procedures:
        if proc.name in proc_headers:
            diags.append(error(f"procedure {proc.name} declared twice",
                               "program/duplicate-procedure", proc.span))
            continue
        proc_headers[proc.name] = ProcedureSig(
            tuple(t for _, t in proc.params), proc.input, proc.output)
    annotations = [(prog.input, prog.span), (prog.output, prog.span)]
    for fn in prog.functions:
        annotations += [(t, fn.span) for _, t in fn.params]
        annotations.append((fn.result, fn.span))
    for proc in prog.procedures:
        annotations += [(t, proc.span) for _, t in proc.params]
        annotations += [(proc.input, proc.span), (proc.output, proc.span)]
    bad = _declared_type_diags(sig, annotations)
    if bad:
        return diags + bad
    decls = GlobalDecls(functions=fn_headers, procedures=proc_headers)

    for fn in prog.functions:
        fn_env = {name: ForestBinding(t) for name, t in fn.params}
        try:
            ok, diag = check_expr(decls, sig, fn_env, fn.body, fn.result)
        except UndeclaredVariable as exc:
            ok, diag = False, error(str(exc), "signature/undeclared", fn.span)
        if not ok:
            assert diag is not None
            diags.append(error(f"in function {fn.name}: {diag.message}",
                               diag.rule, diag.span or fn.span))
    for proc in prog.procedures:
        proc_env = {name: ForestBinding(t) for name, t in proc.params}
        try:
            ok, diag = check_stmt(decls, sig, proc_env, Multiplicity.PLURAL,
                                  proc.input, proc.body, proc.output)
        except UndeclaredVariable as exc:
            ok, diag = False, error(str(exc), "signature/undeclared", proc.span)
        if not ok:
            assert diag is not None
            diags.append(error(f"in procedure {proc.name}: {diag.message}",
                               diag.rule, diag.span or proc.span))
    try:
        ok, diag = check_stmt(decls, sig, env, Multiplicity.PLURAL,
                              prog.input, prog.main, prog.output)
    except UndeclaredVariable as exc:
        ok, diag = False, error(str(exc), "signature/undeclared", prog.span)
    if not ok:
        assert diag is not None
        diags.append(diag)
    return diags
