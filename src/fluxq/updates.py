"""The algorithmic typechecker of update statements, whose syntax is in
``types``.

A statement judgment is parameterized by a multiplicity: singular updates
apply to one tree, plural updates to a forest.  Synthesis threads the focus
type through sequencing, recurses into navigation, and types iteration by
structural recursion over the focus type (one singular check per atomic
alternative).  As with queries, subtyping appears only at procedure calls
and ascriptions, and outputs are never simplified.  ``check_program``
checks whole programs, query and update programs alike.
"""

from __future__ import annotations

import enum

from .diagnostics import Diagnostic, UndeclaredVariable
from .printer import test_str, type_str
from .queries import (
    _arguments, _ascribe, _condition, _fail, check_expr, synth_expr,
)
from .subtyping import subtype
from .types import (
    Atom, Delete, Element, Empty, EMPTY, ForestBinding, FunctionDecl,
    GlobalDecls, IfStmt, Insert, LetStmt, Nav, Or, ProcCall, QueryProgram,
    Rename, Seq, SeqStmt, Signature, Skip, Snapshot, Test, Type, TypeEnv,
    UpdateProgram, UpdateStmt, check_type_declared, map_atoms, passes,
    program_decls,
)


class Multiplicity(enum.Enum):
    SINGULAR = "1"
    PLURAL = "*"


def synth_stmt(decls: GlobalDecls, sig: Signature, env: TypeEnv,
               mult: Multiplicity, t: Type, s: UpdateStmt) -> Type:
    """Synthesize the unique output type of ``s`` applied at multiplicity
    ``mult`` to focus type ``t``, or raise TypeCheckFailure."""
    if isinstance(s, SeqStmt):
        for item in s.items:
            t = synth_stmt(decls, sig, env, mult, t, item)
        return t
    if isinstance(s, Skip):
        return t
    if isinstance(s, IfStmt):
        _condition(decls, sig, env, s, "update")
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
            _fail(f"test {test_str(s.test)}? requires singular focus",
                  "update/test-multiplicity", s.span)
        if not isinstance(t, Atom):
            _fail(f"test {test_str(s.test)}? applies to an atomic focus, "
                  f"but the focus has type {type_str(t)}", "update/test-focus",
                  s.span)
        if passes(t.label, s.test):
            return synth_stmt(decls, sig, env, Multiplicity.SINGULAR, t, s.body)
        return t
    if isinstance(s, Nav):
        if s.direction == "left":
            grown = synth_stmt(decls, sig, env, Multiplicity.PLURAL, EMPTY, s.body)
            return Seq(grown, t)
        if s.direction == "right":
            grown = synth_stmt(decls, sig, env, Multiplicity.PLURAL, EMPTY, s.body)
            return Seq(t, grown)
        if s.direction == "children":
            if mult is not Multiplicity.SINGULAR:
                _fail("children[...] requires singular focus",
                      "update/children-multiplicity", s.span)
            if not isinstance(t, Element):
                _fail(f"children[...] applies to an element, but the focus "
                      f"has type {type_str(t)}", "update/children-focus", s.span)
            inner = synth_stmt(decls, sig, env, Multiplicity.PLURAL,
                               t.content, s.body)
            return Element(t.label, inner)
        assert s.direction == "iter"
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
    _arguments(decls, sig, env, s, proc.params, "update")
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
    _, diag = _ascribe(sig, lambda: synth_stmt(decls, sig, env, mult, t, s),
                       expected, s, "update")
    return diag is None, diag


def synth_main(decls: GlobalDecls, sig: Signature, env: TypeEnv,
               prog: QueryProgram | UpdateProgram) -> Type:
    """The synthesized type of the main query, or of the main update applied
    plurally to its declared input type."""
    if isinstance(prog, QueryProgram):
        return synth_expr(decls, sig, env, prog.main)
    return synth_stmt(decls, sig, env, Multiplicity.PLURAL, prog.input,
                      prog.main)


def annotation_diags(sig: Signature, prog: QueryProgram | UpdateProgram,
                     decls: GlobalDecls, env: TypeEnv) -> list[Diagnostic]:
    """One ``signature/undeclared`` diagnostic per annotation that mentions
    a type variable absent from ``sig``; duplicates are dropped.  The
    annotations are the main's, those of ``decls`` (as ``program_decls``
    resolves them) and the types of ``env``, reported at the span of the
    program or the declaration."""
    annotations = [(t, prog) for t in
                   ((prog.ascription,) if isinstance(prog, QueryProgram)
                    else (prog.input, prog.output))]
    for decl in (*decls.functions.values(), *decls.procedures.values()):
        declared = ((decl.result,) if isinstance(decl, FunctionDecl)
                    else (decl.input, decl.output))
        annotations += [(t, decl) for _, t in decl.params]
        annotations += [(t, decl) for t in declared]
    annotations += [(b.type, prog) for b in env.values()]
    out: list[Diagnostic] = []
    for t, at in annotations:
        try:
            check_type_declared(sig, t)
        except UndeclaredVariable as exc:
            diag = Diagnostic(str(exc), "signature/undeclared", at.span)
            if diag not in out:
                out.append(diag)
    return out


def check_program(sig: Signature, prog: QueryProgram | UpdateProgram,
                  env: TypeEnv | None = None
                  ) -> tuple[Type | None, list[Diagnostic]]:
    """Check a query or update program: its annotations and the types of
    ``env`` mention only declared type variables (``annotation_diags``),
    each function and procedure body (procedures plurally, declared input
    against declared output) meets its header, and the main meets its
    ascription.  Returns the main's synthesized type when every check
    passes, and the diagnostics.  Declarations resolve as ``program_decls``
    says; ``env`` types the main's free variables.  Assumes ``sig`` is
    well-formed.  The declared-variable check runs once, here: the
    synthesis and subtype checks after it rely on it."""
    env = env or {}
    decls, diags = program_decls(prog)
    bad = annotation_diags(sig, prog, decls, env)
    if bad:
        return None, diags + bad
    for decl in (*decls.functions.values(), *decls.procedures.values()):
        decl_env = {name: ForestBinding(t) for name, t in decl.params}
        if isinstance(decl, FunctionDecl):
            ok, diag = check_expr(decls, sig, decl_env, decl.body, decl.result)
        else:
            ok, diag = check_stmt(decls, sig, decl_env, Multiplicity.PLURAL,
                                  decl.input, decl.body, decl.output)
        if not ok:
            what = "function" if isinstance(decl, FunctionDecl) else "procedure"
            diags.append(Diagnostic(f"in {what} {decl.name}: {diag.message}",
                                    diag.rule, diag.span or decl.span))
    query = isinstance(prog, QueryProgram)
    main, diag = _ascribe(sig, lambda: synth_main(decls, sig, env, prog),
                          prog.ascription if query else prog.output,
                          prog.main, "query" if query else "update")
    if diag is not None:
        diags.append(diag)
    return (None if diags else main), diags


def check_update_program(sig: Signature, prog: UpdateProgram,
                         env: TypeEnv | None = None) -> list[Diagnostic]:
    """The diagnostics of ``check_program`` for an update program."""
    return check_program(sig, prog, env)[1]
