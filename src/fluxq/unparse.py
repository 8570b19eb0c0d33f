"""Rendering of expressions, statements, and programs back to concrete
syntax.  Inverse of the parser up to desugaring: parse(unparse(ast)) is
structurally identical to ast.  A ``,`` or ``;`` list is printed down its
right spine in a loop, as ``printer.type_str`` prints a type's, so a list
of any length prints."""

from __future__ import annotations

from .printer import escape_string, test_str, type_str
from .types import (
    BoolLit, Call, Children, Concat, Delete, Elem, EmptySeq, For, If, IfStmt,
    Insert, LabelFilter, Let, LetStmt, Nav, ProcCall, QueryExpr, QueryProgram,
    Rename, SeqStmt, Signature, Skip, Snapshot, StrLit, Test, UpdateProgram,
    UpdateStmt, VarRef,
)

_COMMA, _SINGLE, _PATH = range(3)


def expr_str(e: QueryExpr) -> str:
    return _expr(e, _COMMA)


def _expr(e: QueryExpr, level: int) -> str:
    if isinstance(e, EmptySeq):
        return "()"
    if isinstance(e, BoolLit):
        return "true" if e.value else "false"
    if isinstance(e, StrLit):
        return f'"{escape_string(e.value)}"'
    if isinstance(e, VarRef):
        return f"${e.name}"
    if isinstance(e, Elem):
        if isinstance(e.content, EmptySeq):
            return f"{e.label}[]"
        return f"{e.label}[{_expr(e.content, _COMMA)}]"
    if isinstance(e, Concat):
        parts = []
        while isinstance(e, Concat):
            parts.append(_expr(e.left, _SINGLE))
            e = e.right
        parts.append(_expr(e, _COMMA))
        text = ", ".join(parts)
        return text if level <= _COMMA else f"({text})"
    if isinstance(e, Let):
        text = (f"let ${e.var} = {_expr(e.bound, _SINGLE)} "
                f"in {_expr(e.body, _SINGLE)}")
        return text if level <= _SINGLE else f"({text})"
    if isinstance(e, For):
        text = (f"for ${e.var} in {_expr(e.source, _SINGLE)} "
                f"return {_expr(e.body, _SINGLE)}")
        return text if level <= _SINGLE else f"({text})"
    if isinstance(e, If):
        text = (f"if {_expr(e.cond, _SINGLE)} then {_expr(e.then, _SINGLE)} "
                f"else {_expr(e.els, _SINGLE)}")
        return text if level <= _SINGLE else f"({text})"
    if isinstance(e, Children):
        return f"${e.var}/child"
    if isinstance(e, LabelFilter):
        return f"{_expr(e.source, _PATH)}::{e.label}"
    assert isinstance(e, Call)
    args = ", ".join(_expr(a, _SINGLE) for a in e.args)
    return f"{e.name}({args})"


_SEQLEVEL, _ITEM = range(2)


def stmt_str(s: UpdateStmt) -> str:
    return _stmt(s, _SEQLEVEL)


def _stmt(s: UpdateStmt, level: int) -> str:
    if isinstance(s, Skip):
        return "skip"
    if isinstance(s, Delete):
        return "delete"
    if isinstance(s, Insert):
        return f"insert {_expr(s.expr, _SINGLE)}"
    if isinstance(s, Rename):
        return f"rename {s.label}"
    if isinstance(s, SeqStmt):
        parts = []
        while isinstance(s, SeqStmt):
            parts.append(_stmt(s.first, _ITEM))
            s = s.second
        parts.append(_stmt(s, _SEQLEVEL))
        text = "; ".join(parts)
        return text if level <= _SEQLEVEL else f"({text})"
    if isinstance(s, IfStmt):
        return (f"if {_expr(s.cond, _SINGLE)} then {_stmt(s.then, _ITEM)} "
                f"else {_stmt(s.els, _ITEM)}")
    if isinstance(s, LetStmt):
        return (f"let ${s.var} = {_expr(s.bound, _SINGLE)} "
                f"in {_stmt(s.body, _ITEM)}")
    if isinstance(s, Snapshot):
        return f"snapshot ${s.var} in {_stmt(s.body, _ITEM)}"
    if isinstance(s, Test):
        return f"{test_str(s.test)}?{_stmt(s.body, _ITEM)}"
    if isinstance(s, Nav):
        return f"{s.direction}[{_stmt(s.body, _SEQLEVEL)}]"
    assert isinstance(s, ProcCall)
    args = ", ".join(_expr(a, _SINGLE) for a in s.args)
    return f"{s.name}({args})"


def signature_str(sig: Signature) -> str:
    return "\n".join(f"type {name} = {type_str(body)}"
                     for name, body in sig.items())


def _params_str(params: tuple[tuple[str, object], ...]) -> str:
    return ", ".join(f"${name} : {type_str(t)}" for name, t in params)


def program_str(prog: QueryProgram | UpdateProgram,
                sig: Signature | None = None) -> str:
    parts: list[str] = []
    if sig is not None and len(sig):
        parts.append(signature_str(sig))
    for fn in prog.functions:
        parts.append(f"declare function {fn.name}({_params_str(fn.params)}) : "
                     f"{type_str(fn.result)} {{\n  {expr_str(fn.body)}\n}};")
    if isinstance(prog, QueryProgram):
        parts.append(f"query {expr_str(prog.main)} : {type_str(prog.ascription)}")
    else:
        for proc in prog.procedures:
            parts.append(f"declare procedure {proc.name}("
                         f"{_params_str(proc.params)}) : {type_str(proc.input)}"
                         f" => {type_str(proc.output)} {{\n"
                         f"  {stmt_str(proc.body)}\n}};")
        parts.append(f"update {stmt_str(prog.main)} : {type_str(prog.input)} "
                     f"=> {type_str(prog.output)}")
    return "\n\n".join(parts) + "\n"
