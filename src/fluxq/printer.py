"""Concrete syntax of every form the parser reads: types, values,
expressions, statements, signatures and programs.

Output round-trips through the parser, up to desugaring: postfix
quantifiers bind tightest, then ``,``, then ``|``; ``t | ()`` prints as
``t?``.  A type's ``,`` or ``|`` chain prints down its right spine in a
loop, and values with an explicit stack.  A ``,`` or ``;`` list of
expressions or statements prints each of its items at item precedence, so
a nested list keeps its parentheses.  Each prints at any length or depth.
``import fluxq.printer`` loads ``diagnostics``, ``types`` and ``values``,
and no checker.
"""

from __future__ import annotations

from .types import (
    BoolAtom, BoolLit, Call, Children, Concat, Delete, Elem, Element, Empty,
    EmptySeq, For, If, IfStmt, Insert, LabelFilter, Let, LetStmt, Nav, Or,
    ProcCall, QueryExpr, QueryProgram, Rename, Seq, SeqStmt, Signature, Skip,
    Snapshot, Star, StringAtom, StrLit, Test, TEST_KEYWORDS, Type,
    UpdateProgram, UpdateStmt, Var, VarRef,
)
from .values import Forest, Node, StrVal

_OR, _SEQ, _POSTFIX, _PRIMARY = range(4)
# the keyword of each atom class a ``?`` test admits
_TEST_WORDS = {atom: word for word, atom in TEST_KEYWORDS.items()}


def type_str(t: Type) -> str:
    """The concrete syntax of ``t``.

    Synthesized types share subterms, and the text repeats a shared subterm
    at each of its occurrences, so it can be exponentially longer than the
    type.  One memo per call, keyed by node identity and precedence level,
    renders each distinct subterm once per level.  A ``|`` or ``,`` chain
    is rendered down its right operands in a loop, so a list of any length
    prints; only the suffix where the loop stops is looked up in the memo,
    and the chain's text is stored under its first node."""
    memo: dict[tuple[int, int], str] = {}

    def render(t: Type, level: int) -> str:
        key = (id(t), level)
        text = memo.get(key)
        if text is not None:
            return text
        cls = t.__class__
        if cls is Empty:
            text = "()"
        elif cls is BoolAtom:
            text = "bool"
        elif cls is StringAtom:
            text = "string"
        elif cls is Var:
            text = t.name
        elif cls is Element:
            if t.content.__class__ is Empty:
                text = f"{t.label}[]"
            else:
                text = f"{t.label}[{render(t.content, _OR)}]"
        elif cls is Star:
            text = f"{render(t.inner, _PRIMARY)}*"
        elif cls is Or and t.right.__class__ is Empty:
            text = f"{render(t.left, _PRIMARY)}?"
        else:
            assert cls is Or or cls is Seq
            # each left operand binds tighter than the chain, and the chain
            # continues through right operands of its own kind, but not
            # into a ``t?``, which prints as a postfix form
            sep, inner, own = ("|", _SEQ, _OR) if cls is Or else (
                ",", _POSTFIX, _SEQ)
            parts = []
            node = t
            while True:
                parts.append(render(node.left, inner))
                node = node.right
                if (node.__class__ is not cls or (id(node), own) in memo
                        or cls is Or and node.right.__class__ is Empty):
                    break
            parts.append(render(node, own))
            text = sep.join(parts)
            if level > own:
                text = f"({text})"
        memo[key] = text
        return text

    return render(t, _OR)


def test_str(test) -> str:
    """A ``?`` test as written before the ``?``: a label, ``*``, or the
    keyword of the atom class it admits."""
    return _TEST_WORDS.get(test, test)


def escape_string(s: str) -> str:
    return (s.replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n").replace("\t", "\\t"))


def value_str(v: Forest) -> str:
    """The concrete syntax of ``v``, built with an explicit stack of the
    open elements, so a value of any depth prints.  An empty or text-only
    element (``n[]`` or ``n["w"]``) is written as one part, and pushes
    nothing on the stack."""
    if not v:
        return "()"
    parts: list[str] = []
    stack: list[tuple[Forest, int]] = []  # enclosing forests, next positions
    f, i = v, 0
    while True:
        t = f[i]
        cls = t.__class__
        if cls is Node:
            children = t.children
            if not children:
                parts.append(f"{t.label}[]")
            elif len(children) == 1 and children[0].__class__ is StrVal:
                parts.append(
                    f'{t.label}["{escape_string(children[0].value)}"]')
            else:
                parts.append(f"{t.label}[")
                stack.append((f, i + 1))
                f, i = children, 0
                continue
        elif cls is StrVal:
            parts.append(f'"{escape_string(t.value)}"')
        else:
            parts.append("true" if t.value else "false")
        i += 1
        while i == len(f):
            if not stack:
                return "".join(parts)
            parts.append("]")
            f, i = stack.pop()
        parts.append(",")


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
        text = ", ".join(_expr(item, _SINGLE) for item in e.items)
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
        text = "; ".join(_stmt(item, _ITEM) for item in s.items)
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
