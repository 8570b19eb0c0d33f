"""Concrete-syntax rendering of types and values.

Output round-trips through the parser: postfix quantifiers bind tightest,
then ``,``, then ``|``; ``t | ()`` prints as ``t?``.
"""

from __future__ import annotations

from .types import (
    BoolAtom, Element, Empty, Or, Seq, Star, StringAtom, Type, Var,
)
from .values import Forest, Node, StrVal

_OR, _SEQ, _POSTFIX, _PRIMARY = range(4)


def type_str(t: Type) -> str:
    """The concrete syntax of ``t``.

    Synthesized types share subterms, and the text repeats a shared subterm
    at each of its occurrences, so it can be exponentially longer than the
    type.  One memo per call, keyed by node identity and precedence level,
    renders each distinct subterm once per level."""
    memo: dict[tuple[int, int], str] = {}

    def render(t: Type, level: int) -> str:
        key = (id(t), level)
        text = memo.get(key)
        if text is not None:
            return text
        if isinstance(t, Empty):
            text = "()"
        elif isinstance(t, BoolAtom):
            text = "bool"
        elif isinstance(t, StringAtom):
            text = "string"
        elif isinstance(t, Var):
            text = t.name
        elif isinstance(t, Element):
            if isinstance(t.content, Empty):
                text = f"{t.label}[]"
            else:
                text = f"{t.label}[{render(t.content, _OR)}]"
        elif isinstance(t, Star):
            text = f"{render(t.inner, _PRIMARY)}*"
        elif isinstance(t, Or) and isinstance(t.right, Empty):
            text = f"{render(t.left, _PRIMARY)}?"
        elif isinstance(t, Or):
            text = f"{render(t.left, _SEQ)}|{render(t.right, _OR)}"
            if level > _OR:
                text = f"({text})"
        else:
            assert isinstance(t, Seq)
            text = f"{render(t.left, _POSTFIX)},{render(t.right, _SEQ)}"
            if level > _SEQ:
                text = f"({text})"
        memo[key] = text
        return text

    return render(t, _OR)


def escape_string(s: str) -> str:
    return (s.replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n").replace("\t", "\\t"))


def value_str(v: Forest) -> str:
    """The concrete syntax of ``v``, built with an explicit stack of the
    open elements, so a value of any depth prints."""
    if not v:
        return "()"
    parts: list[str] = []
    stack: list[tuple[Forest, int]] = []  # enclosing forests, next positions
    f, i = v, 0
    while True:
        t = f[i]
        cls = t.__class__
        if cls is Node:
            if t.children:
                parts.append(f"{t.label}[")
                stack.append((f, i + 1))
                f, i = t.children, 0
                continue
            parts.append(f"{t.label}[]")
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
