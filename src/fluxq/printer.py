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
