"""Bounded enumeration of values and types.

The values of a type, like the types themselves, are infinitely many, so
``values_upto`` and ``types_upto`` take explicit finite bounds and compute
the corresponding finite restriction, exhaustively.  One value of a type at
no bound is given by ``values.inhabitants``, and one outside another by
``subtyping.refute``.  The module imports only ``types`` and ``values``,
and only ``fluxq oracle`` loads it.
"""

from __future__ import annotations

from .types import (
    BoolAtom, Element, Empty, EMPTY, Or, Seq, Signature, Star,
    StringAtom, Type, Var,
)
from .values import FALSE, Forest, Node, StrVal, TRUE

DEFAULT_STRINGS: tuple[str, ...] = ("", "a")


def _concat(lefts: frozenset[tuple], rights: frozenset[tuple],
            bound: int) -> frozenset[tuple]:
    """Every ``a + b`` of length ≤ bound: a bounded language's ``,``."""
    return frozenset(a + b for a in lefts for b in rights
                     if len(a) + len(b) <= bound)


def _closure(parts: frozenset[tuple], bound: int) -> frozenset[tuple]:
    """``()`` and every concatenation of nonempty parts of length ≤ bound:
    a bounded language's ``*``.

    Built one length at a time: the members of length n are those of
    length n - k, each followed by a part of length k.  So nothing longer
    than the bound is ever formed, and the cost follows the closure's
    members and the parts that fit, not their product: ``a[string**]**``
    at depth 2 and width 3 gives its 3,616 values in milliseconds."""
    by_length: dict[int, list[tuple]] = {}
    for part in parts:
        if 0 < len(part) <= bound:
            by_length.setdefault(len(part), []).append(part)
    layers: list[set[tuple]] = [{()}]
    for n in range(1, bound + 1):
        layers.append({base + part for k, same in by_length.items() if k <= n
                       for base in layers[n - k] for part in same})
    return frozenset().union(*layers)


def values_upto(sig: Signature, t: Type, depth: int,
                width: int) -> frozenset[Forest]:
    """All values of ``t`` with nesting depth ≤ depth and every forest length
    ≤ width, strings drawn from ``DEFAULT_STRINGS``.

    Exhaustive within the bounds: a forest is produced iff it conforms to
    ``t`` and respects them.
    """

    def gen(node: Type, d: int) -> frozenset[Forest]:
        if isinstance(node, Empty):
            return frozenset(((),))
        if isinstance(node, BoolAtom):
            return frozenset(((TRUE,), (FALSE,))) if d >= 1 else frozenset()
        if isinstance(node, StringAtom):
            if d < 1:
                return frozenset()
            return frozenset(((StrVal(s),) for s in DEFAULT_STRINGS))
        if isinstance(node, Element):
            if d < 1:
                return frozenset()
            return frozenset(((Node(node.label, v),)
                              for v in gen(node.content, d - 1)))
        if isinstance(node, Or):
            return gen(node.left, d) | gen(node.right, d)
        if isinstance(node, Seq):
            return _concat(gen(node.left, d), gen(node.right, d), width)
        if isinstance(node, Star):
            return _closure(gen(node.inner, d), width)
        assert isinstance(node, Var)
        return gen(sig.definition(node.name), d)

    return frozenset(v for v in gen(t, depth) if len(v) <= width)


def types_upto(size: int, labels: tuple[str, ...],
               leaves: tuple[Type, ...] = (EMPTY,)) -> list[Type]:
    """All types of AST size ≤ ``size`` built from the ``leaves`` and the
    given labels, smallest first.

    Size counts constructor nodes: each leaf is 1, ``n[t]`` is 1 + size(t),
    ``|``/``,`` are 1 + both sides, ``*`` is 1 + inner.  The leaves come
    first, in their order; the default, ``()`` alone, gives the types of
    the exhaustive oracles.
    """
    by_size: dict[int, list[Type]] = {0: []}
    for s in range(1, size + 1):
        out: list[Type] = list(leaves) if s == 1 else []
        for inner in by_size.get(s - 1, []):
            for lab in labels:
                out.append(Element(lab, inner))
            out.append(Star(inner))
        for ls in range(1, s - 1):
            for left in by_size[ls]:
                for right in by_size[s - 1 - ls]:
                    out.append(Or(left, right))
                    out.append(Seq(left, right))
        by_size[s] = out
    result: list[Type] = []
    for s in range(1, size + 1):
        result.extend(by_size[s])
    return result
