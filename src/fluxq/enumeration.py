"""Bounded enumeration of values and types, and unbounded witnesses.

The values of a type, like the types themselves, are infinitely many, so
``values_upto`` and ``types_upto`` take explicit finite bounds and compute
the corresponding finite restriction, exhaustively.  ``witness`` gives one
value of a type, and ``refute`` one value of a type outside another
whenever ``subtype`` refuses.
"""

from __future__ import annotations

from typing import Callable

from .subtyping import _Inclusion
from .types import (
    BoolAtom, Element, Empty, EMPTY, Or, Seq, Signature, Star,
    StringAtom, Type, Var, state_of, union,
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
    a bounded language's ``*``."""
    nonempty = [p for p in parts if p]
    closure = {(): None}
    frontier = [()]
    while frontier:
        base = frontier.pop()
        for part in nonempty:
            ext = base + part
            if len(ext) <= bound and ext not in closure:
                closure[ext] = None
                frontier.append(ext)
    return frozenset(closure)


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


def _inhabitants(sig: Signature) -> Callable[[Type], Forest | None]:
    """A function giving one value of a type, or None if it has none (as
    ``X`` has none under ``X = cons[X]``).  No depth or width bound applies.

    A least-fixpoint pass over ``sig`` first gives each inhabited variable
    a value, that of its first inhabited alternative; the value of a type is
    then built structurally, taking ``()`` for a star, and a ``,`` chain
    along its right spine in a loop."""
    known: dict[str, Forest] = {}

    def build(node: Type) -> Forest | None:
        trees: Forest = ()
        while isinstance(node, Seq):
            left = build(node.left)
            if left is None:
                return None
            trees, node = trees + left, node.right
        last: Forest | None = ()
        if isinstance(node, BoolAtom):
            last = (TRUE,)
        elif isinstance(node, StringAtom):
            last = (StrVal(DEFAULT_STRINGS[0]),)
        elif isinstance(node, Element):
            content = build(node.content)
            last = None if content is None else (Node(node.label, content),)
        elif isinstance(node, Or):
            left = build(node.left)
            last = build(node.right) if left is None else left
        elif isinstance(node, Var):
            last = known.get(node.name)
        return None if last is None else trees + last

    grew = True
    while grew:
        grew = False
        for name in sig:
            if name not in known:
                value = build(sig.definition(name))
                if value is not None:
                    known[name] = value
                    grew = True
    return build


def witness(sig: Signature, t: Type) -> Forest | None:
    """One value of ``t``, or None if ``t`` has none (see ``_inhabitants``)."""
    return _inhabitants(sig)(t)


def refute(sig: Signature, t1: Type, t2: Type) -> Forest | None:
    """None if ``subtype(sig, t1, t2)`` holds, else a value of ``t1`` outside
    ``t2``, found at no bound, from the reasons ``subtyping._Inclusion``
    records for its refuted goals (after Hosoya, Vouillon & Pierce):

    * a nullable left side with a right side that is not ends the forest;
    * a head with no same-label head on the right gives a value of the
      head, then one of its continuation;
    * a set S whose goals P(S) and Q(S) both failed gives ``n[w_P], w_Q``,
      where ``w_P`` refutes P(S) (any value of the content when S is empty)
      and ``w_Q`` refutes Q(S) (any value of the continuation when S holds
      every candidate): ``n[w_P]`` matches no candidate in S, and no other
      candidate's continuation holds ``w_Q``.

    A reason names only goals refuted before it, so the value is finite.
    Continuations are followed in a loop and element contents on a stack,
    and inhabitants are built once per call.  Same precondition as
    ``subtype``, and the types must be inhabited."""
    inc = _Inclusion(sig)
    goal: tuple[Type, frozenset[Type]] | None = (t1, state_of(t2))
    if inc.check(*goal):
        return None
    value = _inhabitants(sig)
    trees: list = []
    open_: list[tuple] = []  # (trees, label, Q(S) or None, continuation)
    while True:
        why = None if goal is None else inc.refuted[goal]
        if why is None:  # the forest ends here, with () or a whole value
            if not open_:
                return tuple(trees)
            parent, label, goal, cont = open_.pop()
            parent.append(Node(label, tuple(trees)))
            trees = parent
            if goal is None:
                trees += value(cont)
            continue
        (head, cont), chosen = why
        if chosen is None:
            trees += value(head) + value(cont)
            goal = None
            continue
        cands = sig.steps(goal[1])[1][head.label][0]
        rest = [k for j, (_, k) in enumerate(cands) if j not in chosen]
        q = (cont, union(rest)) if rest else None
        if not chosen:
            trees += value(head)
            goal = q
            continue
        open_.append((trees, head.label, q, cont))
        trees, goal = [], (head.content, frozenset().union(
            *(cands[j][0] for j in chosen)))


def types_upto(size: int, labels: tuple[str, ...]) -> list[Type]:
    """All types of AST size ≤ ``size`` built from ``()`` and the given labels.

    Size counts constructor nodes: ``()`` is 1, ``n[t]`` is 1 + size(t),
    ``|``/``,`` are 1 + both sides, ``*`` is 1 + inner.
    """
    by_size: dict[int, list[Type]] = {0: []}
    for s in range(1, size + 1):
        out: list[Type] = []
        if s == 1:
            out.append(EMPTY)
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
