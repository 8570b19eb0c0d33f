"""Bounded enumeration: values of a type, words of atoms, and the
brute-force subtyping oracle built from them.

The semantic language and atom set of a type are infinite (they are closed
under subtyping), so every function here is parameterized by explicit finite
bounds and universes and computes the corresponding finite restriction,
exhaustively.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .subtyping import atom_subtype
from .types import (
    Atom, BoolAtom, Element, Empty, EMPTY, Or, Seq, Signature, Star,
    StringAtom, Type, Var,
)
from .values import FALSE, Forest, Node, StrVal, TRUE, member

DEFAULT_STRINGS: tuple[str, ...] = ("", "a")

Word = tuple[Atom, ...]


def word_to_type(word: Word) -> Type:
    """A word of atoms viewed as a type: their concatenation."""
    t: Type = EMPTY
    for atom in reversed(word):
        t = atom if isinstance(t, Empty) else Seq(atom, t)
    return t


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


def words_upto(sig: Signature, t: Type, k: int,
               universe: frozenset[Atom]) -> frozenset[Word]:
    """Words over ``universe`` of length ≤ k that are subtypes of ``t``.

    This is the bounded, universe-restricted language of ``t``: the letters
    of a word may be any universe atoms below the syntactic atoms of ``t``.
    """

    @lru_cache(maxsize=None)
    def below(atom: Atom) -> tuple[Atom, ...]:
        return tuple(u for u in universe if atom_subtype(sig, u, atom))

    def gen(node: Type) -> frozenset[Word]:
        if isinstance(node, Empty):
            return frozenset(((),))
        if isinstance(node, Atom):
            return frozenset((u,) for u in below(node))
        if isinstance(node, Or):
            return gen(node.left) | gen(node.right)
        if isinstance(node, Seq):
            return _concat(gen(node.left), gen(node.right), k)
        if isinstance(node, Star):
            return _closure(gen(node.inner), k)
        assert isinstance(node, Var)
        return gen(sig.definition(node.name))

    return frozenset(w for w in gen(t) if len(w) <= k)


def witness(sig: Signature, t: Type) -> Forest | None:
    """One value of ``t``, or None if ``t`` has none (as ``X`` has none
    under ``X = cons[X]``).  No depth or width bound applies.

    A least-fixpoint pass over ``sig`` first gives each inhabited variable
    a value, that of its first inhabited alternative; the value of ``t`` is
    then built structurally, taking ``()`` for a star."""
    known: dict[str, Forest] = {}

    def build(node: Type) -> Forest | None:
        if isinstance(node, (Empty, Star)):
            return ()
        if isinstance(node, BoolAtom):
            return (TRUE,)
        if isinstance(node, StringAtom):
            return (StrVal(DEFAULT_STRINGS[0]),)
        if isinstance(node, Element):
            content = build(node.content)
            return None if content is None else (Node(node.label, content),)
        if isinstance(node, Or):
            left = build(node.left)
            return build(node.right) if left is None else left
        if isinstance(node, Seq):
            left, right = build(node.left), build(node.right)
            return None if left is None or right is None else left + right
        assert isinstance(node, Var)
        return known.get(node.name)

    grew = True
    while grew:
        grew = False
        for name in sig:
            if name not in known:
                value = build(sig.definition(name))
                if value is not None:
                    known[name] = value
                    grew = True
    return build(t)


class RefutedWith(NamedTuple):
    """A concrete value of the left type that is not a value of the right."""

    counterexample: Forest


class ConsistentUpTo(NamedTuple):
    depth: int
    width: int


OracleVerdict = RefutedWith | ConsistentUpTo


def subtype_oracle(sig: Signature, t1: Type, t2: Type, depth: int,
                   width: int) -> OracleVerdict:
    """Exhaustively search ``t1``'s bounded values for one outside ``t2``."""
    for v in sorted(values_upto(sig, t1, depth, width),
                    key=lambda f: (len(f), repr(f))):
        if not member(sig, v, t2):
            return RefutedWith(v)
    return ConsistentUpTo(depth, width)


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
