"""XML forest values and semantic membership ``v : t``.

A forest is a tuple of trees; a tree is a boolean, a string, or a labeled
node with a child forest.  Membership matches a forest against a type viewed
as a regular expression over tree matchers, recursing into element content.
Star iterations consume nonempty prefixes only, so matching terminates even
when the star body is nullable.

One ``member`` call keeps one memo, keyed by the identities of the
subforest, the start position and the type node, so it computes each end
set once: O(positions × type nodes) entries per subforest, shared between
trees that share a child tuple.  Atoms and ``()`` are answered directly.
"""

from __future__ import annotations

from typing import Union

from .types import (
    BoolAtom, Element, Empty, Or, Seq, Signature, Star, StringAtom, Struct,
    Type,
)


class BoolVal(Struct):
    __slots__ = ("value",)


class StrVal(Struct):
    __slots__ = ("value",)


class Node(Struct):
    __slots__ = ("label", "children")


Tree = Union[BoolVal, StrVal, Node]
Forest = tuple[Tree, ...]
Ends = Union[tuple[int, ...], set[int]]

EMPTY_FOREST: Forest = ()

TRUE = BoolVal(True)
FALSE = BoolVal(False)


def forest(*trees: Tree) -> Forest:
    return tuple(trees)


def tree_depth(t: Tree) -> int:
    if isinstance(t, Node):
        return 1 + forest_depth(t.children)
    return 1


def forest_depth(v: Forest) -> int:
    return max((tree_depth(t) for t in v), default=0)


def max_width(v: Forest) -> int:
    """Largest forest length anywhere in ``v``, including nested child lists."""
    w = len(v)
    for t in v:
        if isinstance(t, Node):
            w = max(w, max_width(t.children))
    return w


def member(sig: Signature, v: Forest, t: Type) -> bool:
    """Decide ``v`` ∈ the set of values denoted by ``t`` under ``sig``."""
    # Every subforest of ``v`` and every type node reachable from ``t`` or
    # ``sig`` stays alive for the whole call, so their ids are stable keys.
    memo: dict[tuple[int, int, int], Ends] = {}
    definition = sig.definition

    def ends(f: Forest, i: int, node: Type) -> Ends:
        """End positions j such that f[i:j] matches ``node``."""
        cls = node.__class__
        if cls is Element:
            if i < len(f):
                tree = f[i]
                if (tree.__class__ is Node and tree.label == node.label
                        and len(tree.children) in ends(tree.children, 0, node.content)):
                    return (i + 1,)
            return ()
        if cls is Empty:
            return (i,)
        if cls is BoolAtom:
            return (i + 1,) if i < len(f) and f[i].__class__ is BoolVal else ()
        if cls is StringAtom:
            return (i + 1,) if i < len(f) and f[i].__class__ is StrVal else ()
        key = (id(f), i, id(node))
        out = memo.get(key)
        if out is not None:
            return out
        if cls is Or:
            left, right = ends(f, i, node.left), ends(f, i, node.right)
            out = right if not left else left if not right else {*left, *right}
        elif cls is Seq:
            right = node.right
            outs = [ends(f, j, right) for j in ends(f, i, node.left)]
            out = outs[0] if len(outs) == 1 else {k for o in outs for k in o}
        elif cls is Star:
            inner = node.inner
            out = {i}
            frontier = [i]
            while frontier:
                j = frontier.pop()
                for k in ends(f, j, inner):
                    if k > j and k not in out:  # nonempty prefixes only
                        out.add(k)
                        frontier.append(k)
        else:  # Var
            out = ends(f, i, definition(node.name))
        memo[key] = out
        return out

    return len(v) in ends(v, 0, t)
