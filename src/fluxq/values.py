"""XML forest values and semantic membership ``v : t``.

A forest is a tuple of trees; a tree is a boolean, a string, or a labeled
node with a child forest.  Trees are immutable, so they may be shared: a
forest from ``parse_value`` holds one node per distinct empty element
(``n[]``) in its text.  Nothing may depend on a tree's identity, beyond
``member``'s memo keyed by the identity of child tuples.

``member`` runs a lazy deterministic automaton on the signature's tables,
the ones ``subtype`` uses.  A state is a set of alternatives
(``types.union``); the start state is the type's canonical state
(``Signature.state``), and a state's step row (``Signature.steps``) gives,
by label or atom kind, the next state, so a tree costs about one lookup,
which finds the canonical state the row names by identity.  A label that
heads no alternative fails at once and adds nothing to the row.  Element
content is matched with an explicit stack, so a value of any depth is
decided, and one memo per call, keyed by a child tuple's identity and its
start state, decides a shared child tuple once; a lone leaf child, the
common text-only element, is matched in place.
"""

from __future__ import annotations

from typing import Union

from .types import (
    BoolAtom, Signature, Step, StringAtom, Struct, Type, union,
)


class BoolVal(Struct):
    __slots__ = ("value",)
    # not fields: ``member`` reads every tree by label and children, and
    # an atom's label is its atom class, the key of its step
    label, children = BoolAtom, ()


class StrVal(Struct):
    __slots__ = ("value",)
    label, children = StringAtom, ()


class Node(Struct):
    __slots__ = ("label", "children")


Tree = Union[BoolVal, StrVal, Node]
Forest = tuple[Tree, ...]

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


_DEAD: frozenset[Type] = frozenset()  # the state that accepts nothing


def member(sig: Signature, v: Forest, t: Type) -> bool:
    """Decide ``v`` ∈ the set of values denoted by ``t`` under ``sig``."""
    table, steps = sig._steps, sig.steps
    # (id of a child tuple, state that starts it) -> accepted; every child
    # tuple of ``v`` stays alive for the whole call, so its id is stable
    memo: dict[tuple[int, frozenset[Type]], bool] = {}
    # suspended forests: the forest, the position, state and step entry of
    # the element whose content is being matched, and the content's memo key
    stack: list[tuple[Forest, int, frozenset[Type], Step,
                      tuple[int, frozenset[Type]]]] = []
    f, i, state = v, 0, sig.state(t)
    while True:
        n = len(f)
        while i < n:
            tree = f[i]
            step = (table.get(state) or steps(state))[1].get(tree.label)
            if step is None:
                break
            children = tree.children
            if not children:
                state = step[2]
            elif (len(children) == 1 and not children[0].children
                  and len(step[0]) == 1):
                # one candidate and one leaf child: match it in place
                start = step[0][0][0]
                inner = (table.get(start) or steps(start))[1].get(
                    children[0].label)
                ok = inner is not None and (
                    table.get(inner[2]) or steps(inner[2]))[0]
                state = step[1] if ok else _DEAD
            else:
                matched = []
                for start, cont in step[0]:
                    ok = memo.get((id(children), start))
                    if ok is None:
                        break
                    if ok:
                        matched.append(cont)
                else:
                    state = (step[1] if len(matched) == len(step[0])
                             else union(matched))
                    i += 1
                    continue
                # match the children against the first content not yet
                # known, then come back to this element
                stack.append((f, i, state, step, (id(children), start)))
                f, i, state, n = children, 0, start, len(children)
                continue
            i += 1
        ok = i == n and (table.get(state) or steps(state))[0]
        if not stack:
            return ok
        f, i, state, step, key = stack.pop()
        memo[key] = ok
        if len(step[0]) == 1:
            # the element's only candidate decides its next state; with
            # several, the element is read again and the memo answers
            state = step[1] if ok else _DEAD
            i += 1
