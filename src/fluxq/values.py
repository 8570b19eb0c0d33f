"""XML forest values, semantic membership ``v : t``, and inhabitants.

A forest is a tuple of trees; a tree is a boolean, a string, or a labeled
node with a child forest.  A tree has no source position, so building one
writes its fields and its unset hash, and no span.  Trees are immutable,
so they may be shared: a forest from ``parse_value`` holds one node per
distinct empty or text-only element (``n[]`` or ``n["w"]``) in its text,
and one per repeated subtree (see ``parser``).  Nothing may depend on a
tree's identity, beyond ``member``'s memo keyed by the identity of child
tuples, which therefore decides a repeated parsed subtree once.

``member`` runs a lazy deterministic automaton on the signature's tables,
the ones ``subtype`` uses.  A state is a set of alternatives
(``types.union``); the start state is the type's canonical state
(``Signature.state``), and a state's step row (``Signature.steps``) gives,
by label or atom kind, the next state, so a tree costs about one lookup,
which finds the canonical state the row names by identity.  A label that
heads no alternative fails at once and adds nothing to the row.  Element
content is matched with an explicit stack, so a value of any depth is
decided, and one memo per call, keyed by a child tuple's identity and its
start state, decides a shared child tuple once.  An element with one
candidate content reads and records its entry under one key, and one with
several reads an entry per candidate; under one candidate, a lone leaf
child, the common text-only element, is matched in place.  The stack and
the memo are built at the first element whose content needs them, so a
call on a flat value reads the tables and allocates nothing.

``inhabitants`` gives one value of each type at no bound, or None for a
type with none: ``check_signature`` reports a variable with no value by
it, ``suites.suite_types_inhabited`` draws types and checks the value
of each, and ``subtyping.refute`` builds its counterexamples from them.
"""

from __future__ import annotations

from typing import Callable, Union

from .types import (
    BoolAtom, Element, Or, Seq, Signature, Step, StringAtom, Struct, Type,
    Var, union,
)


# Trees write out ``__repr__``, and ``Node`` its ``__hash__``, where other
# nodes take ``Struct``'s, which read ``_fields``: ``values_upto`` hashes
# nodes in bulk and the oracle sorts trees by ``repr``, and the generic
# methods raised the oracle's tail.  Both agree with ``Struct``'s, whose
# walk ``Node`` takes for an unhashed child element.
_set_hash = Struct._hash.__set__


class BoolVal(Struct):
    __slots__ = ("value",)
    # not fields: ``member`` reads every tree by label and children, and
    # an atom's label is its atom class, the key of its step
    label, children = BoolAtom, ()

    def __repr__(self):
        return f"BoolVal(value={self.value!r})"


class StrVal(Struct):
    __slots__ = ("value",)
    label, children = StringAtom, ()

    def __repr__(self):
        return f"StrVal(value={self.value!r})"


class Node(Struct):
    __slots__ = ("label", "children")

    def __hash__(self):
        value = self._hash
        if value is None:
            for t in self.children:
                if t._hash is None and t.children:
                    return Struct.__hash__(self)  # hashes ``t`` first
            value = hash((self.label, self.children))
            _set_hash(self, value)
        return value

    def __repr__(self):
        return f"Node(label={self.label!r}, children={self.children!r})"


Tree = Union[BoolVal, StrVal, Node]
Forest = tuple[Tree, ...]

TRUE = BoolVal(True)
FALSE = BoolVal(False)


def max_width(v: Forest) -> int:
    """Largest forest length anywhere in ``v``, including nested child
    lists; the walk keeps its own stack, so ``v`` may be of any depth."""
    w, stack = 0, [v]
    while stack:
        f = stack.pop()
        w = max(w, len(f))
        stack.extend(t.children for t in f if t.children)
    return w


_DEAD: frozenset[Type] = frozenset()  # the state that accepts nothing


def member(sig: Signature, v: Forest, t: Type) -> bool:
    """Decide ``v`` ∈ the set of values denoted by ``t`` under ``sig``."""
    table = sig._steps
    # (id of a child tuple, state that starts it) -> accepted; every child
    # tuple of ``v`` stays alive for the whole call, so its id is stable
    memo: dict[tuple[int, frozenset[Type]], bool] | None = None
    # suspended forests: the forest, the position, state and step entry of
    # the element whose content is being matched, and the content's memo
    # key; both are built at the first element that needs them
    stack: list[tuple[Forest, int, frozenset[Type], Step,
                      tuple[int, frozenset[Type]]]] | None = None
    f, i, state = v, 0, sig._type_states.get(t) or sig.state(t)
    while True:
        n = len(f)
        while i < n:
            tree = f[i]
            step = (table.get(state) or sig.steps(state))[1].get(tree.label)
            if step is None:
                break
            children = tree.children
            if not children:
                state = step[2]
            elif len(step[0]) == 1:
                start = step[0][0][0]
                if len(children) == 1 and not children[0].children:
                    # one leaf child: match it in place
                    inner = (table.get(start) or sig.steps(start))[1].get(
                        children[0].label)
                    ok = inner is not None and (
                        table.get(inner[2]) or sig.steps(inner[2]))[0]
                else:
                    if memo is None:
                        memo, stack = {}, []
                    key = (id(children), start)
                    ok = memo.get(key)
                    if ok is None:  # match the children, then come back
                        stack.append((f, i, state, step, key))
                        f, i, state, n = children, 0, start, len(children)
                        continue
                state = step[1] if ok else _DEAD
            else:
                if memo is None:
                    memo, stack = {}, []
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
        ok = i == n and (table.get(state) or sig.steps(state))[0]
        if not stack:
            return ok
        f, i, state, step, key = stack.pop()
        memo[key] = ok
        if len(step[0]) == 1:
            # the element's only candidate decides its next state; with
            # several, the element is read again and the memo answers
            state = step[1] if ok else _DEAD
            i += 1


def inhabitants(sig: Signature) -> Callable[[Type], Forest | None]:
    """A function giving one value of a type, or None if it has none (as
    ``X`` has none under ``X = cons[X]``, which ``check_signature`` reports
    by it).  No depth or width bound applies.

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
            last = (StrVal(""),)
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
