"""Reference answers that do not come from the code under test.

Types are plain tuples, values are plain tuples, and every function here is
written from the language definition in the README, not from fluxq's
modules:

* Types: ``("E",)`` is ``()``, ``("B",)`` bool, ``("S",)`` string,
  ``("L", label, content)`` an element, ``("O", l, r)`` ``|``,
  ``("Q", l, r)`` ``,``, ``("K", t)`` ``*`` and ``("V", name)`` a variable.
* ``type_text`` prints a type with the precedence rules of the concrete
  syntax (postfix binds tightest, then ``,``, then ``|``; ``t|()`` is
  ``t?``), so a synthesized type can be compared as text.
* ``bounded_values`` enumerates a type's values up to a depth and width.
* Values are ``("n", label, children)``, ``("s", text)`` or ``("b", bool)``;
  ``value_text`` prints them, and ``insert_after``, ``overwrite_leaves`` and
  ``collect_leaves`` are the reference semantics of the sample programs
  that the ``run`` workload executes.
"""

from __future__ import annotations

EMPTY = ("E",)
BOOL = ("B",)
STRING = ("S",)


def elem(label, content=EMPTY):
    return ("L", label, content)


def alt(left, right):
    return ("O", left, right)


def seq(left, right):
    return ("Q", left, right)


def star(inner):
    return ("K", inner)


def var(name):
    return ("V", name)


def is_atom(t) -> bool:
    return t[0] in ("B", "S", "L")


_OR, _SEQ, _POSTFIX, _PRIMARY = range(4)


def type_text(t) -> str:
    return _text(t, _OR)


def _text(t, level: int) -> str:
    tag = t[0]
    if tag == "E":
        return "()"
    if tag == "B":
        return "bool"
    if tag == "S":
        return "string"
    if tag == "V":
        return t[1]
    if tag == "L":
        return f"{t[1]}[]" if t[2] == EMPTY else f"{t[1]}[{_text(t[2], _OR)}]"
    if tag == "K":
        return _text(t[1], _PRIMARY) + "*"
    if tag == "O":
        if t[2] == EMPTY:
            return _text(t[1], _PRIMARY) + "?"
        text = f"{_text(t[1], _SEQ)}|{_text(t[2], _OR)}"
        return text if level <= _OR else f"({text})"
    assert tag == "Q"
    text = f"{_text(t[1], _POSTFIX)},{_text(t[2], _SEQ)}"
    return text if level <= _SEQ else f"({text})"


def bounded_values(t, depth: int, width: int, sig=None) -> frozenset:
    """Every value of ``t`` whose nesting depth is at most ``depth`` and whose
    forests all have at most ``width`` trees.  Strings are ``""`` and ``"a"``.

    For a value ``v`` within the bounds, ``v`` is a value of ``u`` exactly
    when ``v`` is in ``bounded_values(u)``, so bounded inclusion of two
    types is a subset test of these sets."""
    sig = sig or {}

    def gen(node, d):
        tag = node[0]
        if tag == "E":
            return frozenset({()})
        if tag == "B":
            return frozenset({(("b", True),), (("b", False),)}) if d else frozenset()
        if tag == "S":
            return frozenset({(("s", ""),), (("s", "a"),)}) if d else frozenset()
        if tag == "L":
            if not d:
                return frozenset()
            return frozenset((("n", node[1], kids),) for kids in gen(node[2], d - 1))
        if tag == "O":
            return gen(node[1], d) | gen(node[2], d)
        if tag == "Q":
            rights = gen(node[2], d)
            return frozenset(a + b for a in gen(node[1], d) for b in rights
                             if len(a) + len(b) <= width)
        if tag == "K":
            parts = [v for v in gen(node[1], d) if v]
            reached = {()}
            frontier = [()]
            while frontier:
                base = frontier.pop()
                for part in parts:
                    grown = base + part
                    if len(grown) <= width and grown not in reached:
                        reached.add(grown)
                        frontier.append(grown)
            return frozenset(reached)
        assert tag == "V"
        return gen(sig[node[1]], d)

    return frozenset(v for v in gen(t, depth) if len(v) <= width)


# --- values and the sample programs' reference semantics --------------------


def node(label, *children):
    return ("n", label, tuple(children))


def text(s: str):
    return ("s", s)


def _escape(s: str) -> str:
    return (s.replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n").replace("\t", "\\t"))


def value_text(forest) -> str:
    if not forest:
        return "()"
    parts = []
    for tree in forest:
        if tree[0] == "b":
            parts.append("true" if tree[1] else "false")
        elif tree[0] == "s":
            parts.append(f'"{_escape(tree[1])}"')
        elif tree[2]:
            parts.append(f"{tree[1]}[{value_text(tree[2])}]")
        else:
            parts.append(f"{tree[1]}[]")
    return ",".join(parts)


def insert_after(forest, parent: str, after: str, new):
    """``iter[parent?children[iter[after? right[insert new]]]]``: insert
    ``new`` after every ``after`` child of each top-level ``parent``."""
    out = []
    for tree in forest:
        if tree[0] == "n" and tree[1] == parent:
            kids = []
            for kid in tree[2]:
                kids.append(kid)
                if kid[0] == "n" and kid[1] == after:
                    kids.append(new)
            tree = ("n", tree[1], tuple(kids))
        out.append(tree)
    return tuple(out)


def overwrite_leaves(forest, leaf: str, inner: str, replacement: str):
    """The ``leafupd`` procedure over a forest of trees: the text of every
    ``leaf`` element, at any depth below ``inner`` elements, becomes
    ``replacement``."""
    def tree_(t):
        kids = []
        for kid in t[2]:
            if kid[1] == leaf:
                kids.append(("n", leaf, (("s", replacement),)))
            else:
                kids.append(("n", inner, tuple(tree_(g) for g in kid[2])))
        return ("n", t[1], tuple(kids))
    return tuple(tree_(t) for t in forest)


def collect_leaves(tree, leaf: str):
    """The ``leaves`` function: every ``leaf`` element in document order."""
    return tuple(_in_document_order(tree, leaf))


def _in_document_order(tree, leaf):
    for kid in tree[2]:
        if kid[1] == leaf:
            yield kid
        else:
            for grandchild in kid[2]:
                yield from _in_document_order(grandchild, leaf)
