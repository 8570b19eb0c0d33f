"""Semantic membership and the bounded enumeration functions.

``values_upto`` is cross-checked against an independent brute-force oracle
that enumerates every forest within bounds and filters by ``member``."""

import re
import time
from itertools import product

import pytest

from fluxq import (
    BoolAtom, BoolVal, Element, EMPTY, EMPTY_SIGNATURE, Node, Signature,
    StringAtom, StrVal, UndeclaredVariable, Var, member, parse_type,
    parse_value, types_upto, value_str, values_upto,
)
from fluxq.enumeration import _closure, witness
from fluxq.types import Empty, Or, Seq, Star
from fluxq.values import forest_depth, max_width

TREE_SIG = Signature({"Tree": parse_type("tree[leaf[string] | node[Tree*]]")})
LIST_SIG = Signature({"X": parse_type("nil[] | cons[a[], X]")})


def brute_forests(labels, strings, depth, width):
    """Every forest within the bounds, by exhaustive construction."""
    if depth <= 0:
        return [()]
    trees = [BoolVal(True), BoolVal(False)]
    trees += [StrVal(s) for s in strings]
    for label in labels:
        for child in brute_forests(labels, strings, depth - 1, width):
            trees.append(Node(label, child))
    out = [()]
    for n in range(1, width + 1):
        out.extend(tuple(c) for c in product(trees, repeat=n))
    return out


class TestMember:
    def test_empty_in_empty(self):
        assert member(EMPTY_SIGNATURE, (), EMPTY)

    def test_single_tree_against_star_option(self):
        t = parse_type("b[]*,c[]?")
        assert member(EMPTY_SIGNATURE, parse_value("b[]"), t)
        assert member(EMPTY_SIGNATURE, parse_value("b[],b[],c[]"), t)
        assert member(EMPTY_SIGNATURE, (), t)
        assert not member(EMPTY_SIGNATURE, parse_value("c[],b[]"), t)

    def test_string_is_not_bool(self):
        assert not member(EMPTY_SIGNATURE, parse_value('"hi"'), parse_type("bool"))
        assert member(EMPTY_SIGNATURE, parse_value('"hi"'), parse_type("string"))

    def test_recursive_unfolding(self):
        assert member(TREE_SIG, parse_value('tree[leaf["x"]]'), Var("Tree"))
        assert not member(TREE_SIG, parse_value("tree[]"), Var("Tree"))
        deep = parse_value('tree[node[tree[leaf["a"]],tree[node[]]]]')
        assert member(TREE_SIG, deep, Var("Tree"))

    def test_list_signature(self):
        assert member(LIST_SIG, parse_value("cons[a[],cons[a[],nil[]]]"),
                      Var("X"))
        assert not member(LIST_SIG, parse_value("cons[a[]]"), Var("X"))

    def test_nullable_star_body_terminates(self):
        t = parse_type("(()|a[])*")
        assert member(EMPTY_SIGNATURE, parse_value("a[],a[]"), t)
        assert member(EMPTY_SIGNATURE, (), t)
        assert not member(EMPTY_SIGNATURE, parse_value("b[]"), t)

    def test_undeclared_variable(self):
        with pytest.raises(UndeclaredVariable):
            member(EMPTY_SIGNATURE, (), Var("Nope"))


def letter_regex(t):
    """``t`` as a Python regex over one letter per tree, or None when some
    element has non-empty content."""
    if isinstance(t, Empty):
        return ""
    if isinstance(t, Element):
        return t.label if isinstance(t.content, Empty) else None
    if isinstance(t, Star):
        inner = letter_regex(t.inner)
        return None if inner is None else f"(?:{inner})*"
    left, right = letter_regex(t.left), letter_regex(t.right)
    if left is None or right is None:
        return None
    return f"(?:{left}|{right})" if isinstance(t, Or) else f"(?:{left})(?:{right})"


class TestMemberOracle:
    """``member`` against ``re.fullmatch`` on flat forests spelled as
    letters, an oracle that shares no code with fluxq."""

    def test_agrees_with_re_on_flat_types(self):
        words = ["".join(w) for n in range(7) for w in product("ab", repeat=n)]
        checked = 0
        for t in types_upto(5, ("a", "b")):
            pattern = letter_regex(t)
            if pattern is None:
                continue
            compiled = re.compile(pattern)
            for word in words:
                v = tuple(Node(c, ()) for c in word)
                assert member(EMPTY_SIGNATURE, v, t) == bool(
                    compiled.fullmatch(word)), (t, word)
                checked += 1
        assert checked > 10_000

    def test_shared_children_are_checked_per_element(self):
        kids = (Node("c", ()),)
        v = (Node("a", kids), Node("b", kids))
        assert not member(EMPTY_SIGNATURE, v, parse_type("a[c[]],b[d[]]"))
        assert member(EMPTY_SIGNATURE, v, parse_type("a[c[]],b[c[]]"))
        assert not member(EMPTY_SIGNATURE, v, parse_type("a[c[]],b[d[]|()]"))

    def test_shared_trees_and_shared_content_types(self):
        x = Node("a", (Node("c", ()),))
        content = parse_type("c[]")
        t = Seq(Element("a", content), Star(Element("a", content)))
        assert member(EMPTY_SIGNATURE, (x, x, x), t)
        assert not member(EMPTY_SIGNATURE, (x, Node("a", ()), x), t)


def printed_regex(t):
    """A regex for how ``value_str`` prints the nonempty values of the
    var-free type ``t``, and whether ``()`` is a value of ``t``."""
    if isinstance(t, Empty):
        return "(?!)", True
    if isinstance(t, BoolAtom):
        return "true|false", False
    if isinstance(t, StringAtom):
        return r'"(?:[^"\\]|\\.)*"', False
    if isinstance(t, Element):
        inner, nullable = printed_regex(t.content)
        inner = f"(?:{inner})?" if nullable else f"(?:{inner})"
        return rf"{re.escape(t.label)}\[{inner}\]", False
    if isinstance(t, Star):
        inner, _ = printed_regex(t.inner)
        return f"(?:{inner})(?:,(?:{inner}))*", True
    (left, left_null), (right, right_null) = (printed_regex(t.left),
                                              printed_regex(t.right))
    if isinstance(t, Or):
        return f"{left}|{right}", left_null or right_null
    alts = [f"(?:{left}),(?:{right})"]
    alts += [left] * right_null + [right] * left_null
    return "|".join(f"(?:{a})" for a in alts), left_null and right_null


class TestMemberAutomaton:
    """``member`` against an oracle that shares no code with it, on deep,
    shared and wide values, and the bounds of its step table."""

    # same-label alternatives with different contents, so that an element
    # can match some of its candidates and not the others
    SAME_LABEL = ("a[a[]],a[] | a[b[]],b[]", "(a[a[]*] | a[b[]],b[])*",
                  "a[a[]?],b[] | a[b[]*],a[]", "(a[b[]] | a[a[]],a[])*,b[]?")

    def test_agrees_with_re_on_printed_values(self):
        types = list(types_upto(5, ("a", "b")))
        assert len(types) == 257
        types += [parse_type(text) for text in self.SAME_LABEL]
        values = set()
        for t in types:
            values |= values_upto(EMPTY_SIGNATURE, t, 3, 3)
        texts = {v: value_str(v) for v in values}
        assert len(values) > 300
        for t in types:
            pattern, nullable = printed_regex(t)
            compiled = re.compile(pattern)
            for v, text in texts.items():
                expected = (nullable if text == "()"
                            else bool(compiled.fullmatch(text)))
                assert member(EMPTY_SIGNATURE, v, t) == expected, (t, text)

    def test_deep_chain(self):
        sig = Signature({"A": parse_type("a[A*]")})
        inside, outside = (), (Node("b", ()),)
        for _ in range(100_000):
            inside, outside = (Node("a", inside),), (Node("a", outside),)
        assert member(sig, inside, Var("A"))
        assert not member(sig, outside, Var("A"))

    def test_shared_children_stay_linear(self):
        # v_{k+1} = a[v_k, v_k] unfolds to 2^60 trees but has 61 nodes
        sig = Signature({"A": parse_type("a[A*]"),
                         "B": parse_type("a[(B, B)?]")})
        v = ()
        for _ in range(60):
            v = (Node("a", v + v),)
        assert member(sig, v, Var("A")) and member(sig, v, Var("B"))
        assert not member(sig, v, parse_type("a[a[a[]*]*]"))

    def test_step_tables_belong_to_one_signature(self):
        s1 = Signature({"X": parse_type("a[]")})
        s2 = Signature({"X": parse_type("b[]")})
        a = parse_value("a[]")
        for order in ((s1, s2), (s2, s1)):
            for _ in range(3):
                for sig in order:
                    assert member(sig, a, Var("X")) == (sig is s1)

    def test_unknown_labels_add_no_step_entries(self):
        sig = Signature()
        t = parse_type("(a[]|b[])*")
        assert member(sig, parse_value("a[],b[],a[]"), t)

        def entries():
            return (len(sig._steps) + len(sig._states)
                    + len(sig._type_states)
                    + sum(len(row) for _, row in sig._steps.values()))

        before = entries()
        labels = [Node(f"l{k}", ()) for k in range(10_000)]
        assert not member(sig, tuple(labels), t)
        assert not any(member(sig, (tree,), t) for tree in labels)
        assert not member(sig, (Node("a", ()),) + tuple(labels), t)
        assert entries() == before


class TestValuesUpto:
    def test_empty_type(self):
        assert values_upto(EMPTY_SIGNATURE, EMPTY, 2, 2) == {()}

    def test_single_element(self):
        assert values_upto(EMPTY_SIGNATURE, parse_type("a[]"), 2, 2) == {
            (Node("a", ()),)}

    def test_bool(self):
        assert values_upto(EMPTY_SIGNATURE, parse_type("bool"), 1, 1) == {
            (BoolVal(True),), (BoolVal(False),)}

    def test_star_truncates_at_width(self):
        vs = values_upto(EMPTY_SIGNATURE, parse_type("a[]*"), 1, 2)
        assert vs == {(), (Node("a", ()),), (Node("a", ()), Node("a", ()))}

    def test_depth_bound_prunes_nesting(self):
        vs = values_upto(EMPTY_SIGNATURE, parse_type("a[a[]]"), 1, 3)
        assert vs == frozenset()

    @pytest.mark.parametrize("text", [
        "()", "a[]", "bool", "string", "a[]*", "b[]*,c[]?", "a[b[]?]",
        "(a[]|b[])*", "a[],(b[]|string)", "a[bool]*",
    ])
    def test_agrees_with_brute_force(self, text):
        t = parse_type(text)
        depth, width = 2, 2
        expected = {v for v in brute_forests(("a", "b", "c"), ("", "a"),
                                             depth, width)
                    if member(EMPTY_SIGNATURE, v, t)
                    and forest_depth(v) <= depth and max_width(v) <= width}
        assert values_upto(EMPTY_SIGNATURE, t, depth, width) == expected

    def test_recursive_signature(self):
        vs = values_upto(TREE_SIG, Var("Tree"), 3, 2)
        assert parse_value('tree[leaf[""]]') in vs
        assert parse_value("tree[node[]]") in vs
        assert all(member(TREE_SIG, v, Var("Tree")) for v in vs)

    @staticmethod
    def frontier_closure(parts, bound):
        """The star by a frontier search: every member extended by every
        nonempty part, keeping what fits the bound."""
        nonempty = [p for p in parts if p]
        closure, frontier = {()}, [()]
        while frontier:
            base = frontier.pop()
            for part in nonempty:
                ext = base + part
                if len(ext) <= bound and ext not in closure:
                    closure.add(ext)
                    frontier.append(ext)
        return closure

    def test_closure_agrees_with_a_frontier_search(self):
        words = [(), ("a",), ("b",), ("a", "b"), ("b", "b"), ("a", "a", "b")]
        for mask in range(1 << len(words)):
            parts = [w for j, w in enumerate(words) if mask >> j & 1]
            for bound in range(-1, 6):
                assert _closure(frozenset(parts), bound) == \
                    self.frontier_closure(parts, bound), (parts, bound)

    def test_nested_stars_stay_within_the_bound(self):
        # the outer star's parts are the inner star's 3,616 values; the star
        # is built one length at a time, never by extending every member by
        # every part
        start = time.perf_counter()
        vs = values_upto(EMPTY_SIGNATURE, parse_type("a[string**]**"), 2, 3)
        assert len(vs) == 3616
        assert time.perf_counter() - start < 0.5


class TestWitness:
    @pytest.mark.parametrize("text", [
        "()", "bool", "string", "a[b[c[d[e[]]]]]", "a[]*,(b[bool]|c[])",
    ])
    def test_closed_types(self, text):
        t = parse_type(text)
        assert member(EMPTY_SIGNATURE, witness(EMPTY_SIGNATURE, t), t)

    def test_recursive_signatures(self):
        sig = Signature({"X": parse_type("cons[X]"),
                         "Y": parse_type("y[X] | y[Y, Z]"),
                         "Z": parse_type("z[Y] | ()")})
        assert witness(sig, Var("X")) is None
        assert witness(sig, parse_type("a[X]|X*")) == ()
        assert witness(sig, Var("Y")) is None
        assert witness(sig, Var("Z")) == ()
        for t in (Var("Tree"), parse_type("Tree, Tree")):
            assert member(TREE_SIG, witness(TREE_SIG, t), t)
        assert witness(LIST_SIG, Var("X")) == parse_value("nil[]")
        # P is defined first but inhabited only once Q is
        later = Signature({"P": parse_type("p[P] | p[Q]"),
                           "Q": parse_type("q[]")})
        assert witness(later, Var("P")) == parse_value("p[q[]]")
