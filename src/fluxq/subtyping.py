"""Structural subtyping: language inclusion of regular-expression types.

``subtype(sig, t1, t2)`` decides whether every value of ``t1`` is a value of
``t2``.  The decision works on goals of the form ``t ⊆ u1 | ... | un``:

* decompose the left side into its head atoms with continuations
  (a linear form, unfolding variables at the top);
* for a head ``n[c]`` with continuation ``k``, gather the right sides'
  same-label heads ``n[c_j]`` with continuations ``k_j``; ``bool`` and
  ``string`` are heads too, each labelled by its atom class and with
  content ``()`` (``types.Signature.steps``).  The goal
  holds iff, for every subset S of them, ``c`` is included in the contents
  chosen by S or ``k`` is included in the continuations of the complement
  (the product decomposition for unions of concatenations, after Hosoya,
  Vouillon & Pierce).  The first disjunct is upward-closed in S and the
  second downward-closed, so the search grows sets one index at a time and
  stops growing a set as soon as its contents cover ``c``: all its supersets
  cover too.  Only sets that do not cover are extended, and each of those
  must have its complement's continuations cover ``k``.  A union that is
  covered by one alternative therefore costs one check per alternative,
  not one per subset;
* goals already on the call path are assumed to hold (coinduction), which
  makes recursive signatures terminate; refuted goals are memoized.

Each call keeps its own path and verdicts: the goals assumed on the call
path and the goals proven or refuted.  What depends on the signature alone
is kept on the ``Signature`` and shared by every call on it and by
``values.member``: nullability and the linear form of each type, and each
right-hand side's step row (``Signature.steps``).  The functions here stay
safe to call concurrently: each table entry is a deterministic function of
its signature and key, so two calls that race to fill one store equal
values.

Types are assumed well-formed and inhabited, and nothing here re-checks
that: ``sig`` has passed ``check_signature``, and every variable in the
types compared is declared in it (callers validate once, where types enter
the program).  An undeclared variable that the decision unfolds still raises
``UndeclaredVariable`` from ``Signature.definition``.  Every type built from
``bool``, ``string``, elements, ``()``, ``|``, ``,`` and ``*`` is inhabited
unless a recursive definition forces infinite values (e.g. ``X = cons[X]``);
such vacuous signatures are outside the contract and no emptiness check is
performed.
"""

from __future__ import annotations

from .types import (
    Atom, BoolAtom, Signature, StringAtom, Struct, Type, TypeEnv, union,
)


class LabelTest(Struct):
    __slots__ = ("label",)


class WildcardTest(Struct):
    __slots__ = ()


class BoolTest(Struct):
    __slots__ = ()
    label = BoolAtom  # not a field: the one label that passes


class StringTest(Struct):
    __slots__ = ()
    label = StringAtom


TestKind = LabelTest | WildcardTest | BoolTest | StringTest


def test_str(test: TestKind) -> str:
    """The test as written before ``?``."""
    if isinstance(test, LabelTest):
        return test.label
    if isinstance(test, BoolTest):
        return "bool"
    if isinstance(test, StringTest):
        return "string"
    return "*"


def passes(label, test: TestKind) -> bool:
    """Does a tree or an atom with head ``label`` (an element's name, or the
    atom class of ``bool`` or ``string``) pass ``test``?  The checker and the
    interpreter both decide ``?`` here, so they cannot disagree."""
    if test.__class__ is WildcardTest:
        return isinstance(label, str)
    return label == test.label


def test_subtype(atom: Atom, test: TestKind) -> bool:
    """Does every value of ``atom``, all with its label, pass ``test``?"""
    return passes(atom.label, test)


_SELF_CONTAINED = 1 << 30


class _Inclusion:
    """One inclusion check; holds the per-invocation verdicts and reads and
    fills the signature's derived tables.

    Goals on the call path are assumed to hold (coinduction).  A completed
    goal is cached: refuted goals unconditionally (a failure under
    optimistic assumptions is a genuine failure), proven goals only when
    their proof never reached back into the call path, tracked by the
    lowest path depth a subproof touched."""

    def __init__(self, sig: Signature):
        self.sig = sig
        self.path_depth: dict[tuple[Type, frozenset[Type]], int] = {}
        self.proven: set[tuple[Type, frozenset[Type]]] = set()
        self.refuted: set[tuple[Type, frozenset[Type]]] = set()
        # goals proven under assumptions still on the path, in proof order,
        # with the lowest depth each depends on; a closing goal pops those
        # above its mark: commits them if self-contained, discards on failure
        self.pending: dict[tuple[Type, frozenset[Type]], int] = {}

    def check(self, t: Type, rights) -> bool:
        return self._check(t, union(rights))[0]

    def _check(self, t: Type, rights: frozenset[Type]) -> tuple[bool, int]:
        """Decide the goal; also report the lowest path depth its proof
        reached (``_SELF_CONTAINED`` when it used no assumption).

        Every successful subproof's depth is folded into the caller's, so
        when a goal closes at its own depth the whole strongly connected
        cluster proven beneath it is committed at once; a failing goal
        discards the cluster instead, since those proofs may have assumed
        it."""
        if t in rights:
            return True, _SELF_CONTAINED
        key = (t, rights)
        depth = self.path_depth.get(key)
        if depth is not None:
            return True, depth
        if key in self.proven:
            return True, _SELF_CONTAINED
        if key in self.refuted:
            return False, _SELF_CONTAINED
        pending = self.pending
        reusable = pending.get(key)
        if reusable is not None:
            return True, reusable
        my_depth = len(self.path_depth)
        self.path_depth[key] = my_depth
        mark = len(pending)
        try:
            ok, low = self._check_body(t, rights)
        finally:
            del self.path_depth[key]
        if not ok:
            while len(pending) > mark:
                pending.popitem()
            self.refuted.add(key)
            return False, _SELF_CONTAINED
        if low >= my_depth:
            self.proven.add(key)
            while len(pending) > mark:
                self.proven.add(pending.popitem()[0])
            return True, _SELF_CONTAINED
        pending[key] = low
        return True, low

    def _check_body(self, t: Type, rights: frozenset[Type]) -> tuple[bool, int]:
        sig = self.sig
        nullable_rights, row = sig.steps(rights)
        if not nullable_rights and sig.nullable(t):
            return False, _SELF_CONTAINED
        low = _SELF_CONTAINED
        for head, cont in sig.linear_form(t):
            step = row.get(head.label)
            if step is None:
                return False, _SELF_CONTAINED
            ok, sub_low = self._check_head(head, cont, step[0])
            if not ok:
                return False, _SELF_CONTAINED
            low = min(low, sub_low)
        return True, low

    def _check_head(self, head: Atom, cont: Type,
                    same_label: tuple[tuple[frozenset[Type], Type], ...]
                    ) -> tuple[bool, int]:
        # P(S) = c ⊆ ∪contents(S) is upward-closed in S, so the search never
        # extends a set that covers: each superset of it covers as well.  Q(S)
        # = k ⊆ ∪conts(rest) is downward-closed, and needed only where P fails.
        # Sets are grown in increasing index order, so each is reached once.
        n = len(same_label)
        low = _SELF_CONTAINED
        stack: list[tuple[int, ...]] = [()]
        while stack:
            chosen = stack.pop()
            if chosen:
                contents = frozenset().union(*(same_label[i][0] for i in chosen))
                ok, sub_low = self._check(head.content, contents)
                if ok:
                    low = min(low, sub_low)
                    continue
            rest = union(same_label[i][1] for i in range(n) if i not in chosen)
            if not rest:
                return False, _SELF_CONTAINED
            ok, sub_low = self._check(cont, rest)
            if not ok:
                return False, _SELF_CONTAINED
            low = min(low, sub_low)
            start = chosen[-1] + 1 if chosen else 0
            stack.extend(chosen + (j,) for j in range(start, n))
        return True, low


def subtype(sig: Signature, t1: Type, t2: Type) -> bool:
    """True iff the set of values of ``t1`` is included in that of ``t2``.

    Precondition (not re-checked): ``sig`` has passed ``check_signature``
    and every variable in ``t1`` and ``t2`` is declared in it."""
    return _Inclusion(sig).check(t1, (t2,))


def atom_subtype(sig: Signature, a1: Atom, a2: Type) -> bool:
    """Subtyping between singular types: ``subtype`` itself, since an atom's
    linear form is the atom followed by ``()``.

    Accepts any type on the right so that an atom can be compared against a
    variable naming it (needed for recursive calls through a signature).
    """
    return subtype(sig, a1, a2)


def env_subtype(sig: Signature, g1: TypeEnv, g2: TypeEnv) -> bool:
    """Pointwise subtyping of environments with equal domains; a tree and a
    forest binding of one name are unrelated."""
    return g1.keys() == g2.keys() and all(
        type(b) is type(g2[name]) and subtype(sig, b.type, g2[name].type)
        for name, b in g1.items())
