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
* goals already on the path are assumed to hold (coinduction), which
  makes recursive signatures terminate; refuted goals are memoized with
  why they failed, so ``enumeration.refute`` can show a counterexample.
  The path is an explicit stack of goal frames run by one loop, not
  Python's call stack, so a proof's path may be as long as memory allows.

``subtype`` first answers the calls that the signature's tables settle
before any subgoal exists, with no per-call state: yes when the left type
is one of the right's alternatives, no when the left is nullable and the
right is not, or when a head of the left has a label absent from the
right's step row.  Only the other calls enter ``_Inclusion``.
``enumeration.refute`` always enters it, since it builds its witness from
the reasons the engine records for the goals it refutes.

Each call keeps its own path and verdicts: the goals assumed on the path
and the goals proven or refuted.  What depends on the signature alone
is kept on the ``Signature`` and shared by every call on it and by
``values.member``: nullability and the linear form of each type, each
right-hand side's step row (``Signature.steps``), and the canonical state
of each type (``Signature.state``), through which ``subtype`` enters with
its right side.  No verdict outlives its call.  The functions here stay
safe to call concurrently: each table entry is a deterministic function of
its signature and key, so two calls that race to fill one store equal
values.

Types are assumed well-formed and inhabited, and nothing here re-checks
that: ``sig`` has passed ``check_signature``, which rejects a variable
with no value (e.g. ``X`` under ``X = cons[X]``), and every variable in the
types compared is declared in it (callers validate once, where types enter
the program).  An undeclared variable that the decision unfolds still raises
``UndeclaredVariable`` from ``Signature.definition``.
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

    Goals on the path (the stack of open goals) are assumed to hold
    (coinduction).  A completed goal is cached: refuted goals
    unconditionally (a failure under optimistic assumptions is a genuine
    failure), proven goals only when their proof never reached back into
    the path, tracked by the lowest path depth a subproof touched.  When
    ``check`` returns, ``goals``, ``longest`` and ``leaned`` count the goals
    it issued, the longest path one was issued from, and the goals that
    held by an assumption.  ``refuted`` keeps why each refuted goal failed,
    recorded as it fails: None when ``t`` is nullable and ``rights`` is
    not, else the head and continuation of ``t`` it failed at, with None
    (no same-label head on the right) or the set S of candidates whose
    goals P(S) and Q(S) both failed (P(∅) and Q(all) fail unissued)."""

    def __init__(self, sig: Signature):
        self.sig = sig
        self.path_depth: dict[tuple[Type, frozenset[Type]], int] = {}
        self.proven: set[tuple[Type, frozenset[Type]]] = set()
        self.refuted: dict[tuple[Type, frozenset[Type]], tuple | None] = {}
        # goals proven under assumptions still on the path, in proof order,
        # with the lowest depth each depends on; a closing goal pops those
        # above its mark: commits them if self-contained, discards on failure
        self.pending: dict[tuple[Type, frozenset[Type]], int] = {}

    def check(self, t: Type, rights: frozenset[Type]) -> bool:
        """Decide ``t ⊆ rights`` in one loop over an explicit stack of goal
        frames, so a proof's path is not bounded by Python's stack.

        The top frame lives in locals: the goal's key, depth, pending mark
        and ``low`` (the lowest depth its subproofs reached), its linear
        form ``pairs`` and next head ``i``, and the head's content, ``cont``,
        candidates, subset stack and set ``chosen``, whose content goal P
        or continuation goal Q is awaited (``want_q``; ``None`` before the
        first head).  Each answer, ``ok`` and the depth ``sub`` its proof
        reached, is delivered to the frame below."""
        sig, path, pending = self.sig, self.path_depth, self.pending
        proven, refuted = self.proven, self.refuted
        step_rows, linear_forms = sig._steps, sig._linear_forms
        frames: list[tuple] = [(None,) * 14]  # what the first goal returns to
        goals = leaned = 0
        longest = len(path)
        key = depth = mark = low = pairs = i = row = None
        content = cont = cands = n = subsets = chosen = want_q = None
        while True:
            goals += 1
            # an empty table is not asked: each lookup hashes the goal's type
            goal = (t, rights)
            if t in rights:
                ok, sub = True, _SELF_CONTAINED
            elif path and (sub := path.get(goal)) is not None:
                ok = True
                leaned += 1
            elif proven and goal in proven:
                ok, sub = True, _SELF_CONTAINED
            elif refuted and goal in refuted:
                ok, sub = False, _SELF_CONTAINED
            elif pending and (sub := pending.get(goal)) is not None:
                ok = True
                leaned += 1
            else:
                # open a frame for the goal; the one below waits on the stack
                if key is not None:
                    frames.append((key, depth, mark, low, pairs, i, row,
                                   content, cont, cands, n, subsets, chosen,
                                   want_q))
                key, depth, mark = goal, len(path), len(pending)
                path[key] = depth
                low = sub = _SELF_CONTAINED
                subsets, want_q = [], None
                nullable_rights, row = step_rows.get(rights) or sig.steps(rights)
                ok = nullable_rights or not sig.nullable(t)
                pairs, i = linear_forms.get(t), 0
                if pairs is None:
                    pairs = sig.linear_form(t)
            while True:
                if key is None:
                    self.goals, self.longest, self.leaned = goals, longest, leaned
                    return ok
                if ok and sub < low:
                    low = sub
                if want_q:
                    # Q(S) = k ⊆ ∪conts(rest) holds: grow S, in increasing
                    # index order so that each set is reached once
                    if ok:
                        for j in range(chosen[-1] + 1 if chosen else 0, n):
                            subsets.append(chosen + (j,))
                elif want_q is not None and not ok and len(chosen) < n:
                    # P(S) = c ⊆ ∪contents(S) fails, so Q(S) is needed; P is
                    # upward-closed in S, so a set that covers is not grown
                    t, want_q = cont, True
                    rights = union(cands[j][1] for j in range(n)
                                   if j not in chosen)
                    break
                if ok:
                    if subsets:
                        chosen = subsets.pop()
                        t, want_q = content, False
                        rights = (cands[chosen[0]][0] if len(chosen) == 1
                                  else frozenset().union(
                                      *(cands[j][0] for j in chosen)))
                        break
                    if i < len(pairs):
                        head, cont = pairs[i]
                        i += 1
                        step = row.get(head.label)
                        if step is not None:
                            longest = max(longest, depth + 1)
                            content, cands = head.content, step[0]
                            n, chosen = len(cands), ()
                            t, rights, want_q = cont, step[1], True
                            break
                        ok, chosen = False, None
                    sub = low
                # close the top frame: closing at its own depth it commits the
                # cluster proven above it; failing, it discards that cluster
                del path[key]
                if not ok:
                    while len(pending) > mark:
                        pending.popitem()
                    refuted[key] = (pairs[i - 1], chosen) if i else None
                    sub = _SELF_CONTAINED
                elif low >= depth:
                    proven.add(key)
                    while len(pending) > mark:
                        proven.add(pending.popitem()[0])
                    sub = _SELF_CONTAINED
                else:
                    pending[key] = low
                    leaned += 1
                (key, depth, mark, low, pairs, i, row, content, cont, cands,
                 n, subsets, chosen, want_q) = frames.pop()


def subtype(sig: Signature, t1: Type, t2: Type) -> bool:
    """True iff the set of values of ``t1`` is included in that of ``t2``.

    Most calls are settled by the signature's tables before any subgoal
    exists, so they are answered here without entering ``_Inclusion``: yes
    when ``t1`` is an alternative of ``t2``; no when ``t1`` is nullable
    and ``t2`` is not, or when a head of ``t1`` has a label that no head
    of ``t2`` has (that head's goal fails for every subset, since every
    type is inhabited).  The engine runs only when none of these applies,
    and its verdict is the same on every call that they settle.

    Precondition (not re-checked): ``sig`` has passed ``check_signature``
    and every variable in ``t1`` and ``t2`` is declared in it."""
    rights = sig.state(t2)
    if t1 in rights:
        return True
    nullable_rights, row = sig._steps.get(rights) or sig.steps(rights)
    if not nullable_rights and sig.nullable(t1):
        return False
    pairs = sig._linear_forms.get(t1)
    if pairs is None:
        pairs = sig.linear_form(t1)
    for head, _ in pairs:
        if head.label not in row:
            return False
    return _Inclusion(sig).check(t1, rights)


def atom_subtype(sig: Signature, a1: Atom, a2: Type) -> bool:
    """Subtyping between singular types: ``subtype`` itself, since an atom's
    linear form is the atom followed by ``()``.

    Accepts any type on the right so that an atom can be compared against a
    variable naming it (needed for recursive calls through a signature).
    Not exported, and fluxq calls ``subtype``; the benchmark's tracer
    (``bench/tracing.py``) still names it as an entry point.
    """
    return subtype(sig, a1, a2)


def env_subtype(sig: Signature, g1: TypeEnv, g2: TypeEnv) -> bool:
    """Pointwise subtyping of environments with equal domains; a tree and a
    forest binding of one name are unrelated."""
    return g1.keys() == g2.keys() and all(
        type(b) is type(g2[name]) and subtype(sig, b.type, g2[name].type)
        for name, b in g1.items())
