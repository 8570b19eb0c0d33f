"""Structural subtyping: language inclusion of regular-expression types.

``subtype(sig, t1, t2)`` decides whether every value of ``t1`` is a value of
``t2``, and ``refute`` gives a value of ``t1`` outside ``t2`` when there is
one.  Both work on goals ``t ⊆ rights``, where ``rights`` is a set of
alternatives (a state, see ``types.union``), and a goal meets, in order:

* membership: it holds when ``t`` is one of ``rights``, tested in line
  wherever a goal is issued;
* the table rules (``_settled``), which settle it from the signature's
  tables with no subgoal and no step row;
* at ``subtype``'s entry only, for the call's own goal: R1 (alternatives)
  and R2 (prime type), two exact sufficient rules, then a walk over the
  left side's heads that settles each head with one same-label candidate
  by its two subgoals (``subtype``);
* the engine (``_Inclusion``): the product decomposition for unions of
  concatenations (after Hosoya, Vouillon & Pierce), coinductive, run over
  an explicit stack of goal frames.  It records why each goal its frames
  refute failed.  ``refute`` builds its counterexample from those reasons,
  and from the table rules for a goal they refuse, with values from
  ``values.inhabitants``.

Each call keeps its own path and verdicts: the goals assumed on the path
and the goals proven or refuted.  What depends on the signature alone
is kept on the ``Signature`` and shared by every call on it and by
``values.member``: nullability and the linear form of each type, each
right-hand side's summary and step row (``Signature.summary`` and
``Signature.steps``), the top-level atoms of each left side
(``Signature.atoms``), and the canonical state of each type
(``Signature.state``), through which ``subtype`` enters with its right
side.  Goal keys are the nodes themselves: types are interned, so a key
hashes and compares by identity.  No verdict outlives its call.  The
functions here stay safe to call concurrently: each table entry is a
deterministic function of its signature and key, so two calls that race
to fill one store equal values.

Types are assumed well-formed and inhabited, and nothing here re-checks
that: ``sig`` has passed ``check_signature``, which rejects a variable
with no value (e.g. ``X`` under ``X = cons[X]``), and every variable in the
types compared is declared in it (callers validate once, where types enter
the program).  An undeclared variable that the decision unfolds still raises
``UndeclaredVariable`` from ``Signature.definition``.
"""

from __future__ import annotations

from .types import Atom, Or, Signature, Type, Var, union
from .values import Forest, Node, inhabitants


_SELF_CONTAINED = 1 << 30
_BOTTOM = (None,) * 14  # the frame the first goal returns to


class _Inclusion:
    """One inclusion check, by the product decomposition; holds the
    per-invocation verdicts and reads and fills the signature's tables.

    A goal ``t ⊆ rights`` is decomposed by the linear form of ``t``: its
    head atoms with their continuations, variables unfolded at the top.
    For a head ``n[c]`` with continuation ``k``, the step row of ``rights``
    gives the same-label heads ``n[c_j]`` with continuations ``k_j`` (the
    candidates; ``bool`` and ``string`` are heads too, each labelled by its
    atom class and with content ``()``).  The head holds iff, for every
    subset S of the candidates, P(S) = ``c ⊆ ∪{c_j : j ∈ S}`` or Q(S) =
    ``k ⊆ ∪{k_j : j ∉ S}`` holds.  P is upward-closed in S and Q
    downward-closed, so the search grows sets one index at a time and stops
    growing a set once P holds; each set where P fails needs Q.  A union
    covered by one alternative costs one check per alternative, not one per
    subset.

    Goals on the path (the stack of open goals) are assumed to hold
    (coinduction), which makes recursive signatures terminate.  A completed
    goal is cached: refuted goals unconditionally (a failure under
    optimistic assumptions is a genuine failure), proven goals only when
    their proof never reached back into the path, tracked by the lowest
    path depth a subproof touched.  When ``check`` returns, ``goals``,
    ``longest`` and ``leaned`` count the goals it issued, the longest path
    one was issued from, and the goals that held by an assumption.

    A goal opens a frame, and enters the path, only if membership and
    ``_settled`` leave it open and it misses the caches; only then is the
    step row of ``rights`` fetched, or built.  ``refuted`` keeps why each
    goal whose frame closed failed: the head and continuation of ``t`` it
    failed at, with None (no same-label head on the right) or the set S of
    candidates whose goals P(S) and Q(S) both failed (P(∅) and Q(all) fail
    unissued).  A goal the tables settle leaves no record, whatever its
    outcome: they settle it again at once."""

    __slots__ = ("sig", "path_depth", "proven", "refuted", "pending",
                 "goals", "longest", "leaned")

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
        frames: list[tuple] = [_BOTTOM]
        goals = leaned = 0
        longest = len(path)
        key = depth = mark = low = pairs = i = row = None
        content = cont = cands = n = subsets = chosen = want_q = None
        while True:
            goals += 1
            goal = (t, rights)
            ok = True if t in rights else _settled(sig, t, rights)
            if ok is not None:
                sub = _SELF_CONTAINED
            # an empty table is not asked: each lookup hashes the goal's type
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
                # open a frame; the one below waits on the stack
                sub = _SELF_CONTAINED
                if key is not None:
                    frames.append((key, depth, mark, low, pairs, i, row,
                                   content, cont, cands, n, subsets,
                                   chosen, want_q))
                key, depth, mark = goal, len(path), len(pending)
                path[key] = depth
                low, ok, subsets, want_q = _SELF_CONTAINED, True, [], None
                pairs, i = linear_forms[t], 0
                row = (step_rows.get(rights) or sig.steps(rights))[1]
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
                    refuted[key] = (pairs[i - 1], chosen)
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


def _settled(sig: Signature, t: Type, rights: frozenset[Type]) -> bool | None:
    """The table rules: ``t ⊆ rights`` as far as the signature's tables
    settle it with no subgoal and no step row, or None (open).  They are
    tried in this order, which fixes the reason ``refute`` gives for a
    refusal:

    * False when ``t`` is nullable and ``rights`` is not: ``()`` is a value
      of ``t`` outside ``rights``;
    * True when ``t`` has no heads: its one value, ``()``, is then in
      ``rights``;
    * False when the first head of ``t`` has a label that heads no member
      of ``rights``: the head's goal fails for every subset of candidates,
      since every type is inhabited.

    They read the summary of ``rights`` (``Signature.summary``), not its
    row; a goal they leave open has its summary and the linear form of
    ``t`` in the tables.  Precondition: ``t`` is not an alternative of
    ``rights``.  Every caller tests that first, in line, and the goal then
    holds at once."""
    summary = sig._summaries.get(rights) or sig.summary(rights)
    nullables = sig._nullable
    if not summary[0] and (
            nullables[t] if t in nullables else sig.nullable(t)):
        return False
    heads = sig._linear_forms.get(t)
    if heads is None:
        heads = sig.linear_form(t)
    if not heads:
        return True
    if heads[0][0].label not in summary[1]:
        return False
    return None


def subtype(sig: Signature, t1: Type, t2: Type) -> bool:
    """True iff the set of values of ``t1`` is included in that of ``t2``.

    Most calls are answered here from the signature's tables, without
    entering ``_Inclusion``.  The call holds if ``t1`` is an alternative of
    ``t2``; else ``_settled`` may settle it.  If it stays open, two exact
    sufficient rules read the summary of ``t2`` that ``_settled`` filled,
    and a "yes" they give builds no step row:

    * R1 (alternatives): every alternative of ``t1`` is one of ``t2``.  The
      values of a type are the union of its alternatives' values.
    * R2 (prime type): ``t2`` has an alternative ``u*`` such that every
      top-level atom of ``t1`` (``Signature.atoms``) is an alternative of
      ``u``.  Each tree of a value of ``t1`` is a value of one of its
      top-level atoms, so of ``u``, and the forest is a value of ``u*``.
      Stars may not be pooled: ``a[],b[]`` is not a subtype of
      ``a[]*|b[]*``.

    Then each head ``n[c]`` of ``t1``, with continuation ``k``, is looked
    up in the step row of ``t2``.  A head with no step fails the call.  A
    head with one candidate ``(c', k')`` needs P(∅) or Q(∅), and P({0})
    or Q({0}); P(∅) = ``c ⊆ ∅`` and Q({0}) = ``k ⊆ ∅`` fail because every
    type is inhabited, so it holds iff Q(∅) = ``k ⊆ k'`` and P({0}) =
    ``c ⊆ c'`` both hold.  A subgoal that
    ``_settled`` refutes fails the call.  The call is True when every head
    has one candidate and both its subgoals settle true; any open subgoal,
    or any step with two or more candidates, hands the whole goal to the
    engine, whose verdict is the same on every call settled here.

    Precondition (not re-checked): ``sig`` has passed ``check_signature``
    and every variable in ``t1`` and ``t2`` is declared in it."""
    rights = sig._type_states.get(t2) or sig.state(t2)
    if t1 in rights:
        return True
    ok = _settled(sig, t1, rights)
    if ok is not None:
        return ok
    _, _, alternatives, stars = sig._summaries[rights]  # filled by _settled
    if t1.__class__ is not Or and t1.__class__ is not Var:
        if t1 in alternatives:  # t1 is its one alternative
            return True
    else:
        left = sig._type_states.get(t1) or sig.state(t1)
        if (sig._summaries.get(left) or sig.summary(left))[2] <= alternatives:
            return True
    if stars:
        atoms = sig._atoms.get(t1)
        if atoms is None:
            atoms = sig.atoms(t1)
        for alphabet in stars:
            if atoms <= alphabet:
                return True
    row, ok = (sig._steps.get(rights) or sig.steps(rights))[1], True
    for head, cont in sig._linear_forms[t1]:
        step = row.get(head.label)
        if step is None:
            return False
        if len(step[0]) != 1:
            ok = None
            continue
        (content, _), = step[0]
        q = True if cont in step[1] else _settled(sig, cont, step[1])
        if q is False:
            return False
        c = head.content
        p = True if c in content else _settled(sig, c, content)
        if p is False:
            return False
        if q is None or p is None:
            ok = None
    if ok:
        return True
    return _Inclusion(sig).check(t1, rights)


def refute(sig: Signature, t1: Type, t2: Type) -> Forest | None:
    """None if ``subtype(sig, t1, t2)`` holds, else a value of ``t1`` outside
    ``t2``, found at no bound, from the reasons ``_Inclusion`` records for
    the goals its frames refute, and the first reason of ``_settled`` for
    the goals the tables refuse (after Hosoya, Vouillon & Pierce):

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
    goal: tuple[Type, frozenset[Type]] | None = (t1, sig.state(t2))
    if inc.check(*goal):
        return None
    value = inhabitants(sig)
    trees: list = []
    open_: list[tuple] = []  # (trees, label, Q(S) or None, continuation)
    while True:
        why = inc.refuted.get(goal, False) if goal else None
        if why is False:  # the tables refused it: ``_settled``'s first reason
            t, rights = goal
            why = (None if sig.nullable(t) and not sig.summary(rights)[0]
                   else (sig.linear_form(t)[0], None))
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


def atom_subtype(sig: Signature, a1: Atom, a2: Type) -> bool:
    """Subtyping between singular types: ``subtype`` itself, since an atom's
    linear form is the atom followed by ``()``.

    Accepts any type on the right so that an atom can be compared against a
    variable naming it (needed for recursive calls through a signature).
    Not exported, and fluxq calls ``subtype``; the benchmark's tracer
    (``bench/tracing.py``) still names it as an entry point.
    """
    return subtype(sig, a1, a2)
