"""The subtype decision procedure against spot checks, brute-force
enumeration, its certified refusals, and its preorder laws."""

import hashlib
import random
import time

import pytest

from fluxq import (
    BOOL, BoolAtom, Element, EMPTY, EMPTY_SIGNATURE, Signature, STRING,
    StringAtom, Var, passes,
    parse_type, parse_value, refute, subtype,
    type_str, types_upto, value_str, values_upto, member,
)
from fluxq import subtyping
from fluxq.subtyping import atom_subtype
from fluxq.suites import GenConfig, gen_subtype_of, gen_type
from fluxq.types import union

E = EMPTY_SIGNATURE
TREE_SIG = Signature({"Tree": parse_type("tree[leaf[string] | node[Tree*]]")})


def sub(t1, t2, sig=E):
    return subtype(sig, parse_type(t1), parse_type(t2))


class TestSpotChecks:
    def test_precise_iteration_type_below_factored_type(self):
        assert sub("b[]*,c[]?", "(b[]|c[])*")
        assert not sub("(b[]|c[])*", "b[]*,c[]?")

    def test_double_below_star_but_not_single(self):
        assert sub("a[],a[]", "a[]*")
        assert not sub("a[],a[]", "a[]")

    def test_reflexive_samples(self):
        for text in ("()", "bool", "a[b[]*,c[]?]", "(a[]|b[])*", "Tree"):
            assert subtype(TREE_SIG, parse_type(text), parse_type(text))

    def test_leaves_body_below_ascription(self):
        assert sub("leaf[string],(leaf[string]*)*", "leaf[string]*")

    def test_option_below_widened_option(self):
        assert sub("c[]?", "c[]?|d[]*")

    def test_empty_only_below_nullable(self):
        assert sub("()", "a[]*")
        assert not sub("()", "a[]")
        assert sub("()|()", "()")

    def test_content_covered_by_union_of_same_label(self):
        assert sub("a[b[]?]", "a[()]|a[b[]]")
        assert sub("a[()]|a[b[]]", "a[b[]?]")
        assert not sub("a[b[]|c[]]", "a[b[]]")

    def test_base_atoms_are_disjoint(self):
        assert not sub("bool", "string")
        assert not sub("bool", "a[]")
        assert sub("bool", "bool|string")

    def test_recursive_signature(self):
        assert subtype(TREE_SIG, parse_type("tree[leaf[string]|node[Tree*]]"),
                       Var("Tree"))
        assert subtype(TREE_SIG, Var("Tree"),
                       parse_type("tree[leaf[string]|node[Tree*]]"))
        assert not subtype(TREE_SIG, parse_type("tree[]"), Var("Tree"))
        assert subtype(TREE_SIG, parse_type("Tree,Tree"), parse_type("Tree*"))

    def test_recursive_unrolling_equivalences(self):
        sig = Signature({"L": parse_type("nil[] | cons[a[], L]")})
        unrolled = parse_type("nil[] | cons[a[], (nil[]|cons[a[],L])]")
        assert subtype(sig, Var("L"), unrolled)
        assert subtype(sig, unrolled, Var("L"))
        assert subtype(sig, parse_type("cons[a[], L]"), Var("L"))
        assert not subtype(sig, Var("L"), parse_type("cons[a[], L]"))
        assert not subtype(sig, Var("L"), parse_type("nil[]|cons[a[],nil[]]"))


class TestAtomSubtype:
    def test_element_content_inclusion(self):
        assert atom_subtype(E, Element("n", parse_type("b[]")),
                            Element("n", parse_type("b[]|c[]")))

    def test_cross_kind_pairs_false(self):
        assert not atom_subtype(E, BOOL, STRING)
        assert not atom_subtype(E, BOOL, Element("b", EMPTY))
        assert not atom_subtype(E, Element("a", EMPTY), Element("b", EMPTY))

    def test_atom_below_type_variable(self):
        assert atom_subtype(TREE_SIG,
                            Element("tree", parse_type("leaf[string]|node[Tree*]")),
                            Var("Tree"))

    def test_agrees_with_subtype_on_every_atom_pair(self):
        rec = Signature({"X": parse_type("a[X*] | b[]")})
        contents = types_upto(3, ("a", "b"))
        for sig, extra in ((E, ()), (rec, (Var("X"), parse_type("X*")))):
            atoms = [BOOL, STRING] + [Element(label, t) for label in ("a", "b")
                                      for t in (*contents, *extra)]
            for a1 in atoms:
                for a2 in atoms:
                    assert (atom_subtype(sig, a1, a2)
                            == subtype(sig, a1, a2)), (type_str(a1),
                                                       type_str(a2))


class TestTestSubtype:
    def test_the_four_axioms(self):
        assert passes(BOOL.label, BoolAtom)
        assert passes(STRING.label, StringAtom)
        assert passes(Element("b", EMPTY).label, "b")
        assert passes(Element("b", parse_type("a[]*")).label, "*")

    def test_everything_else_false(self):
        assert not passes(BOOL.label, "b")
        assert not passes(BOOL.label, "*")
        assert not passes(STRING.label, BoolAtom)
        assert not passes(Element("b", EMPTY).label, "c")
        assert not passes(Element("b", EMPTY).label, BoolAtom)
        assert not passes(STRING.label, "*")


def certified(sig, t1, t2):
    """``refute``'s answer on ``t1 <: t2``, checked against ``subtype``
    and, when it is a witness, by ``member``: in ``t1`` and not in ``t2``."""
    w = refute(sig, t1, t2)
    assert (w is None) == subtype(sig, t1, t2), (type_str(t1), type_str(t2))
    if w is not None:
        assert member(sig, w, t1) and not member(sig, w, t2), (
            type_str(t1), type_str(t2), value_str(w))
    return w


class TestRefute:
    def test_every_small_pair(self):
        corpus = types_upto(4, ("a", "b"))
        for t1 in corpus:
            for t2 in corpus:
                certified(E, t1, t2)

    def test_recursive_signature(self):
        sig = Signature({"X": parse_type("a[X*] | b[]")})
        corpus = types_upto(4, ("a", "b")) + [
            parse_type(text) for text in ("X", "X*", "a[X]", "X,X")]
        refusals = 0
        for t1 in corpus:
            for t2 in corpus:
                refusals += certified(sig, t1, t2) is not None
        assert refusals

    def test_pinned_witnesses(self):
        for t1, t2, want in (
                ("a[],a[]", "a[]", "a[],a[]"),
                ("a[c[]], d[]", "a[b[]], d[] | a[e[]], d[]", "a[c[]],d[]"),
                ("()", "a[]", "()"),
                ("a[]", "a[]*", None)):
            w = certified(E, parse_type(t1), parse_type(t2))
            assert w == (None if want is None else parse_value(want))
        # the refuted subgoal (a[]|b[])* ⊆ a[]* leans on itself on the path
        assert certified(E, parse_type("(a[]|b[])*"), parse_type("a[]*|b[]*"))

    def test_subset_search_reaches_every_candidate(self):
        # a search that grows sets only from the first candidate accepts one
        # of these pairs, whichever candidate the step row lists first, and
        # changes no size-5 verdict
        right = parse_type("a[b[]], d[] | a[c[]], e[]")
        for left in ("a[b[]],e[]", "a[c[]],d[]"):
            assert not subtype(E, parse_type(left), right)
            assert certified(E, parse_type(left), right) == parse_value(left)

    def test_long_witness_needs_no_recursion(self):
        flat = parse_type(", ".join(["a[]"] * 450))
        w = certified(E, flat, parse_type("a[]"))
        assert w == parse_value(",".join(["a[]"] * 450))


class TestEntry:
    """``subtype`` answers from the signature's tables the calls that they
    settle, and enters ``_Inclusion`` for the rest."""

    def test_agrees_with_the_engine(self):
        x_sig = Signature({"X": parse_type("a[X*] | b[]")})
        small = types_upto(4, ("a", "b"))
        for sig, corpus in ((E, types_upto(5, ("a", "b"))), (x_sig, small + [
                parse_type(text)
                for text in ("X", "X*", "a[X]", "X,X", "a[b[]],b[]")])):
            for t1 in corpus:
                for t2 in corpus:
                    assert subtype(sig, t1, t2) == subtyping._Inclusion(
                        sig).check(t1, sig.state(t2)), (t1, t2)

    def test_one_candidate_heads_settle_at_the_entry(self, monkeypatch):
        # under X = a[X*] | b[] each head meets one candidate: X <: X* holds
        # and a[b[]],b[] <: a[X] fails at Q(∅) with no engine, while the
        # content goal X ⊆ X* of a[X] and the continuation goal b[] ⊆ X* of
        # a[b[]],b[] are left open by the tables, so those calls enter it;
        # a head that meets two candidates always enters it
        entered = []

        class Counted(subtyping._Inclusion):
            def __init__(self, sig):
                entered.append(sig)
                super().__init__(sig)

        monkeypatch.setattr(subtyping, "_Inclusion", Counted)
        sig = Signature({"X": parse_type("a[X*] | b[]")})
        for left, right, verdict, engine in (
                ("X", "X*", True, 0), ("a[b[]],b[]", "a[X]", False, 0),
                ("a[X]", "X*", True, 1), ("a[b[]],b[]", "X*", True, 1),
                ("a[X],b[]", "a[X]", False, 0),
                ("a[c[]]", "a[b[]] | a[c[]],d[]?", True, 1)):
            entered.clear()
            assert subtype(sig, parse_type(left),
                           parse_type(right)) is verdict, (left, right)
            assert len(entered) == engine, (left, right)

    def test_engine_runs_only_where_the_tables_do_not_settle(self, monkeypatch):
        # the top goal settles 46,663 pairs: 289 hold by an alternative and
        # 3,534 by a left side with no heads, 16,132 fail by nullability and
        # 26,708 by the first head's label; the rules settle 328 more (68 by
        # alternatives, 260 by a prime type); the walk over one-candidate
        # heads settles 15,886 more (2,420 hold, 12,112 fail at P({0}), 1,240
        # at Q(∅), 114 at a later head's label): the engine is entered 3,172
        # times
        entered = []

        class Counted(subtyping._Inclusion):
            def __init__(self, sig):
                entered.append(sig)
                super().__init__(sig)

        monkeypatch.setattr(subtyping, "_Inclusion", Counted)
        corpus = types_upto(5, ("a", "b"))
        yes = sum(subtype(E, t1, t2) for t1 in corpus for t2 in corpus)
        assert (yes, len(entered)) == (7855, 3172)

    def test_goals_the_tables_settle_open_no_frame(self, monkeypatch):
        # a goal opens a frame, and enters the path, only when the tables
        # leave it open: over the size-5 pairs, 3,172 frames hold the
        # engine's first goals and 3,256 its subgoals
        opened = []

        class Path(dict):
            def __setitem__(self, goal, depth):
                opened.append(goal)
                super().__setitem__(goal, depth)

        class Counted(subtyping._Inclusion):
            def __init__(self, sig):
                super().__init__(sig)
                self.path_depth = Path()

        monkeypatch.setattr(subtyping, "_Inclusion", Counted)
        corpus = types_upto(5, ("a", "b"))
        yes = sum(subtype(E, t1, t2) for t1 in corpus for t2 in corpus)
        assert (yes, len(opened)) == (7855, 6428)


class TestEntryRules:
    """R1 and R2, the entry's sufficient rules: a "yes" they give builds no
    step row and enters no engine."""

    @pytest.mark.parametrize("left, right", [
        ("a[X*]", "X"),  # R1: an alternative of X's definition
        ("X", "c[] | a[X*] | b[]"),  # R1: X unfolded on the left
        ("b[],X?", "X*"),  # R2: b[] and X's atoms are X's alternatives
        ("(b[]|a[X*])*,b[]?", "c[] | X*"),
    ])
    def test_settled_without_a_row(self, monkeypatch, left, right):
        def engine(sig):
            raise AssertionError("entered the engine")

        monkeypatch.setattr(subtyping, "_Inclusion", engine)
        sig = Signature({"X": parse_type("a[X*] | b[]")})
        assert subtype(sig, parse_type(left), parse_type(right))
        assert not sig._steps

    def test_stars_are_not_pooled(self):
        # each atom of a[],b[] lies in a star of the right side, but not
        # all in one: the forest a[],b[] is in neither a[]* nor b[]*
        assert not sub("a[],b[]", "a[]*|b[]*")
        assert sub("a[],a[]", "a[]*|b[]*") and sub("b[]*", "a[]*|b[]*")
        assert refute(E, parse_type("a[],b[]"),
                      parse_type("a[]*|b[]*")) is not None


class TestPerformanceGuards:
    def test_nested_star_alternations_decide_quickly(self):
        import time
        left = parse_type("((a[],b[])*|(b[],a[])*)*")
        right = parse_type("(a[]|b[])*")
        start = time.perf_counter()
        assert subtype(E, left, right)
        assert not subtype(E, right, left)
        words = parse_type("(a[],a[],b[],b[],a[])*")
        assert subtype(E, words, right)
        assert not subtype(E, right, words)
        assert time.perf_counter() - start < 2.0

    def test_deeply_nested_content_terminates(self):
        deep1 = parse_type("a[a[a[a[a[b[]*]]]]]")
        deep2 = parse_type("a[a[a[a[a[(b[]|c[])*]]]]]")
        assert subtype(E, deep1, deep2)
        assert not subtype(E, deep2, deep1)

    def test_symmetric_star_unions_decide_quickly(self):
        # these shapes used to re-prove one small goal cluster exponentially
        import time
        start = time.perf_counter()
        assert sub("(b[],b[b[]*]*|(),b[a[]],b[])*", "((),b[a[]],b[]|b[],b[b[]*]*)*")
        assert sub("(a[]*|a[bool])*,(b[b[]],(),b[]|a[string])",
                   "(a[]*|a[bool])*,b[b[]],(),b[]|(a[]*|a[bool])*,a[string]")
        assert sub("(a[]*|a[bool])*,b[b[]],(),b[]|(a[]*|a[bool])*,a[string]",
                   "(a[]*|a[bool])*,(b[b[]],(),b[]|a[string])")
        assert time.perf_counter() - start < 2.0


def decide(sig, t1, t2):
    """The verdict on ``t1 <: t2`` and the check that reached it, whose
    counters say how many goals it issued, how long its goal stack grew and
    how many goals held by an assumption."""
    inc = subtyping._Inclusion(sig)
    return inc.check(t1, union([t2])), inc


class TestWideSameLabelUnion:
    def test_covering_alternatives_cost_linear_goals(self):
        # every nonempty choice of alternatives covers the content c[], so the
        # pruned decomposition checks each alternative once, not 2^n subsets
        left = parse_type("a[c[]],d0[]")
        for n in (8, 14, 20):
            alts = [f"a[b{i}[]|c[]],d{i}[]" for i in range(n)]
            start = time.perf_counter()
            ok, inc = decide(E, left, parse_type("|".join(alts)))
            assert ok
            assert time.perf_counter() - start < 1.0
            assert inc.goals <= 2 * n
            assert not subtype(E, left, parse_type("|".join(alts[1:])))


class TestDepthFold:
    def test_covering_subproof_depth_is_folded(self):
        # with X ⊆ Y assumed at depth 0, the goal a[X] ⊆ a[Y] opens at depth
        # 1 and its head's covering subcheck X ⊆ Y holds only by that
        # assumption: the head's proof depends on depth 0, so the goal waits
        # in ``pending`` at 0 instead of being proven on its own
        sig = Signature({"X": parse_type("a[X] | b[]"),
                         "Y": parse_type("a[Y] | b[]")})
        inc = subtyping._Inclusion(sig)
        x, y = Var("X"), Var("Y")
        inc.path_depth[(x, union([y]))] = 0
        goal = (Element("a", x), union([Element("a", y)]))
        assert inc.check(*goal)
        assert inc.pending == {goal: 0}
        assert not inc.proven and inc.leaned == 2


class TestSelfContainedProofs:
    def test_proofs_without_assumptions_are_kept(self):
        # J <: J' holds without assumptions and recurs under each subset the
        # a[...] head search tries: committed to ``proven`` once, the whole
        # check takes 634 goals at n = m = 6; re-proven each time, 9,190
        n = m = 6
        j = "p[" + "|".join(f"r{k}[]" for k in range(m)) + "],s[]"
        j_alts = "|".join(f"(p[r{k}[]],s[])" for k in range(m))
        left = parse_type(f"a[(x[{j}],y0[])|w[]],d[]")
        right = parse_type("|".join(f"a[x[{j_alts}],(y0[]|y{i}[])],d[]"
                                    for i in range(1, n + 1)))
        assert subtype(E, parse_type(j), parse_type(j_alts))
        ok, inc = decide(E, left, right)
        assert not ok
        assert inc.goals <= 1000


class TestGoalStack:
    """Family (c): L_n = (a[]|b[])*, a[], (a[]|b[]) repeated n-1 times, and
    M_n the same with (b[]|a[]).  L_n <: M_n holds, and its proof path grows
    with the subset states explored, not with nesting."""

    @staticmethod
    def family(n, alts):
        return parse_type(", ".join([f"({alts})*", "a[]"]
                                    + [f"({alts})"] * (n - 1)))

    def test_goal_counts_are_pinned(self):
        expected = {2: (53, 5), 3: (153, 10), 4: (417, 19), 5: (1089, 36),
                    6: (2753, 69), 7: (6785, 134), 8: (16385, 263)}
        for n, counts in expected.items():
            ok, inc = decide(E, self.family(n, "a[]|b[]"),
                             self.family(n, "b[]|a[]"))
            assert ok
            assert (inc.goals, inc.longest) == counts, n

    def test_long_proof_paths_need_no_recursion(self):
        # the longest path is 520 goals at n = 9 and 2,058 at n = 11, past
        # the default recursion limit once a goal costs a Python frame
        for n, longest in ((9, 520), (10, 1033), (11, 2058)):
            ok, inc = decide(E, self.family(n, "a[]|b[]"),
                             self.family(n, "b[]|a[]"))
            assert ok and inc.longest == longest

    def test_every_small_verdict_is_pinned(self):
        # all 66,049 pairs of AST size <= 5: the count of true verdicts and
        # a digest of the verdict matrix, row by row in corpus order
        corpus = types_upto(5, ("a", "b"))
        bits = "".join("1" if subtype(E, t1, t2) else "0"
                       for t1 in corpus for t2 in corpus)
        assert (len(bits), bits.count("1")) == (66049, 7855)
        assert hashlib.sha256(bits.encode()).hexdigest() == (
            "ba64799722cc8581bb26ca09b2486997c025d35d1381e0052bfc36cbed3b0f6c")


class TestClusterDiscard:
    def test_refuted_goal_discards_proofs_that_assumed_it(self):
        # refuting L ⊆ R first proves the a[] head's continuation goal
        # K ⊆ R' by assuming L ⊆ R; that proof must not outlive the refutation
        inc = subtyping._Inclusion(E)
        left, right = parse_type("(a[],b[])*, c[]"), parse_type("(a[],b[])*")
        assert not inc.check(left, union([right]))
        (_, k), = [p for p in E.linear_form(left) if p[0] == Element("a", EMPTY)]
        (_, k_right), = E.linear_form(right)
        assert type_str(k) == "(b[],(a[],b[])*),c[]"
        assert type_str(k_right) == "b[],(a[],b[])*"
        assert not inc.check(k, union([k_right]))
        assert not inc.pending


class TestSignatureTables:
    """Nullability, linear forms and step rows are kept on the
    signature and shared by every check on it; verdicts are per call."""

    def test_tables_belong_to_one_signature(self):
        # X names a[] in one signature and b[] in the other: a table shared
        # between them would answer the second check from the first
        s1 = Signature({"X": parse_type("a[]")})
        s2 = Signature({"X": parse_type("b[]")})
        a = parse_type("a[]")
        for order in ((s1, s2), (s2, s1)):
            for _ in range(3):
                for sig in order:
                    assert subtype(sig, Var("X"), a) == (sig is s1)

    def test_tables_are_reused_and_verdicts_are_not(self):
        sig = Signature({"X": parse_type("a[X*] | b[]")})
        left, right = parse_type("a[X*,b[]],X"), parse_type("X*")
        tables = (sig._nullable, sig._linear_forms, sig._steps)
        assert not any(tables)
        assert subtype(sig, left, right)
        sizes = [len(table) for table in tables]
        assert all(sizes)
        assert subtype(sig, left, right)
        assert [len(table) for table in tables] == sizes
        inc = subtyping._Inclusion(sig)
        assert not (inc.path_depth or inc.proven or inc.refuted
                    or inc.pending)
        assert inc.check(left, union([right]))
        assert inc.proven and [len(table) for table in tables] == sizes


# Signatures for the differential test, each with whether its variables may
# also stand as continuations (only where their bounded values stay few).
DIFF_SIGS = (
    (E, False),
    (Signature({"X": parse_type("a[X*] | b[]")}), False),
    (Signature({"X": parse_type("a[X?] | b[]"),
                "Y": parse_type("a[Y?] | b[] | c[]")}), True),
    (Signature({"X": parse_type("a[X, X?] | b[]"),
                "Y": parse_type("a[Y*] | b[]")}), False),
)
DIFF_CONTENTS = ("()", "b[]", "c[]", "b[]*", "c[]?", "b[],c[]", "b[b[]]",
                 "(b[]|c[])*")
DIFF_CONTS = ("()", "d[]", "e[]", "d[]*", "e[]?", "d[],e[]")


def same_label_pair(rng):
    """A left type ``a[c1|c2],(k1|k2)`` (sometimes with a second ``a``
    alternative) and a right type of 3–6 ``a[...],...`` alternatives whose
    contents and continuations mix the left's parts, so that covering needs
    the product decomposition."""
    sig, vars_in_conts = rng.choice(DIFF_SIGS)
    names = tuple(sig)
    contents = DIFF_CONTENTS + names
    conts = DIFF_CONTS + (names if vars_in_conts else ())
    c1, c2 = rng.sample(contents, 2)
    k1, k2 = rng.sample(conts, 2)
    cs = (c1, c2, f"{c1}|{c2}", rng.choice(contents))
    ks = (k1, k2, f"{k1}|{k2}", rng.choice(conts))
    left = f"a[{c1}|{c2}],({k1}|{k2})"
    if rng.random() < 0.3:
        left += f"|a[{rng.choice(contents)}],{rng.choice(conts)}"
    alts = [f"a[{rng.choice(cs)}],({rng.choice(ks)})"
            for _ in range(rng.randint(3, 6))]
    if rng.random() < 0.3:
        alts.append(rng.choice(("b[]",) + names))
    return sig, parse_type(left), parse_type("|".join(alts))


class TestAgreementWithOracle:
    def test_pruned_decomposition_matches_enumeration(self):
        rng = random.Random(2024)
        verdicts = []
        used_assumptions = 0
        for _ in range(600):
            sig, left, right = same_label_pair(rng)
            decided, inc = decide(sig, left, right)
            used_assumptions += inc.leaned > 0
            refuted = any(not member(sig, v, right)
                          for v in values_upto(sig, left, 3, 3))
            assert decided == (not refuted), (type_str(left), type_str(right))
            verdicts.append(decided)
        assert 200 <= sum(verdicts) <= 400
        assert used_assumptions >= 50

    def test_exhaustive_small(self):
        corpus = types_upto(3, ("a", "b"))
        for t1 in corpus:
            for t2 in corpus:
                decided = subtype(E, t1, t2)
                refuted = any(not member(E, v, t2)
                              for v in values_upto(E, t1, 3, 3))
                assert decided == (not refuted), (t1, t2)

    def test_random_preorder_laws(self):
        rng = random.Random(7)
        cfg = GenConfig(seed=7)
        for _ in range(300):
            t3 = gen_type(rng, cfg)
            t2 = gen_subtype_of(rng, E, t3)
            t1 = gen_subtype_of(rng, E, t2)
            assert subtype(E, t1, t1)
            assert subtype(E, t1, t3)

    def test_random_algebraic_inclusions(self):
        from fluxq import EMPTY, Element, Or, Seq, Star
        rng = random.Random(8)
        cfg = GenConfig(seed=8)
        for _ in range(150):
            t = gen_type(rng, cfg, size=5)
            u = gen_type(rng, cfg, size=5)
            assert subtype(E, t, Or(t, u))
            assert subtype(E, t, Star(t))
            assert subtype(E, Seq(Star(t), Star(t)), Star(t))
            assert subtype(E, Star(Star(t)), Star(t))
            assert subtype(E, Star(t), Star(Star(t)))
            assert subtype(E, Or(t, u), Or(u, t))
            assert subtype(E, Seq(t, EMPTY), t)
            assert subtype(E, Or(Star(t), Star(u)), Star(Or(t, u)))
            assert subtype(E, Element("a", t), Element("a", Or(t, u)))
