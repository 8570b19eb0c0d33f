"""Executable property suites: the package's invariants and the language
laws behind them, checked at desk scale.

Infinite claims (language equalities, subtype closure) are checked on the
values enumerated within explicit depth and width bounds; each "yes" of the
subtype decision is checked as an inclusion of enumerated values, each "no"
by the witness ``refute`` gives, at any bound.  Failures carry the smallest
counterexample found by greedy shrinking.

The typing properties are written once for both core languages: a
``Language`` record (``QUERY``, ``UPDATE``) draws, types, runs and prints
terms and iteration bodies, and ``deterministic``, ``downward_monotonicity``,
``homomorphism`` and ``soundness`` each take one.  Every suite is counted
by ``tally``.  Each random suite is a case function that ``run_cases``
calls on a stream seeded from the suite's name; a suite that shrinks checks
and shrinks with one predicate.
"""

from __future__ import annotations

import random
from functools import partial
from itertools import chain, count, islice, product, starmap
from typing import Callable, Iterable, Iterator, NamedTuple

from .enumeration import refute, types_upto, values_upto, witness
from .errors import EvalError, GenerationError, TypeCheckFailure
from .evaluator import Runtime, apply_update, eval_query
from .generators import (
    GenConfig, gen_env, gen_sub_env, gen_subtype_of, gen_type,
    gen_typed_expr, gen_typed_stmt,
)
from .parser import parse_type
from .printer import type_str, value_str
from .queries import filter_label, synth_expr, synth_for
from .subtyping import (
    BoolTest, LabelTest, StringTest, WildcardTest, subtype, test_subtype,
)
from .types import (
    Atom, BOOL, Element, Empty, EMPTY, EMPTY_DECLS, Or, Seq, Signature, Star,
    STRING, TreeBinding, Type, Var, syntactic_atoms,
)
from .unparse import expr_str, stmt_str
from .updates import Multiplicity, Nav, Direction, SeqStmt, Skip, synth_iter, synth_stmt
from .values import BoolVal, Forest, Node, StrVal, max_width, member


class SuiteResult(NamedTuple):
    """One suite's tally, as ``tally`` builds it."""

    name: str
    cases: int
    failures: list[str]
    skipped: int

    @property
    def ok(self) -> bool:
        return not self.failures

    def line(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        extra = f", {self.skipped} skipped" if self.skipped else ""
        out = f"{status} {self.name} ({self.cases} cases{extra})"
        if self.failures:
            out += f"\n  first failure: {self.failures[0]}"
        return out


class SuiteReport(NamedTuple):
    results: list[SuiteResult]

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    def summary(self) -> str:
        lines = [r.line() for r in self.results]
        total = sum(r.cases for r in self.results)
        bad = sum(len(r.failures) for r in self.results)
        lines.append(f"{'OK' if self.ok else 'FAILURES'}: "
                     f"{len(self.results)} suites, {total} cases, {bad} failures")
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {"ok": self.ok, "suites": [r._asdict() for r in self.results]}


def _suite_rng(cfg: GenConfig, name: str) -> random.Random:
    return random.Random(f"{cfg.seed}:{name}")


SKIP = object()
REDRAW = object()


def tally(name: str, outcomes: Iterable[list[str] | object],
          uncounted: Iterable[str] = ()) -> SuiteResult:
    """The one way a suite is counted.  Each outcome is one case: its
    failure messages (empty when the property holds), or ``SKIP`` when no
    case could be generated (counted as skipped).  ``uncounted`` are the
    failures of checks on the whole suite, which are not cases; they are
    listed first.  A case that raises is one failure, naming the
    exception, and the suite's last case: the other suites still run."""
    cases = skipped = 0
    failures = list(uncounted)
    for outcome in _raising_fails(outcomes):
        if outcome is SKIP:
            skipped += 1
        else:
            cases += 1
            failures.extend(outcome)
    return SuiteResult(name, cases, failures, skipped)


def _raising_fails(outcomes: Iterable) -> Iterator:
    """``outcomes``, ended by a failure if drawing the next one raises."""
    try:
        yield from outcomes
    except Exception as exc:
        yield [_raised(exc)]


def _raised(exc: Exception) -> str:
    return f"raised {type(exc).__name__}: {exc}"


def run_cases(cfg: GenConfig, name: str, case: Callable[[random.Random], object],
              n: int | None = None, uncounted: Iterable[str] = ()) -> SuiteResult:
    """Run one random suite: call ``case`` on the stream seeded from the
    suite's name and tally its first ``n`` outcomes (default ``cfg.cases``).
    ``case`` draws one case and returns its outcome, or ``REDRAW`` when the
    draw misses the property's precondition (not counted)."""
    rng = _suite_rng(cfg, name)
    draws = (case(rng) for _ in count())
    counted = (outcome for outcome in draws if outcome is not REDRAW)
    return tally(name, islice(counted, cfg.cases if n is None else n),
                 uncounted)


# -- greedy shrinking ---------------------------------------------------


def shrink_type(t: Type) -> Iterator[Type]:
    """One-step-smaller candidates for ``t``."""
    if not isinstance(t, Empty):
        yield EMPTY
    if isinstance(t, (Or, Seq)):
        yield t.left
        yield t.right
        for c in shrink_type(t.left):
            yield type(t)(c, t.right)
        for c in shrink_type(t.right):
            yield type(t)(t.left, c)
    elif isinstance(t, Star):
        yield t.inner
        for c in shrink_type(t.inner):
            yield Star(c)
    elif isinstance(t, Element):
        for c in shrink_type(t.content):
            yield Element(t.label, c)


def greedy_shrink(value, fails: Callable, candidates: Callable) -> object:
    """Repeatedly replace ``value`` by any one-step candidate that still
    fails, until none does."""
    changed = True
    budget = 500
    while changed and budget > 0:
        changed = False
        for c in candidates(value):
            budget -= 1
            try:
                still = fails(c)
            except Exception:
                still = False
            if still:
                value = c
                changed = True
                break
    return value


def shrink_type_pair(pair: tuple[Type, Type],
                     fails: Callable[[tuple[Type, Type]], bool]) -> tuple[Type, Type]:
    def candidates(p):
        t1, t2 = p
        for c in shrink_type(t1):
            yield (c, t2)
        for c in shrink_type(t2):
            yield (t1, c)
    return greedy_shrink(pair, fails, candidates)  # type: ignore[return-value]


# -- fixture signature ---------------------------------------------------


def fixture_signature(cfg: GenConfig) -> Signature:
    """A small recursive signature over the configured labels."""
    a, b = cfg.labels[0], cfg.labels[1 % len(cfg.labels)]
    return Signature({
        "List": Or(Element(a, EMPTY),
                   Element(b, Seq(Element(a, EMPTY), Var("List")))),
        "Tree": Element("tree", Or(Element("leaf", STRING),
                                   Element("node", Star(Var("Tree"))))),
    })


# -- core-model suites ---------------------------------------------------


def suite_member_respects_subtyping(cfg: GenConfig, sig: Signature) -> SuiteResult:
    """Each "yes" of ``subtype`` on a drawn pair is an inclusion of the
    values ``values_upto`` enumerates within ``cfg``'s bounds, exact within
    them, so neither ``member`` nor the signature's tables, which
    ``subtype`` reads too, judge it.  Then ``member`` must accept the
    subtype's first 20 values (by ``repr``) as members of the supertype.

    The left type is drawn with ``gen_subtype_of``.  For about half the
    pairs, by a coin, it is drawn below ``t2 | u`` rather than ``t2``,
    where ``u`` is a fresh type of size 1: a near miss, often not a
    subtype of ``t2`` yet close to one, so that a "yes" given to a pair
    that is not a subtype pair is seen (a nullable left side whose other
    values fit, say).  For the rest "yes" is the answer due, and
    ``member`` is checked on many inclusions."""
    def outside(pair: tuple[Type, Type]) -> tuple[Forest, str] | None:
        """A bounded value of the subtype that the supertype's values lack,
        or else one that ``member`` rejects, with which of the two."""
        t1, t2 = pair
        if not subtype(sig, t1, t2):
            return None
        values = values_upto(sig, t1, cfg.depth, cfg.width)
        lacked = _first(values - values_upto(sig, t2, cfg.depth, cfg.width))
        if lacked is not None:
            return lacked, "a value"
        rejected = next((v for v in sorted(values, key=repr)[:20]
                         if not member(sig, v, t2)), None)
        return None if rejected is None else (rejected, "a member")

    def case(rng: random.Random) -> list[str]:
        t2 = gen_type(rng, cfg, sig=sig)
        above = Or(t2, gen_type(rng, cfg, 1)) if rng.random() < 0.5 else t2
        t1 = gen_subtype_of(rng, sig, above)
        if outside((t1, t2)) is None:
            return []
        small = shrink_type_pair((t1, t2), lambda p: outside(p) is not None)
        value, what = outside(small)
        return [f"value {value_str(value)} of {type_str(small[0])} "
                f"is not {what} of supertype {type_str(small[1])}"]
    return run_cases(cfg, "member-respects-subtyping", case)


def suite_atoms_compatible(cfg: GenConfig, sig: Signature) -> SuiteResult:
    def case(rng: random.Random) -> list[str]:
        t = gen_type(rng, cfg, sig=sig)
        t_sub = gen_subtype_of(rng, sig, t)
        upper = syntactic_atoms(sig, t)
        for atom in syntactic_atoms(sig, t_sub):
            if not any(subtype(sig, atom, top) for top in upper):
                return [f"atom {type_str(atom)} of subtype {type_str(t_sub)} "
                        f"is below no atom of {type_str(t)}"]
        return []
    return run_cases(cfg, "atoms-compatible-under-subtyping", case)


def suite_member_recursive_regression(cfg: GenConfig, sig: Signature) -> SuiteResult:
    fix = fixture_signature(cfg)
    tree, lst = Var("Tree"), Var("List")
    samples = sorted(values_upto(fix, tree, 4, 3), key=repr)[:20]
    samples += [(), (BoolVal(True),), (Node("tree", ()),)]

    def terminates(v: Forest) -> list[str]:
        member(fix, v, tree)  # must terminate; result value irrelevant here
        member(fix, v, lst)
        return []
    good = (Node(cfg.labels[0], ()),)
    wrong = [] if member(fix, good, lst) else [f"{value_str(good)} should inhabit List"]
    if member(fix, (), lst):
        wrong.append("() should not inhabit List")
    return tally("member-terminates-on-recursive-signatures",
                 map(terminates, samples), wrong)


def suite_types_inhabited(cfg: GenConfig, sig: Signature) -> SuiteResult:
    """Every declared variable has a value, whatever the draws reach, and
    so has every drawn type."""
    def uninhabited(t: Type) -> bool:
        value = witness(sig, t)
        return value is None or not member(sig, value, t)

    def case(rng: random.Random) -> list[str]:
        t = gen_type(rng, cfg, sig=sig)
        if not uninhabited(t):
            return []
        small = greedy_shrink(t, uninhabited, shrink_type)
        return [f"no inhabitant found for {type_str(small)}"]
    declared = [f"no inhabitant found for {name}" for name in sig
                if witness(sig, Var(name)) is None]
    return run_cases(cfg, "types-inhabited-at-small-bounds", case,
                     uncounted=declared)


# -- subtyping suites -----------------------------------------------------


def _first(values: Iterable[Forest]) -> Forest | None:
    """The shortest of ``values``, the least ``repr`` among those, or None
    if there are none."""
    return min(values, key=lambda v: (len(v), repr(v)), default=None)


def oracle_agreement(cfg: GenConfig, sig: Signature) -> SuiteResult:
    """Exhaustive, over all type pairs up to AST size 4 on the first two
    labels, then over two worked pairs against a right side whose two
    same-label alternatives cross in content and continuation (no type of
    size 4 has two such alternatives): every "yes" of the subtype decision is an inclusion
    of the values enumerated within ``cfg``'s depth and width bounds,
    exact within them, and every "no" is certified at any bound by
    ``refute``'s witness, a member of the left type and not of the
    right."""
    corpus = types_upto(4, cfg.labels[:2])
    crossing = parse_type("a[b[]],d[] | a[c[]],e[]")
    worked = [(parse_type(t), crossing) for t in ("a[b[]],e[]", "a[c[]],d[]")]
    values = {t: values_upto(sig, t, cfg.depth, cfg.width)
              for t in chain(corpus, *worked)}

    def case(t1: Type, t2: Type) -> list[str]:
        if subtype(sig, t1, t2):
            outside = _first(values[t1] - values[t2])
            if outside is None:
                return []
            return [f"subtype said {type_str(t1)} <: {type_str(t2)} but "
                    f"{value_str(outside)} refutes it"]
        w = refute(sig, t1, t2)
        if w is None:
            return [f"subtype refused {type_str(t1)} <: {type_str(t2)} but "
                    f"refute found no witness"]
        if member(sig, w, t1) and not member(sig, w, t2):
            return []
        return [f"subtype refused {type_str(t1)} <: {type_str(t2)} but its "
                f"witness {value_str(w)} does not separate them"]
    return tally("subtype-agrees-with-oracle",
                 starmap(case, chain(product(corpus, corpus), worked)))


def suite_subtype_reflexive(cfg: GenConfig, sig: Signature) -> SuiteResult:
    def irreflexive(t: Type) -> bool:
        return not subtype(sig, t, t)

    def case(rng: random.Random) -> list[str]:
        t = gen_type(rng, cfg, sig=sig)
        if not irreflexive(t):
            return []
        return [f"{type_str(greedy_shrink(t, irreflexive, shrink_type))} "
                f"not <: itself"]
    return run_cases(cfg, "subtype-reflexive", case, max(cfg.cases, 1000))


def suite_subtype_transitive(cfg: GenConfig, sig: Signature) -> SuiteResult:
    def case(rng: random.Random) -> list[str]:
        t3 = gen_type(rng, cfg, sig=sig)
        t2 = gen_subtype_of(rng, sig, t3)
        t1 = gen_subtype_of(rng, sig, t2)
        if subtype(sig, t1, t3):
            return []
        return [f"chain broke: {type_str(t1)} <: {type_str(t2)} <: "
                f"{type_str(t3)} but not {type_str(t1)} <: {type_str(t3)}"]
    return run_cases(cfg, "subtype-transitive", case)


def suite_test_subtype_semantic(cfg: GenConfig, sig: Signature) -> SuiteResult:
    """test_subtype(a, phi) iff every enumerated value of ``a`` passes phi."""
    a, b = cfg.labels[0], cfg.labels[1 % len(cfg.labels)]
    atoms: list[Atom] = [BOOL, STRING, Element(a, EMPTY),
                         Element(a, Element(b, EMPTY)),
                         Element(b, Or(EMPTY, Element(a, EMPTY))),
                         Element(b, STRING)]
    tests = [BoolTest(), StringTest(), WildcardTest(), LabelTest(a), LabelTest(b)]

    def passes(tree, test) -> bool:
        if isinstance(test, BoolTest):
            return isinstance(tree, BoolVal)
        if isinstance(test, StringTest):
            return isinstance(tree, StrVal)
        if isinstance(test, WildcardTest):
            return isinstance(tree, Node)
        return isinstance(tree, Node) and tree.label == test.label

    def case(atom: Atom, test) -> list[str]:
        decided = test_subtype(atom, test)
        semantic = all(passes(v[0], test)
                       for v in values_upto(sig, atom, 3, 3))
        if decided == semantic:
            return []
        return [f"test_subtype({type_str(atom)}, {test!r}) = {decided} "
                f"but semantics says {semantic}"]
    return tally("test-subtype-semantic", starmap(case, product(atoms, tests)))


# -- typing properties, written once for both languages --------------------


class Language(NamedTuple):
    """What the typing properties need from one core language.

    ``term`` draws a well-typed term under an environment and returns it
    with its input type (None for a query, which has no input); ``synth``
    types it and ``run`` evaluates it on an input value.  ``body`` draws an
    iteration body over a source type and ``iterate`` types the iteration:
    ``for`` in the query core, ``iter`` in the update core."""

    name: str                # suite-name prefix
    iteration: str           # the homomorphism suite's name prefix
    closed_env: Callable     # (rng, cfg, sig) -> environment of a closed suite
    term: Callable           # (rng, cfg, sig, env) -> (term, input type)
    synth: Callable          # (sig, env, input type, term) -> Type
    run: Callable            # (rt, value env, input value, term) -> Forest
    show: Callable           # term -> str
    body: Callable           # (rng, cfg, sig, env, source type) -> body
    iterate: Callable        # (sig, env, source type, body) -> Type


def _update_term(rng, cfg, sig, env):
    t = gen_type(rng, cfg, size=5, sig=sig)
    return gen_typed_stmt(rng, cfg, EMPTY_DECLS, sig, env,
                          Multiplicity.PLURAL, t), t


def _iter_body(rng, cfg, sig, env, source):
    atoms = sorted(syntactic_atoms(sig, source), key=repr)
    return gen_typed_stmt(rng, cfg, EMPTY_DECLS, sig, env, Multiplicity.SINGULAR,
                          atoms[0] if atoms else BOOL, budget=2)


QUERY = Language(
    "query", "for-iteration", gen_env,
    term=lambda rng, cfg, sig, env: (
        gen_typed_expr(rng, cfg, EMPTY_DECLS, sig, env), None),
    synth=lambda sig, env, t, e: synth_expr(EMPTY_DECLS, sig, env, e),
    run=lambda rt, venv, v, e: eval_query(rt, venv, e),
    show=expr_str,
    body=lambda rng, cfg, sig, env, source: gen_typed_expr(
        rng, cfg, EMPTY_DECLS, sig, {**env, "it": TreeBinding(BOOL)}, budget=2),
    iterate=lambda sig, env, source, e: synth_for(
        EMPTY_DECLS, sig, env, "it", source, e),
)

UPDATE = Language(
    "update", "iter", lambda rng, cfg, sig: {},
    term=_update_term,
    synth=lambda sig, env, t, s: synth_stmt(
        EMPTY_DECLS, sig, env, Multiplicity.PLURAL, t, s),
    run=apply_update,
    show=stmt_str,
    body=_iter_body,
    iterate=lambda sig, env, source, s: synth_iter(
        EMPTY_DECLS, sig, env, source, s),
)


def deterministic(lang: Language, cfg: GenConfig,
                  sig: Signature) -> SuiteResult:
    """Synthesizing one term twice gives one type."""
    def case(rng: random.Random) -> list[str] | object:
        env = lang.closed_env(rng, cfg, sig)
        try:
            term, t = lang.term(rng, cfg, sig, env)
        except GenerationError:
            return SKIP
        if lang.synth(sig, env, t, term) == lang.synth(sig, env, t, term):
            return []
        return [f"synthesis not deterministic on {lang.show(term)}"]
    return run_cases(cfg, f"{lang.name}-synthesis-deterministic", case)


def _narrowing_problem(sig: Signature, narrowed: Callable[[], Type],
                       original: Type) -> str:
    """Empty when ``narrowed()`` is defined and a subtype of ``original``."""
    try:
        got = narrowed()
    except TypeCheckFailure as exc:
        return f"became undefined: {exc.diagnostic.message}"
    if subtype(sig, got, original):
        return ""
    return f"output grew: {type_str(got)} not <: {type_str(original)}"


def downward_monotonicity(lang: Language, cfg: GenConfig,
                          sig: Signature) -> SuiteResult:
    """Shrinking the environment, the input type and an iteration's source
    type keeps synthesis defined and shrinks its result."""
    def case(rng: random.Random) -> list[str] | object:
        env = gen_env(rng, cfg, sig)
        try:
            term, t = lang.term(rng, cfg, sig, env)
            original = lang.synth(sig, env, t, term)
        except (GenerationError, TypeCheckFailure):
            return REDRAW
        shrunk_env = gen_sub_env(rng, sig, env)
        narrower = None if t is None else gen_subtype_of(rng, sig, t)
        problem = _narrowing_problem(
            sig, lambda: lang.synth(sig, shrunk_env, narrower, term), original)
        if problem:
            where = ("" if t is None else
                     f" from {type_str(narrower)} <: {type_str(t)}")
            return [f"{lang.show(term)} under a shrunken environment{where}: {problem}"]
        source = gen_type(rng, cfg, size=5, sig=sig)
        try:
            body = lang.body(rng, cfg, sig, env, source)
            base = lang.iterate(sig, env, source, body)
        except (GenerationError, TypeCheckFailure):
            return []  # no iteration to narrow; the term was checked
        narrower = gen_subtype_of(rng, sig, source)
        problem = _narrowing_problem(
            sig, lambda: lang.iterate(sig, shrunk_env, narrower, body), base)
        if problem:
            return [f"iteration of {lang.show(body)} over {type_str(narrower)} "
                    f"<: {type_str(source)}: {problem}"]
        return []
    return run_cases(cfg, f"{lang.name}-downward-monotone", case)


def homomorphism(lang: Language, cfg: GenConfig,
                 sig: Signature) -> SuiteResult:
    """Iteration typing maps (), concatenation, alternation, star and
    variables homomorphically; checked as structural equalities over the
    fixture signature."""
    fix = fixture_signature(cfg)

    def case(rng: random.Random) -> list[str] | object:
        env = gen_env(rng, cfg, fix)
        t1 = gen_type(rng, cfg, size=4, sig=fix)
        t2 = gen_type(rng, cfg, size=4, sig=fix)
        try:
            body = lang.body(rng, cfg, fix, env, Or(t1, t2))
            h = lambda t: lang.iterate(fix, env, t, body)
            left_1, left_2 = h(t1), h(t2)
        except (GenerationError, TypeCheckFailure):
            return REDRAW
        checks = [
            (h(Seq(t1, t2)), Seq(left_1, left_2), "concatenation"),
            (h(Or(t1, t2)), Or(left_1, left_2), "alternation"),
            (h(Star(t1)), Star(left_1), "star"),
            (h(EMPTY), EMPTY, "empty"),
            (_or_none(lambda: h(Var("List"))),
             _or_none(lambda: h(fix.definition("List"))), "variable"),
        ]
        show = lambda t: "undefined" if t is None else type_str(t)
        for got, want, label in checks:
            if got != want:
                return [f"{label} not homomorphic for body {lang.show(body)}: "
                        f"{show(got)} != {show(want)}"]
        return []
    return run_cases(cfg, f"{lang.iteration}-homomorphic", case)


def _or_none(synth: Callable[[], Type]) -> Type | None:
    """The synthesized type, or None when synthesis is undefined."""
    try:
        return synth()
    except TypeCheckFailure:
        return None


def suite_filter_total(cfg: GenConfig, sig: Signature) -> SuiteResult:
    fix = fixture_signature(cfg)

    def case(rng: random.Random) -> list[str]:
        t = gen_type(rng, cfg, sig=sig)
        filter_label(sig, t, rng.choice(cfg.labels))
        filter_label(fix, Var(rng.choice(("List", "Tree"))),
                     rng.choice(cfg.labels))
        return []
    return run_cases(cfg, "filter-total", case)


def _conforming_envs(sig: Signature, env, t: Type | None, depth: int,
                     width: int) -> list[tuple[dict[str, Forest], Forest | None]]:
    """Up to six pairs of a value environment conforming to ``env`` and an
    input value of ``t`` (None when ``t`` is None)."""
    pools: list[list] = []
    for binding in env.values():
        pool = sorted(values_upto(sig, binding.type, depth, width), key=repr)
        if isinstance(binding, TreeBinding):
            pool = [v for v in pool if len(v) == 1]
        pools.append(pool[:3])
    inputs = ([None] if t is None else
              sorted(values_upto(sig, t, depth, width), key=repr))
    return [(dict(zip(env, values)), v)
            for *values, v in islice(product(*pools, inputs), 6)]


def _inputs_str(venv: dict[str, Forest], v: Forest | None) -> str:
    shown = [f"${name} = {value_str(x)}" for name, x in venv.items()]
    return ", ".join(shown + ([] if v is None else [value_str(v)])) or "no inputs"


def soundness(lang: Language, cfg: GenConfig,
              sig: Signature) -> SuiteResult:
    """Running a well-typed term on conforming inputs yields a member of
    its synthesized type."""
    rt = Runtime()

    def case(rng: random.Random) -> list[str] | object:
        env = lang.closed_env(rng, cfg, sig)
        try:
            term, t = lang.term(rng, cfg, sig, env)
            synthesized = lang.synth(sig, env, t, term)
        except (GenerationError, TypeCheckFailure):
            return REDRAW
        runs = _conforming_envs(sig, env, t, cfg.depth, cfg.width)
        if not runs:
            return REDRAW
        for venv, v in runs:
            try:
                result = lang.run(rt, venv, v, term)
            except EvalError as exc:
                return [f"well-typed {lang.show(term)} crashed on "
                        f"{_inputs_str(venv, v)}: {exc}"]
            if not member(sig, result, synthesized):
                return [f"{lang.show(term)} mapped {_inputs_str(venv, v)} to "
                        f"{value_str(result)}, outside its synthesized type "
                        f"{type_str(synthesized)}"]
        return []
    return run_cases(cfg, f"{lang.name}-soundness", case)


# -- evaluator law suites ---------------------------------------------------


def suite_evaluator_laws(cfg: GenConfig, sig: Signature) -> SuiteResult:
    """Skip is the identity; sequencing composes effects; iteration
    distributes over concatenation."""
    rt = Runtime()

    def case(rng: random.Random) -> list[str] | object:
        t = gen_type(rng, cfg, size=5, sig=sig)
        try:
            s1 = gen_typed_stmt(rng, cfg, EMPTY_DECLS, sig, {},
                                Multiplicity.PLURAL, t)
            mid_t = synth_stmt(EMPTY_DECLS, sig, {}, Multiplicity.PLURAL, t, s1)
            s2 = gen_typed_stmt(rng, cfg, EMPTY_DECLS, sig, {},
                                Multiplicity.PLURAL, mid_t)
        except (GenerationError, TypeCheckFailure):
            return REDRAW
        values = sorted(values_upto(sig, t, cfg.depth, cfg.width), key=repr)[:4]
        if not values:
            return REDRAW
        atoms = sorted(syntactic_atoms(sig, t), key=repr)
        for v in values:
            try:
                if apply_update(rt, {}, v, Skip()) != v:
                    return [f"skip changed {value_str(v)}"]
                composed = apply_update(rt, {}, v, SeqStmt(s1, s2))
                staged = apply_update(rt, {}, apply_update(rt, {}, v, s1), s2)
                if composed != staged:
                    return [f"sequencing is not composition on {value_str(v)}"]
                if not atoms:
                    continue
                try:
                    body = gen_typed_stmt(rng, cfg, EMPTY_DECLS, sig, {},
                                          Multiplicity.SINGULAR, atoms[0],
                                          budget=1)
                    cut = rng.randint(0, len(v))
                    synth_iter(EMPTY_DECLS, sig, {}, t, body)
                except (GenerationError, TypeCheckFailure):
                    continue  # no body typed over all of t: no law to check
                it = Nav(Direction.ITER, body)
                whole = apply_update(rt, {}, v, it)
                parts = (apply_update(rt, {}, v[:cut], it)
                         + apply_update(rt, {}, v[cut:], it))
                if whole != parts:
                    return [f"iter does not distribute over concatenation "
                            f"on {value_str(v)}"]
            except EvalError as exc:
                return [f"well-typed update crashed on {value_str(v)}: {exc}"]
        return []
    return run_cases(cfg, "evaluator-laws", case)


# -- appendix: language/filter commutation ----------------------------------


def _occurrences(sig: Signature, t: Type,
                 seen: frozenset[str] = frozenset()) -> tuple[int, int]:
    """The top-level atom occurrences and the stars of ``t``, unfolding each
    variable once per path."""
    if isinstance(t, Atom):
        return 1, 0
    if isinstance(t, (Or, Seq)):
        atoms_l, stars_l = _occurrences(sig, t.left, seen)
        atoms_r, stars_r = _occurrences(sig, t.right, seen)
        return atoms_l + atoms_r, stars_l + stars_r
    if isinstance(t, Star):
        atoms, stars = _occurrences(sig, t.inner, seen)
        return atoms, stars + 1
    if isinstance(t, Var) and t.name not in seen:
        return _occurrences(sig, sig.definition(t.name), seen | {t.name})
    return 0, 0


def commutation_case(sig: Signature, t: Type, label: str,
                     k: int) -> tuple[bool, str]:
    """Bounded check that filtering commutes with the value language: the
    values of the filtered type within depth 4 and width k are the values
    of ``t`` with every top-level tree not labelled ``label`` dropped, as
    far as those lie within the same bounds.

    Filtering only shortens forests, so the source side must be enumerated
    to a wider bound: width k plus the trees a value may lose, bounded by
    the top-level atom occurrences once per star iteration (at most k per
    star) plus once outside.
    """
    depth = 4  # enough for a value of every dropped atom the suite meets
    atom_occurrences, stars = _occurrences(sig, t)
    source_width = k + atom_occurrences * (1 + k * max(stars, 1))
    kept = (tuple(tree for tree in v if tree.label == label)
            for v in values_upto(sig, t, depth, source_width))
    lhs = {v for v in kept if max_width(v) <= k}
    rhs = values_upto(sig, filter_label(sig, t, label), depth, k)
    if lhs == rhs:
        return True, ""
    missing, extra = _first(rhs - lhs), _first(lhs - rhs)
    show = lambda v: "none" if v is None else value_str(v)
    return False, (f"filter {label} on {type_str(t)}: sides differ "
                   f"(missing {show(missing)}, extra {show(extra)})")


def filter_commutation(sig: Signature, labels: tuple[str, ...], size: int,
                       k: int, *worked: tuple[Type, str]) -> SuiteResult:
    """``commutation_case`` at bound ``k`` for every type up to AST size
    ``size`` on the first two labels and each of those labels, then for
    each ``worked`` (type, label) pair."""
    def case(t: Type, label: str) -> list[str]:
        ok, message = commutation_case(sig, t, label, k)
        return [] if ok else [message]
    cases = ((t, label) for t in types_upto(size, labels[:2])
             for label in labels[:2])
    return tally("filter-commutes-with-language",
                 starmap(case, chain(cases, worked)))


def suite_filter_commutation(cfg: GenConfig, sig: Signature) -> SuiteResult:
    return filter_commutation(sig, cfg.labels, 4, 3,
                              (parse_type("b[]*,c[]?"), "b"))


# Each suite under the name it reports, which also seeds its random stream
ALL_SUITES: dict[str, Callable[[GenConfig, Signature], SuiteResult]] = {
    "member-respects-subtyping": suite_member_respects_subtyping,
    "atoms-compatible-under-subtyping": suite_atoms_compatible,
    "member-terminates-on-recursive-signatures":
        suite_member_recursive_regression,
    "types-inhabited-at-small-bounds": suite_types_inhabited,
    "subtype-agrees-with-oracle": oracle_agreement,
    "subtype-reflexive": suite_subtype_reflexive,
    "subtype-transitive": suite_subtype_transitive,
    "test-subtype-semantic": suite_test_subtype_semantic,
    "query-synthesis-deterministic": partial(deterministic, QUERY),
    "query-downward-monotone": partial(downward_monotonicity, QUERY),
    "for-iteration-homomorphic": partial(homomorphism, QUERY),
    "filter-total": suite_filter_total,
    "query-soundness": partial(soundness, QUERY),
    "update-synthesis-deterministic": partial(deterministic, UPDATE),
    "update-downward-monotone": partial(downward_monotonicity, UPDATE),
    "iter-homomorphic": partial(homomorphism, UPDATE),
    "update-soundness": partial(soundness, UPDATE),
    "evaluator-laws": suite_evaluator_laws,
    "filter-commutes-with-language": suite_filter_commutation,
}


def run_suites(cfg: GenConfig, sig: Signature | None = None) -> SuiteReport:
    """Run every property suite and collect a report.  A suite whose set-up
    raises, before ``tally`` counts its cases, reports the exception as
    its one failure under its name, and the other suites still run."""
    sig = sig if sig is not None else fixture_signature(cfg)
    results = []
    for name, suite in ALL_SUITES.items():
        try:
            results.append(suite(cfg, sig))
        except Exception as exc:
            results.append(tally(name, (), [_raised(exc)]))
    return SuiteReport(results)
