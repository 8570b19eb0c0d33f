"""Executable property suites: the package's invariants and the language
laws behind them, checked at desk scale, and the seeded random generators
that draw their cases.

Every draw is sound by construction: ``gen_subtype_of`` only shrinks a
type, ``gen_typed_expr`` draws only constructs that type, and
``gen_typed_stmt`` draws a focus-dependent statement only where the focus
is known to admit it and an ``iter`` body only in a form that types at
every atom of its focus.  No generator asks ``subtype``, ``synth_expr`` or
``synth_stmt`` to choose, retry or discard a draw, so code that wrongly
rejects a draw fails a suite instead of choosing the inputs it gets right,
and a drawn term that fails to type is a reported failure;
``tests/test_generators.py`` (``TestNarrowing``, ``TestTypedGeneration``)
checks that the draws are sound.  Fixing the seed reproduces the same
sequence of instances.

Infinite claims (language equalities, subtype closure) are checked on the
values enumerated within explicit depth and width bounds; each "yes" of the
subtype decision is checked as an inclusion of enumerated values, each "no"
by the witness ``refute`` gives, at any bound.  Three suites,
``member-respects-subtyping``, ``types-inhabited-at-small-bounds`` and
``subtype-reflexive``, first check every input of a small scope, the types
of small AST size (``small_types``) or every pair of them, smallest first,
before their random draws.  A failure in the scope is thus reported at a
smallest input; one that only a draw finds is reported as drawn.

The typing properties are written once for both core languages: a
``Language`` record (``QUERY``, ``UPDATE``) draws, types, runs and prints
terms and iteration bodies, and ``deterministic``, ``downward_monotonicity``,
``homomorphism`` and ``soundness`` each take one.  Every suite is counted
by ``tally``.  Each random suite is a case function that ``run_cases``
calls on a stream seeded from the suite's name; a suite with a small scope
checks its scope and its draws with one function.
"""

from __future__ import annotations

import random
from functools import partial
from itertools import chain, count, islice, product, starmap
from math import isqrt
from typing import Callable, Iterable, Iterator, NamedTuple

from .diagnostics import EvalError, TypeCheckFailure
from .enumeration import types_upto, values_upto
from .evaluator import Runtime, apply_update, eval_query
from .parser import parse_type
from .printer import expr_str, stmt_str, test_str, type_str, value_str
from .queries import filter_label, synth_expr, synth_for
from .subtyping import refute, subtype
from .types import (
    Atom, BOOL, BoolAtom, BoolLit, Children, Concat, Delete, Elem, Element,
    Empty, EMPTY, EMPTY_DECLS, EmptySeq, For, ForestBinding, GlobalDecls, If,
    IfStmt, Insert, LabelFilter, Let, LetStmt, Nav, Or, QueryExpr, Rename,
    Seq, SeqStmt, Signature, Skip, Snapshot, Star, STRING, StringAtom,
    StrLit, Test, TreeBinding, Type, TypeEnv, UpdateStmt, Var, VarRef,
    passes,
)
from .updates import Multiplicity, synth_iter, synth_stmt
from .values import BoolVal, Forest, Node, StrVal, inhabitants, max_width, member


class SuiteResult(NamedTuple):
    """One suite's tally, as ``tally`` builds it.  ``skipped`` is always 0:
    no suite skips a case, and ``--json oracle`` keeps the key its schema
    fixes."""

    name: str
    cases: int
    failures: list[str]
    skipped: int = 0

    @property
    def ok(self) -> bool:
        return not self.failures

    def line(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        out = f"{status} {self.name} ({self.cases} cases)"
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


REDRAW = object()


def tally(name: str, outcomes: Iterable[list[str]],
          uncounted: Iterable[str] = ()) -> SuiteResult:
    """The one way a suite is counted.  Each outcome is one case: its
    failure messages, empty when the property holds.  ``uncounted`` are the
    failures of checks on the whole suite, which are not cases; they are
    listed first.  A case that raises is one failure, naming the
    exception, and the suite's last case: the other suites still run."""
    counted = list(_raising_fails(outcomes))
    return SuiteResult(name, len(counted),
                       [*uncounted, *chain.from_iterable(counted)])


def _raising_fails(outcomes: Iterable) -> Iterator:
    """``outcomes``, ended by a failure if drawing the next one raises."""
    try:
        yield from outcomes
    except Exception as exc:
        yield [_raised(exc)]


def _raised(exc: Exception) -> str:
    return f"raised {type(exc).__name__}: {exc}"


def run_cases(cfg: GenConfig, name: str, case: Callable[[random.Random], object],
              n: int | None = None,
              scope: Iterable[list[str]] = ()) -> SuiteResult:
    """Run one random suite: tally the outcomes of ``scope``, the suite's
    small scope checked input by input, then call ``case`` on the stream
    seeded from the suite's name, so renaming a suite changes what it
    draws, and tally its first ``n`` outcomes (default ``cfg.cases``).
    ``case`` draws one case and returns its outcome, or ``REDRAW`` when the
    draw misses the property's precondition (not counted).  The scope draws
    nothing, so it leaves the stream as it is."""
    rng = _suite_rng(cfg, name)
    draws = (case(rng) for _ in count())
    counted = (outcome for outcome in draws if outcome is not REDRAW)
    return tally(name, chain(scope,
                             islice(counted, cfg.cases if n is None else n)))


# -- seeded random generators ----------------------------------------------

MAX_SIZE = 7      # AST-node budget for random types
MAX_NESTING = 2   # element nesting in random types


class GenConfig(NamedTuple):
    """Bounds and seed shared by the random suites.  The bounds must not be
    negative; ``fluxq`` checks its flags for that when it parses them."""

    labels: tuple[str, ...] = ("a", "b", "c")
    depth: int = 3           # value enumeration depth bound
    width: int = 3           # value enumeration width bound
    seed: int = 42
    cases: int = 100         # default cases per property suite


def gen_atom(rng: random.Random, cfg: GenConfig, size: int,
             nesting: int) -> Atom:
    if rng.random() < 0.3:
        return BOOL if rng.random() < 0.5 else STRING
    label = rng.choice(cfg.labels)
    if nesting <= 0 or size <= 1:
        return Element(label, EMPTY)
    return Element(label, gen_type(rng, cfg, size - 1, nesting - 1))


def gen_type(rng: random.Random, cfg: GenConfig, size: int = MAX_SIZE,
             nesting: int = MAX_NESTING, sig: Signature | None = None) -> Type:
    """A random type within the size and element-nesting budgets.

    When ``sig`` provides definitions, variables occasionally appear."""
    names = list(sig) if sig is not None else []
    if names and rng.random() < 0.08:
        return Var(rng.choice(names))
    if size <= 1:
        return rng.choice((EMPTY, gen_atom(rng, cfg, 1, nesting)))
    roll = rng.random()
    if roll < 0.2:
        return gen_atom(rng, cfg, size, nesting)
    if roll < 0.3:
        return EMPTY
    if roll < 0.5:
        split = rng.randint(1, size - 2) if size > 2 else 1
        return Or(gen_type(rng, cfg, split, nesting, sig),
                  gen_type(rng, cfg, size - 1 - split, nesting, sig))
    if roll < 0.7:
        split = rng.randint(1, size - 2) if size > 2 else 1
        return Seq(gen_type(rng, cfg, split, nesting, sig),
                   gen_type(rng, cfg, size - 1 - split, nesting, sig))
    if roll < 0.85:
        return Star(gen_type(rng, cfg, size - 1, nesting, sig))
    return gen_atom(rng, cfg, size, nesting)


def _narrow(rng: random.Random, sig: Signature, t: Type) -> Type:
    """One sound narrowing pass: drop alternatives, bound stars, narrow
    element content, unfold variables."""
    if isinstance(t, Or):
        roll = rng.random()
        if roll < 0.35:
            return _narrow(rng, sig, t.left)
        if roll < 0.7:
            return _narrow(rng, sig, t.right)
        return Or(_narrow(rng, sig, t.left), _narrow(rng, sig, t.right))
    if isinstance(t, Star):
        roll = rng.random()
        inner = _narrow(rng, sig, t.inner)
        if roll < 0.25:
            return EMPTY
        if roll < 0.45:
            return inner
        if roll < 0.6:
            return Seq(inner, Star(inner))
        return Star(inner)
    if isinstance(t, Seq):
        return Seq(_narrow(rng, sig, t.left), _narrow(rng, sig, t.right))
    if isinstance(t, Element):
        if rng.random() < 0.5:
            return Element(t.label, _narrow(rng, sig, t.content))
        return t
    if isinstance(t, Var) and rng.random() < 0.4:
        return _narrow(rng, sig, sig.definition(t.name))
    return t


def gen_subtype_of(rng: random.Random, sig: Signature, t: Type) -> Type:
    """A random subtype of ``t`` (possibly ``t`` itself), sound by
    construction: ``_narrow`` only shrinks.  ``subtype`` never sees the
    draw, so a decision that refuses a true pair cannot steer the suites to
    pairs it gets right; ``tests/test_generators.py::TestNarrowing`` checks
    the narrowings against ``subtype`` and the enumerated values."""
    return t if rng.random() < 0.2 else _narrow(rng, sig, t)


def gen_env(rng: random.Random, cfg: GenConfig,
            sig: Signature) -> dict[str, TreeBinding | ForestBinding]:
    env: dict[str, TreeBinding | ForestBinding] = {}
    for i in range(rng.randint(0, 3)):
        name = f"v{i}"
        if rng.random() < 0.4:
            env[name] = TreeBinding(gen_atom(rng, cfg, MAX_SIZE, MAX_NESTING))
        else:
            env[name] = ForestBinding(gen_type(rng, cfg, sig=sig))
    return env


def gen_sub_env(rng: random.Random, sig: Signature,
                env: TypeEnv) -> dict[str, TreeBinding | ForestBinding]:
    """Pointwise shrink: same domain and binding kinds, narrower types; a
    tree variable's element may get a narrower content."""
    out: dict[str, TreeBinding | ForestBinding] = {}
    for name, binding in env.items():
        if isinstance(binding, TreeBinding):
            atom = binding.atom
            if isinstance(atom, Element) and rng.random() < 0.7:
                atom = Element(atom.label, gen_subtype_of(rng, sig, atom.content))
            out[name] = TreeBinding(atom)
        else:
            out[name] = ForestBinding(gen_subtype_of(rng, sig, binding.type))
    return out


def _expr_candidate(rng: random.Random, cfg: GenConfig, env: TypeEnv,
                    budget: int, robust: bool) -> QueryExpr:
    """A random expression that types under ``env``; ``robust`` restricts
    to constructs that typecheck under any atom binding for the in-scope
    tree variables."""
    leaves: list[QueryExpr] = [EmptySeq(), StrLit(rng.choice(("", "a", "hi"))),
                               BoolLit(rng.random() < 0.5)]
    names = list(env)
    if names:
        leaves.append(VarRef(rng.choice(names)))
    if budget <= 0:
        return rng.choice(leaves)
    roll = rng.random()
    sub = lambda b=budget - 1: _expr_candidate(rng, cfg, env, b, robust)
    if roll < 0.25:
        return rng.choice(leaves)
    if roll < 0.4:
        return Concat((sub(), sub()))
    if roll < 0.5:
        return Elem(rng.choice(cfg.labels), sub())
    if roll < 0.6:
        return LabelFilter(sub(), rng.choice(cfg.labels))
    if roll < 0.7:
        var = f"x{budget}"
        bound = sub()
        inner_env = {**env, var: ForestBinding(EMPTY)}  # placeholder kind
        body = _expr_candidate(rng, cfg, inner_env, budget - 1, robust)
        return Let(var, bound, body)
    if roll < 0.78:
        return If(BoolLit(rng.random() < 0.5), sub(), sub())
    if roll < 0.9 or robust:
        var = f"t{budget}"
        source = sub()
        inner_env = {**env, var: TreeBinding(BOOL)}  # placeholder kind
        body = _expr_candidate(rng, cfg, inner_env, budget - 2, True)
        return For(var, source, body)
    tree_elems = [n for n, b in env.items()
                  if isinstance(b, TreeBinding) and isinstance(b.atom, Element)]
    if tree_elems:
        return Children(rng.choice(tree_elems))
    return rng.choice(leaves)


def gen_typed_expr(rng: random.Random, cfg: GenConfig, decls: GlobalDecls,
                   sig: Signature, env: TypeEnv,
                   budget: int = 4) -> QueryExpr:
    """A random expression that typechecks under ``env``, sound by
    construction: ``_expr_candidate`` projects children only from a tree
    variable of ``env`` bound to an element, and every other construct it
    draws types under any binding.  ``synth_expr`` never sees the draw, so
    a checker that rejects a well-typed query fails the suites instead of
    steering them; ``tests/test_generators.py::TestTypedGeneration`` types
    the draws."""
    return _expr_candidate(rng, cfg, env, budget, False)


def _stmt_candidate(rng: random.Random, cfg: GenConfig, sig: Signature,
                    env: TypeEnv, mult: Multiplicity, t: Type | None,
                    budget: int) -> UpdateStmt:
    """A random statement that types at multiplicity ``mult`` on the focus
    type ``t``, or on every focus when ``t`` is None.  ``rename``,
    ``children[...]``, ``insert`` and ``?`` tests are drawn only where the
    focus is known to admit them; everything else types at any focus."""
    simple: list[UpdateStmt] = [Skip(), Delete()]
    if budget <= 0:
        return rng.choice(simple)
    roll = rng.random()
    if roll < 0.15:
        return rng.choice(simple)
    if roll < 0.25:
        first = _stmt_candidate(rng, cfg, sig, env, mult, t, budget - 1)
        second = _stmt_candidate(rng, cfg, sig, env, mult,
                                 _focus_after(first, t), budget - 1)
        return SeqStmt((first, second))
    if roll < 0.35:
        return IfStmt(BoolLit(rng.random() < 0.5),
                      _stmt_candidate(rng, cfg, sig, env, mult, t, budget - 1),
                      _stmt_candidate(rng, cfg, sig, env, mult, t, budget - 1))
    if roll < 0.45:
        var = f"s{budget}"
        inner = {**env, var: ForestBinding(EMPTY)}  # placeholder type
        return Snapshot(var, _stmt_candidate(rng, cfg, sig, inner, mult, t,
                                             budget - 1))
    if roll < 0.55:
        var = f"l{budget}"
        bound = _expr_candidate(rng, cfg, env, 2, False)
        inner = {**env, var: ForestBinding(EMPTY)}
        return LetStmt(var, bound, _stmt_candidate(rng, cfg, sig, inner, mult,
                                                   t, budget - 1))
    if roll < 0.7:
        body = _stmt_candidate(rng, cfg, sig, env, Multiplicity.PLURAL, EMPTY,
                               budget - 1)
        direction = "left" if rng.random() < 0.5 else "right"
        return Nav(direction, body)
    if mult is Multiplicity.PLURAL:
        if isinstance(t, Empty) and roll < 0.85:
            return Insert(_expr_candidate(rng, cfg, env, 2, False))
        return Nav("iter", _iter_body(rng, cfg, sig, env, t, budget - 1))
    # singular focus
    if isinstance(t, Element) and roll < 0.8:
        if rng.random() < 0.5:
            return Rename(rng.choice(cfg.labels))
        body = _stmt_candidate(rng, cfg, sig, env, Multiplicity.PLURAL,
                               t.content, budget - 1)
        return Nav("children", body)
    if isinstance(t, Atom):
        tests = ["*", BoolAtom, StringAtom, rng.choice(cfg.labels)]
        if isinstance(t, Element):
            tests.append(t.label)
        test = rng.choice(tests)
        if passes(t.label, test):
            body = _stmt_candidate(rng, cfg, sig, env, mult, t, budget - 1)
        else:
            body = rng.choice(simple)
        return Test(test, body)
    return rng.choice(simple)


def _focus_after(s: UpdateStmt, t: Type | None) -> Type | None:
    """The focus type ``s`` leaves on the focus type ``t`` when no judgment
    is needed to tell: ``skip`` keeps it and ``delete`` empties it; None
    (unknown) after any other statement."""
    if isinstance(s, Skip):
        return t
    return EMPTY if isinstance(s, Delete) else None


def _iter_body(rng: random.Random, cfg: GenConfig, sig: Signature,
               env: TypeEnv, source: Type | None,
               budget: int = 2) -> UpdateStmt:
    """A singular statement that types at every atom of ``source`` (of any
    source when it is None), so that ``iter`` over ``source`` types: drawn
    for the source's only atom; or under the ``?`` test of an atom whose
    label heads no other atom of the source, so that the other atoms skip
    it; or else for an unknown atom."""
    atoms = [] if source is None else sorted(sig.atoms(source), key=repr)
    single = Multiplicity.SINGULAR
    if len(atoms) == 1:
        return _stmt_candidate(rng, cfg, sig, env, single, atoms[0], budget)
    labels = [atom.label for atom in atoms]
    alone = [atom for atom in atoms if labels.count(atom.label) == 1]
    if not alone:
        return _stmt_candidate(rng, cfg, sig, env, single, None, budget)
    atom = rng.choice(alone)
    return Test(atom.label,
                _stmt_candidate(rng, cfg, sig, env, single, atom, budget))


def gen_typed_stmt(rng: random.Random, cfg: GenConfig, decls: GlobalDecls,
                   sig: Signature, env: TypeEnv, mult: Multiplicity,
                   t: Type | None, budget: int = 4) -> UpdateStmt:
    """A random statement that typechecks at the given multiplicity on the
    focus type ``t`` (on every focus when ``t`` is None), typed by
    construction: ``_stmt_candidate`` draws a focus-dependent statement only
    where the focus is known to admit it, draws the second of ``s1; s2``
    for the focus ``s1`` leaves when ``skip`` or ``delete`` tell it and for
    an unknown focus otherwise, and draws an ``iter`` body by
    ``_iter_body``'s rule.  ``synth_stmt`` never sees the draw, so a checker
    that rejects a well-typed update fails the suites instead of steering
    them; ``tests/test_generators.py::TestTypedGeneration`` types the
    draws."""
    assert mult is Multiplicity.PLURAL or isinstance(t, Atom)
    return _stmt_candidate(rng, cfg, sig, env, mult, t, budget)


# -- the small scope ---------------------------------------------------

SCOPE_SIZE = 3        # AST size bound of a one-type suite's small scope
PAIR_SCOPE_SIZE = 2   # AST size bound of each type of a scope pair
SCOPE_CAP = 1000      # the most inputs a small scope holds


def small_types(cfg: GenConfig, sig: Signature, size: int,
                cap: int = SCOPE_CAP) -> list[Type]:
    """The first ``cap`` types of AST size ≤ ``size``, in ``types_upto``'s
    order, over the configured labels, with ``()``, ``bool``, ``string``
    and the variables of ``sig`` as the size-1 leaves.  A size is
    enumerated only while the smaller ones give fewer than ``cap`` types,
    so at most about ``cap`` types per label and ``cap`` squared more are
    built, however many variables ``sig`` declares."""
    leaves = (EMPTY, BOOL, STRING, *map(Var, sig))
    for bound in range(1, size + 1):
        types = types_upto(bound, cfg.labels, leaves)
        if len(types) >= cap:
            break
    return types[:cap]


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
    ``member`` is checked on many inclusions.  The draws come after the
    small scope: every pair of the first ``isqrt(SCOPE_CAP)`` types of
    size ≤ ``PAIR_SCOPE_SIZE``."""
    def check(t1: Type, t2: Type) -> list[str]:
        """Empty, or the failure of a bounded value of ``t1`` that the
        values of ``t2`` lack, or else that ``member`` rejects."""
        if not subtype(sig, t1, t2):
            return []
        values = values_upto(sig, t1, cfg.depth, cfg.width)
        value = _first(values - values_upto(sig, t2, cfg.depth, cfg.width))
        what = "a value"
        if value is None:
            value, what = next((v for v in sorted(values, key=repr)[:20]
                                if not member(sig, v, t2)), None), "a member"
        if value is None:
            return []
        return [f"value {value_str(value)} of {type_str(t1)} "
                f"is not {what} of supertype {type_str(t2)}"]

    def case(rng: random.Random) -> list[str]:
        t2 = gen_type(rng, cfg, sig=sig)
        above = Or(t2, gen_type(rng, cfg, 1)) if rng.random() < 0.5 else t2
        return check(gen_subtype_of(rng, sig, above), t2)
    pairs = small_types(cfg, sig, PAIR_SCOPE_SIZE, isqrt(SCOPE_CAP))
    return run_cases(cfg, "member-respects-subtyping", case,
                     scope=starmap(check, product(pairs, repeat=2)))


def suite_atoms_compatible(cfg: GenConfig, sig: Signature) -> SuiteResult:
    def case(rng: random.Random) -> list[str]:
        t = gen_type(rng, cfg, sig=sig)
        t_sub = gen_subtype_of(rng, sig, t)
        upper = sig.atoms(t)
        for atom in sig.atoms(t_sub):
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
    """Every small type has a value that ``member`` accepts, and so has
    every drawn type.  Each declared variable is a leaf of the small scope,
    so a variable with no value is among the first failures, whatever the
    draws reach."""
    witness = inhabitants(sig)

    def check(t: Type) -> list[str]:
        value = witness(t)
        if value is not None and member(sig, value, t):
            return []
        return [f"no inhabitant found for {type_str(t)}"]
    return run_cases(cfg, "types-inhabited-at-small-bounds",
                     lambda rng: check(gen_type(rng, cfg, sig=sig)),
                     scope=map(check, small_types(cfg, sig, SCOPE_SIZE)))


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
    def check(t: Type) -> list[str]:
        return [] if subtype(sig, t, t) else [f"{type_str(t)} not <: itself"]
    return run_cases(cfg, "subtype-reflexive",
                     lambda rng: check(gen_type(rng, cfg, sig=sig)),
                     max(cfg.cases, 1000),
                     map(check, small_types(cfg, sig, SCOPE_SIZE)))


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


def suite_test_semantic(cfg: GenConfig, sig: Signature) -> SuiteResult:
    """``passes(a.label, phi)`` iff every enumerated value of the atom ``a``
    passes the test phi, read by a predicate of its own."""
    a, b = cfg.labels[0], cfg.labels[1 % len(cfg.labels)]
    atoms: list[Atom] = [BOOL, STRING, Element(a, EMPTY),
                         Element(a, Element(b, EMPTY)),
                         Element(b, Or(EMPTY, Element(a, EMPTY))),
                         Element(b, STRING)]
    tests = [BoolAtom, StringAtom, "*", a, b]

    def admits(tree, test) -> bool:
        if test is BoolAtom:
            return isinstance(tree, BoolVal)
        if test is StringAtom:
            return isinstance(tree, StrVal)
        return isinstance(tree, Node) and test in ("*", tree.label)

    def case(atom: Atom, test) -> list[str]:
        decided = passes(atom.label, test)
        semantic = all(admits(v[0], test)
                       for v in values_upto(sig, atom, 3, 3))
        if decided == semantic:
            return []
        return [f"{test_str(test)}? on {type_str(atom)}: passes says "
                f"{decided} but semantics says {semantic}"]
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
    def case(rng: random.Random) -> list[str]:
        env = lang.closed_env(rng, cfg, sig)
        term, t = lang.term(rng, cfg, sig, env)
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
    def case(rng: random.Random) -> list[str]:
        env = gen_env(rng, cfg, sig)
        term, t = lang.term(rng, cfg, sig, env)
        original = lang.synth(sig, env, t, term)
        shrunk_env = gen_sub_env(rng, sig, env)
        narrower = None if t is None else gen_subtype_of(rng, sig, t)
        problem = _narrowing_problem(
            sig, lambda: lang.synth(sig, shrunk_env, narrower, term), original)
        if problem:
            where = ("" if t is None else
                     f" from {type_str(narrower)} <: {type_str(t)}")
            return [f"{lang.show(term)} under a shrunken environment{where}: {problem}"]
        source = gen_type(rng, cfg, size=5, sig=sig)
        body = lang.body(rng, cfg, sig, env, source)
        base = lang.iterate(sig, env, source, body)
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

    def case(rng: random.Random) -> list[str]:
        env = gen_env(rng, cfg, fix)
        t1 = gen_type(rng, cfg, size=4, sig=fix)
        t2 = gen_type(rng, cfg, size=4, sig=fix)
        body = lang.body(rng, cfg, fix, env, Or(t1, t2))
        h = lambda t: lang.iterate(fix, env, t, body)
        left_1, left_2 = h(t1), h(t2)
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
        term, t = lang.term(rng, cfg, sig, env)
        synthesized = lang.synth(sig, env, t, term)
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
        s1 = gen_typed_stmt(rng, cfg, EMPTY_DECLS, sig, {},
                            Multiplicity.PLURAL, t)
        s2 = gen_typed_stmt(rng, cfg, EMPTY_DECLS, sig, {},
                            Multiplicity.PLURAL, _focus_after(s1, t))
        values = sorted(values_upto(sig, t, cfg.depth, cfg.width), key=repr)[:4]
        if not values:
            return REDRAW
        for v in values:
            try:
                if apply_update(rt, {}, v, Skip()) != v:
                    return [f"skip changed {value_str(v)}"]
                composed = apply_update(rt, {}, v, SeqStmt((s1, s2)))
                staged = apply_update(rt, {}, apply_update(rt, {}, v, s1), s2)
                if composed != staged:
                    return [f"sequencing is not composition on {value_str(v)}"]
                it = Nav("iter", _iter_body(rng, cfg, sig, {}, t, budget=1))
                cut = rng.randint(0, len(v))
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
    "test-subtype-semantic": suite_test_semantic,
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
