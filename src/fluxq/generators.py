"""Seeded random generators for types, environments, expressions, and
statements.

Generated terms are verified: ``gen_subtype_of`` re-checks its output with
the subtype decision procedure, and the typed term generators run the
typechecker on every candidate, retrying until one checks (or raising
GenerationError after the retry budget).  Fixing the seed reproduces the
same sequence of instances.
"""

from __future__ import annotations

import random
from typing import NamedTuple

from .diagnostics import GenerationError, TypeCheckFailure
from .queries import (
    BoolLit, Children, Concat, Elem, EmptySeq, For, If, LabelFilter, Let,
    QueryExpr, StrLit, VarRef, synth_expr,
)
from .subtyping import subtype
from .types import (
    Atom, BOOL, BoolAtom, Element, Empty, EMPTY, ForestBinding, GlobalDecls,
    Or, Seq, Signature, Star, STRING, StringAtom, TreeBinding, Type, TypeEnv,
    Var, passes, syntactic_atoms,
)
from .updates import (
    Delete, IfStmt, Insert, LetStmt, Multiplicity, Nav, Rename,
    SeqStmt, Skip, Snapshot, Test, UpdateStmt, synth_stmt,
)

_RETRIES = 32
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


def gen_atom(rng: random.Random, cfg: GenConfig, size: int, nesting: int,
             elements_only: bool = False) -> Atom:
    if not elements_only and rng.random() < 0.3:
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
    """A random subtype of ``t`` (possibly ``t`` itself), verified."""
    if rng.random() < 0.2:
        return t
    for _ in range(_RETRIES):
        candidate = _narrow(rng, sig, t)
        if subtype(sig, candidate, t):
            return candidate
    return t


def gen_sub_atom(rng: random.Random, sig: Signature, atom: Atom) -> Atom:
    """A random atom below ``atom``: same branding, possibly narrower content."""
    if isinstance(atom, Element) and rng.random() < 0.7:
        return Element(atom.label, gen_subtype_of(rng, sig, atom.content))
    return atom


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
    """Pointwise shrink: same domain and binding kinds, narrower types."""
    out: dict[str, TreeBinding | ForestBinding] = {}
    for name, binding in env.items():
        if isinstance(binding, TreeBinding):
            out[name] = TreeBinding(gen_sub_atom(rng, sig, binding.atom))
        else:
            out[name] = ForestBinding(gen_subtype_of(rng, sig, binding.type))
    return out


def _expr_candidate(rng: random.Random, cfg: GenConfig, decls: GlobalDecls,
                    sig: Signature, env: TypeEnv, budget: int,
                    robust: bool) -> QueryExpr:
    """One candidate expression; ``robust`` restricts to constructs that
    typecheck under any atom binding for the in-scope tree variables."""
    leaves: list[QueryExpr] = [EmptySeq(), StrLit(rng.choice(("", "a", "hi"))),
                               BoolLit(rng.random() < 0.5)]
    names = list(env)
    if names:
        leaves.append(VarRef(rng.choice(names)))
    if budget <= 0:
        return rng.choice(leaves)
    roll = rng.random()
    sub = lambda b=budget - 1: _expr_candidate(rng, cfg, decls, sig, env, b, robust)
    if roll < 0.25:
        return rng.choice(leaves)
    if roll < 0.4:
        return Concat(sub(), sub())
    if roll < 0.5:
        return Elem(rng.choice(cfg.labels), sub())
    if roll < 0.6:
        return LabelFilter(sub(), rng.choice(cfg.labels))
    if roll < 0.7:
        var = f"x{budget}"
        bound = sub()
        inner_env = {**env, var: ForestBinding(EMPTY)}  # placeholder kind
        body = _expr_candidate(rng, cfg, decls, sig, inner_env, budget - 1, robust)
        return Let(var, bound, body)
    if roll < 0.78:
        return If(BoolLit(rng.random() < 0.5), sub(), sub())
    if roll < 0.9 or robust:
        var = f"t{budget}"
        source = sub()
        inner_env = {**env, var: TreeBinding(BOOL)}  # placeholder kind
        body = _expr_candidate(rng, cfg, decls, sig, inner_env, budget - 2, True)
        return For(var, source, body)
    tree_elems = [n for n, b in env.items()
                  if isinstance(b, TreeBinding) and isinstance(b.atom, Element)]
    if tree_elems:
        return Children(rng.choice(tree_elems))
    return rng.choice(leaves)


def gen_typed_expr(rng: random.Random, cfg: GenConfig, decls: GlobalDecls,
                   sig: Signature, env: TypeEnv,
                   budget: int = 4) -> QueryExpr:
    """A random expression that typechecks under the given inputs."""
    for _ in range(_RETRIES):
        candidate = _expr_candidate(rng, cfg, decls, sig, env, budget, False)
        try:
            synth_expr(decls, sig, env, candidate)
            return candidate
        except TypeCheckFailure:
            continue
    raise GenerationError(
        f"no well-typed expression found in {_RETRIES} attempts")


def _stmt_candidate(rng: random.Random, cfg: GenConfig, decls: GlobalDecls,
                    sig: Signature, env: TypeEnv, mult: Multiplicity, t: Type,
                    budget: int) -> UpdateStmt:
    simple: list[UpdateStmt] = [Skip(), Delete()]
    if budget <= 0:
        return rng.choice(simple)
    roll = rng.random()
    if roll < 0.15:
        return rng.choice(simple)
    if roll < 0.25:
        first = _stmt_candidate(rng, cfg, decls, sig, env, mult, t, budget - 1)
        try:
            mid = synth_stmt(decls, sig, env, mult, t, first)
        except TypeCheckFailure:
            return first
        second = _stmt_candidate(rng, cfg, decls, sig, env, mult, mid, budget - 1)
        return SeqStmt(first, second)
    if roll < 0.35:
        return IfStmt(BoolLit(rng.random() < 0.5),
                      _stmt_candidate(rng, cfg, decls, sig, env, mult, t, budget - 1),
                      _stmt_candidate(rng, cfg, decls, sig, env, mult, t, budget - 1))
    if roll < 0.45:
        var = f"s{budget}"
        inner = {**env, var: ForestBinding(t)}
        return Snapshot(var, _stmt_candidate(rng, cfg, decls, sig, inner,
                                             mult, t, budget - 1))
    if roll < 0.55:
        var = f"l{budget}"
        bound = _expr_candidate(rng, cfg, decls, sig, env, 2, False)
        inner = {**env, var: ForestBinding(EMPTY)}
        return LetStmt(var, bound, _stmt_candidate(rng, cfg, decls, sig, inner,
                                                   mult, t, budget - 1))
    if roll < 0.7:
        body = _stmt_candidate(rng, cfg, decls, sig, env, Multiplicity.PLURAL,
                               EMPTY, budget - 1)
        direction = "left" if rng.random() < 0.5 else "right"
        return Nav(direction, body)
    if mult is Multiplicity.PLURAL:
        if isinstance(t, Empty) and roll < 0.85:
            return Insert(_expr_candidate(rng, cfg, decls, sig, env, 2, False))
        atoms = sorted(syntactic_atoms(sig, t), key=repr)
        focus = rng.choice(atoms) if atoms else BOOL
        body = _stmt_candidate(rng, cfg, decls, sig, env,
                               Multiplicity.SINGULAR, focus, budget - 1)
        return Nav("iter", body)
    # singular focus
    if isinstance(t, Element) and roll < 0.8:
        if rng.random() < 0.5:
            return Rename(rng.choice(cfg.labels))
        body = _stmt_candidate(rng, cfg, decls, sig, env, Multiplicity.PLURAL,
                               t.content, budget - 1)
        return Nav("children", body)
    if isinstance(t, Atom):
        tests = ["*", BoolAtom, StringAtom, rng.choice(cfg.labels)]
        if isinstance(t, Element):
            tests.append(t.label)
        test = rng.choice(tests)
        if passes(t.label, test):
            body = _stmt_candidate(rng, cfg, decls, sig, env, mult, t, budget - 1)
        else:
            body = rng.choice(simple)
        return Test(test, body)
    return rng.choice(simple)


def gen_typed_stmt(rng: random.Random, cfg: GenConfig, decls: GlobalDecls,
                   sig: Signature, env: TypeEnv, mult: Multiplicity, t: Type,
                   budget: int = 4) -> UpdateStmt:
    """A random statement that typechecks at the given multiplicity/focus."""
    assert mult is Multiplicity.PLURAL or isinstance(t, Atom)
    for _ in range(_RETRIES):
        candidate = _stmt_candidate(rng, cfg, decls, sig, env, mult, t, budget)
        try:
            synth_stmt(decls, sig, env, mult, t, candidate)
            return candidate
        except TypeCheckFailure:
            continue
    raise GenerationError(
        f"no well-typed statement found in {_RETRIES} attempts")
