"""Random generators: reproducibility, soundness of narrowing, and
well-typedness of generated terms.

``gen_subtype_of``, ``gen_typed_expr`` and ``gen_typed_stmt`` return their
draws unchecked, so ``TestNarrowing`` and ``TestTypedGeneration`` are what
pins their soundness: every narrowing is a subtype, by ``subtype`` and by
its enumerated values, and every drawn query and update types."""

import random

from fluxq import (
    Concat, EMPTY, EMPTY_DECLS, EMPTY_SIGNATURE, GenConfig, Insert,
    Multiplicity, Nav, Rename, Runtime, SeqStmt, apply_update, eval_query,
    expr_str, gen_env, gen_sub_env, gen_subtype_of, gen_type, gen_typed_expr,
    gen_typed_stmt, member, parse_expr, parse_stmt, stmt_str, subtype,
    synth_expr, synth_stmt, parse_type, values_upto,
)
from fluxq.suites import fixture_signature
from fluxq.types import Var, nodes

E = EMPTY_SIGNATURE
CFG = GenConfig(seed=5)
FIX = fixture_signature(CFG)


class TestReproducibility:
    def test_same_seed_same_types(self):
        a = [gen_type(random.Random(99), CFG) for _ in range(50)]
        b = [gen_type(random.Random(99), CFG) for _ in range(50)]
        assert a == b

    def test_same_seed_same_exprs(self):
        def stream(seed):
            rng = random.Random(seed)
            out = []
            for _ in range(30):
                env = gen_env(rng, CFG, E)
                out.append(gen_typed_expr(rng, CFG, EMPTY_DECLS, E, env))
            return out
        assert stream(4) == stream(4)


class TestNarrowing:
    def test_outputs_are_subtypes(self):
        """Each narrowing is a subtype by the decision and by its values
        within depth 3 and width 2 (at width 3, ``a[c[bool*]*]*`` alone
        has about 4.7e10 values), over the empty signature and over the
        fixture signature, where some narrowings unfold a variable."""
        for sig, least_unfolded in ((E, 0), (FIX, 20)):
            rng = random.Random(21)
            unfolded = 0
            for _ in range(1000):
                t = gen_type(rng, CFG, sig=sig)
                narrowed = gen_subtype_of(rng, sig, t)
                assert subtype(sig, narrowed, t), (narrowed, t)
                assert (values_upto(sig, narrowed, 3, 2)
                        <= values_upto(sig, t, 3, 2)), (narrowed, t)
                unfolded += _has_var(t) and not _has_var(narrowed)
            assert unfolded >= least_unfolded

    def test_empty_narrows_to_itself(self):
        rng = random.Random(22)
        for _ in range(50):
            assert gen_subtype_of(rng, E, EMPTY) == EMPTY

    def test_canonical_star_narrowing_reachable(self):
        rng = random.Random(23)
        t = parse_type("a[]*")
        seen = {gen_subtype_of(rng, E, t) for _ in range(200)}
        assert parse_type("a[],a[]*") in seen or parse_type("a[],(a[],a[]*)") in seen
        assert EMPTY in seen
        assert t in seen

    def test_or_narrowing_reachable(self):
        rng = random.Random(25)
        t = parse_type("b[]|c[]")
        seen = {gen_subtype_of(rng, E, t) for _ in range(100)}
        assert parse_type("b[]") in seen
        assert parse_type("c[]") in seen

    def test_env_shrinking_is_pointwise(self):
        rng = random.Random(24)
        for _ in range(100):
            env = gen_env(rng, CFG, E)
            shrunk = gen_sub_env(rng, E, env)
            # same names, same binding kinds, and each type a subtype
            assert shrunk.keys() == env.keys()
            for name, binding in shrunk.items():
                assert type(binding) is type(env[name])
                assert subtype(E, binding.type, env[name].type)


class TestTypedGeneration:
    def test_exprs_typecheck(self):
        """Every drawn query types under its environment, over the empty
        signature and over the fixture signature.  Many draws project
        ``$v/child`` from a tree variable, and over the fixture signature
        some hold a ``for`` and a variable whose type names a signature
        variable, which typing unfolds."""
        for sig, least_unfolding in ((E, 0), (FIX, 10)):
            rng = random.Random(31)
            children = unfolding = 0
            for _ in range(1000):
                env = gen_env(rng, CFG, sig)
                e = gen_typed_expr(rng, CFG, EMPTY_DECLS, sig, env)
                synth_expr(EMPTY_DECLS, sig, env, e)  # must not raise
                text = expr_str(e)
                children += "/child" in text
                unfolding += "for $" in text and any(
                    _has_var(b.type) and f"${name}" in text
                    for name, b in env.items())
            assert children >= 50
            assert unfolding >= least_unfolding

    def test_stmts_typecheck(self):
        """Every drawn update types at its focus, over the empty signature
        and over the fixture signature.  Many draws hold a ``rename`` or a
        ``children[...]`` inside an ``iter``, whose body types only at some
        atoms, and an ``insert``, which types only at ``()``."""
        for sig in (E, FIX):
            rng = random.Random(32)
            renamed = children = inserted = 0
            for _ in range(1000):
                t = gen_type(rng, CFG, size=5, sig=sig)
                s = gen_typed_stmt(rng, CFG, EMPTY_DECLS, sig, {},
                                   Multiplicity.PLURAL, t)
                synth_stmt(EMPTY_DECLS, sig, {}, Multiplicity.PLURAL, t, s)
                inner = [x for x, inside in _parts(s) if inside]
                renamed += any(isinstance(x, Rename) for x in inner)
                children += any(isinstance(x, Nav) and x.direction ==
                                "children" for x in inner)
                inserted += any(isinstance(x, Insert) for x, _ in _parts(s))
            assert renamed >= 10 and children >= 10 and inserted >= 50


class TestFlatLists:
    """The generators draw ``,`` and ``;`` lists of two items only; a flat
    list of three to five generated items evaluates into its synthesized
    type and prints back to itself."""

    SIG = FIX

    def draws(self, seed, item):
        """Forty lists of three to five statements, each drawn by
        ``item``."""
        rng = random.Random(seed)
        return [item(rng, rng.randint(3, 5)) for _ in range(40)]

    def test_concat_of_generated_items(self):
        rng = random.Random(33)
        for _ in range(40):
            e = Concat(tuple(gen_typed_expr(rng, CFG, EMPTY_DECLS, self.SIG, {})
                             for _ in range(rng.randint(3, 5))))
            t = synth_expr(EMPTY_DECLS, self.SIG, {}, e)
            assert member(self.SIG, eval_query(Runtime(), {}, e), t)
            assert parse_expr(expr_str(e)) == e

    def test_seq_of_generated_items(self):
        plural = Multiplicity.PLURAL

        def items(rng, k):
            focus = gen_type(rng, CFG, size=5)
            steps, t = [], focus
            for _ in range(k):
                steps.append(gen_typed_stmt(rng, CFG, EMPTY_DECLS, self.SIG,
                                            {}, plural, t))
                t = synth_stmt(EMPTY_DECLS, self.SIG, {}, plural, t, steps[-1])
            return focus, SeqStmt(tuple(steps))

        ran = 0
        for focus, s in self.draws(34, items):
            t = synth_stmt(EMPTY_DECLS, self.SIG, {}, plural, focus, s)
            for v in sorted(values_upto(self.SIG, focus, 2, 2), key=repr)[:3]:
                assert member(self.SIG, apply_update(Runtime(), {}, v, s), t)
                ran += 1
            assert parse_stmt(stmt_str(s)) == s
        assert ran > 40


def _has_var(t) -> bool:
    return any(isinstance(node, Var) for node in nodes(t))


def _parts(s, inside=False):
    """Each statement of ``s`` with whether it lies in an ``iter`` body."""
    yield s, inside
    inside = inside or isinstance(s, Nav) and s.direction == "iter"
    for part in (s.items if isinstance(s, SeqStmt) else
                 [getattr(s, f) for f in ("then", "els", "body")
                  if hasattr(s, f)]):
        yield from _parts(part, inside)
