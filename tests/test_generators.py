"""Random generators: reproducibility, soundness of narrowing, and
well-typedness of generated terms."""

import random

from fluxq import (
    Concat, EMPTY, EMPTY_DECLS, EMPTY_SIGNATURE, GenConfig, Multiplicity,
    Runtime, SeqStmt, apply_update, eval_query, expr_str, gen_env,
    gen_sub_env, gen_subtype_of, gen_type, gen_typed_expr, gen_typed_stmt,
    member, parse_expr, parse_stmt, stmt_str, subtype, synth_expr,
    synth_stmt, parse_type, values_upto,
)
from fluxq.diagnostics import GenerationError
from fluxq.suites import fixture_signature

E = EMPTY_SIGNATURE
CFG = GenConfig(seed=5)


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
                try:
                    out.append(gen_typed_expr(rng, CFG, EMPTY_DECLS, E, env))
                except GenerationError:
                    out.append(None)
            return out
        assert stream(4) == stream(4)


class TestNarrowing:
    def test_outputs_are_subtypes(self):
        rng = random.Random(21)
        for _ in range(400):
            t = gen_type(rng, CFG)
            narrowed = gen_subtype_of(rng, E, t)
            assert subtype(E, narrowed, t)

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
        rng = random.Random(31)
        for _ in range(150):
            env = gen_env(rng, CFG, E)
            try:
                e = gen_typed_expr(rng, CFG, EMPTY_DECLS, E, env)
            except GenerationError:
                continue
            synth_expr(EMPTY_DECLS, E, env, e)  # must not raise

    def test_stmts_typecheck(self):
        rng = random.Random(32)
        for _ in range(150):
            t = gen_type(rng, CFG, size=5)
            try:
                s = gen_typed_stmt(rng, CFG, EMPTY_DECLS, E, {},
                                   Multiplicity.PLURAL, t)
            except GenerationError:
                continue
            synth_stmt(EMPTY_DECLS, E, {}, Multiplicity.PLURAL, t, s)


class TestFlatLists:
    """The generators draw ``,`` and ``;`` lists of two items only; a flat
    list of three to five generated items evaluates into its synthesized
    type and prints back to itself."""

    SIG = fixture_signature(CFG)

    def draws(self, seed, item):
        """Forty lists of three to five items, each drawn by ``item``;
        a draw that fails is drawn again."""
        rng = random.Random(seed)
        lists = []
        while len(lists) < 40:
            try:
                lists.append(item(rng, rng.randint(3, 5)))
            except GenerationError:
                continue
        return lists

    def test_concat_of_generated_items(self):
        def items(rng, k):
            return Concat(tuple(gen_typed_expr(rng, CFG, EMPTY_DECLS, self.SIG,
                                               {}) for _ in range(k)))

        for e in self.draws(33, items):
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
