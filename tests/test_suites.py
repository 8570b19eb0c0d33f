"""The property-suite harness itself: everything green at a small case
count, plus the small scope that three suites check before their draws."""

import ast
import hashlib
import random
from itertools import cycle
from pathlib import Path

import pytest

from fluxq import (
    BOOL, EMPTY, EMPTY_SIGNATURE, Element, EvalError, For, GenConfig, Nav, Or,
    Rename, SeqStmt, Signature, Star, Var, parse_type, parse_value,
    run_suites, type_str,
)
from fluxq import suites
from fluxq.diagnostics import Diagnostic, TypeCheckFailure
from fluxq.suites import (
    PAIR_SCOPE_SIZE, REDRAW, SCOPE_SIZE, SuiteReport, commutation_case,
    fixture_signature, run_cases, small_types, suite_evaluator_laws, tally,
)
from fluxq.types import nodes


class TestRunSuites:
    def test_all_suites_green(self):
        report = run_suites(GenConfig(cases=10, seed=3))
        assert report.ok, report.summary()
        assert [r.name for r in report.results] == list(suites.ALL_SUITES)
        assert len(report.results) == 19
        assert all(r.cases > 0 for r in report.results)

    def test_summary_lines(self):
        report = run_suites(GenConfig(cases=2, seed=4))
        text = report.summary()
        assert "PASS" in text and "OK:" in text

    def test_json_shape(self):
        report = run_suites(GenConfig(cases=2, seed=5))
        data = report.to_json()
        assert data["ok"] is True
        assert all({"name", "cases", "failures"} <= set(s)
                   for s in data["suites"])


class TestRunCases:
    def test_redraws_do_not_count_towards_n(self):
        outcomes = iter([REDRAW, ["bad"], [], REDRAW, [], []])
        res = run_cases(GenConfig(cases=3), "probe", lambda rng: next(outcomes))
        assert (res.cases, res.skipped, res.failures) == (3, 0, ["bad"])
        assert next(outcomes) == []

    def test_scope_comes_first_and_draws_nothing(self):
        # the draws after a scope are the draws of the suite without one
        case = lambda rng: [f"drawn {rng.random()}"]
        res = run_cases(GenConfig(cases=2), "probe", case,
                        scope=iter([[], ["small"]]))
        alone = run_cases(GenConfig(cases=2), "probe", case)
        assert (res.cases, alone.cases) == (4, 2)
        assert res.failures == ["small", *alone.failures]


class TestTally:
    def test_counts_each_outcome_once(self):
        res = tally("probe", iter([[], ["x", "y"], []]), ["whole"])
        assert tuple(res) == ("probe", 3, ["whole", "x", "y"], 0)
        assert not res.ok

    def test_uncounted_failures_come_first(self):
        res = tally("probe", iter([["drawn"], ["drawn"]]), ["whole"])
        assert (res.cases, res.failures) == (2, ["whole", "drawn", "drawn"])

    def test_results_cannot_be_reassigned(self):
        res = tally("probe", [[]])
        with pytest.raises(AttributeError):
            res.cases = 2
        assert res.failures == [] and res.ok

    def test_json_key_order(self):
        report = SuiteReport([tally("probe", [["bad"]])])
        assert report.to_json() == {"ok": False, "suites": [
            {"name": "probe", "cases": 1, "failures": ["bad"], "skipped": 0}]}
        assert list(report.to_json()["suites"][0]) == [
            "name", "cases", "failures", "skipped"]


class TestExhaustiveTallies:
    """The exhaustive suites count one case per checked instance, whatever
    the case count asks for."""

    def test_counts_are_pinned(self):
        cfg = GenConfig(seed=42, cases=3)
        sig = fixture_signature(cfg)
        tallies = {r.name: (r.cases, r.skipped) for r in (
            suites.suite_member_recursive_regression(cfg, sig),
            suites.oracle_agreement(cfg, sig),
            suites.suite_test_semantic(cfg, sig),
            suites.suite_filter_commutation(cfg, sig),
        )}
        assert tallies == {
            # the two checks on List stay uncounted
            "member-terminates-on-recursive-signatures": (9, 0),
            # every pair of the 60 bounded types, plus the two worked pairs
            "subtype-agrees-with-oracle": (3602, 0),
            "test-subtype-semantic": (30, 0),
            # 120 bounded types and labels, plus the worked example
            "filter-commutes-with-language": (121, 0),
        }


class TestOracleCertificate:
    """``subtype-agrees-with-oracle`` believes a refusal only when the
    witness ``refute`` gives is in the left type and not in the right."""

    CFG = GenConfig(labels=("a", "b"), depth=1, width=2)

    def only_pair(self, monkeypatch, name, t1, t2, answer):
        """Patch ``suites.<name>`` to give ``answer`` on ``t1 <: t2``."""
        real, pair = getattr(suites, name), (parse_type(t1), parse_type(t2))
        monkeypatch.setattr(suites, name, lambda sig, *p: (
            answer if p == pair else real(sig, *p)))

    def test_uncertified_refusal_is_reported(self, monkeypatch):
        self.only_pair(monkeypatch, "subtype", "a[]", "a[]*", False)
        result = suites.oracle_agreement(self.CFG, EMPTY_SIGNATURE)
        assert result.failures == ["subtype refused a[] <: a[]* but refute "
                                   "found no witness"]

    def test_wrong_yes_is_reported_with_the_first_outside_value(
            self, monkeypatch):
        self.only_pair(monkeypatch, "subtype", "a[]*", "a[]", True)
        result = suites.oracle_agreement(self.CFG, EMPTY_SIGNATURE)
        assert result.failures == ["subtype said a[]* <: a[] but () "
                                   "refutes it"]

    def test_worked_crossing_pairs_are_checked(self, monkeypatch):
        self.only_pair(monkeypatch, "subtype", "a[b[]],e[]",
                       "a[b[]],d[] | a[c[]],e[]", True)
        # a[b[]] nests two deep
        cfg = self.CFG._replace(depth=2)
        result = suites.oracle_agreement(cfg, EMPTY_SIGNATURE)
        assert result.failures == ["subtype said a[b[]],e[] <: "
                                   "a[b[]],d[]|a[c[]],e[] but a[b[]],e[] "
                                   "refutes it"]

    def test_lying_witness_is_reported(self, monkeypatch):
        self.only_pair(monkeypatch, "refute", "a[]*", "a[]",
                       parse_value("a[]"))
        result = suites.oracle_agreement(self.CFG, EMPTY_SIGNATURE)
        assert result.failures == ["subtype refused a[]* <: a[] but its "
                                   "witness a[] does not separate them"]


class TestMemberRespectsSubtyping:
    """The suite checks the 625 pairs of its small scope, then its draws;
    ``drawn`` splits a result's failures at the scope's."""

    @staticmethod
    def drawn(cfg) -> tuple[int, list[str], list[str]]:
        """The cases, the scope's failures and the draws' failures."""
        scope = suites.suite_member_respects_subtyping(
            cfg._replace(cases=0), fixture_signature(cfg))
        result = suites.suite_member_respects_subtyping(
            cfg, fixture_signature(cfg))
        assert result.failures[:len(scope.failures)] == scope.failures
        return (result.cases, scope.failures,
                result.failures[len(scope.failures):])

    def test_judged_by_values_not_by_member(self, monkeypatch):
        # a drawn pair that is no subtype pair, which ``subtype`` accepts
        # and so does a ``member`` that reads the same broken tables, is
        # refuted by the enumerated values; the left side the patched
        # ``gen_subtype_of`` gives adds ``bool``, so no pair is a subtype
        # pair, whether drawn below ``t2`` or below ``t2 | u``
        drawn = cycle([parse_type("a[]"), parse_type("b[]")])
        monkeypatch.setattr(suites, "gen_type",
                            lambda *args, **kwargs: next(drawn))
        monkeypatch.setattr(suites, "gen_subtype_of",
                            lambda rng, sig, t: Or(t, BOOL))
        monkeypatch.setattr(suites, "subtype", lambda sig, t1, t2: True)
        monkeypatch.setattr(suites, "member", lambda sig, v, t: True)
        cases, scope, random = self.drawn(GenConfig(cases=5, seed=1))
        assert cases == 625 + 5 and len(random) == 5
        assert all(" is not a value of supertype " in f
                   for f in scope + random)

    def test_sees_a_wrong_yes_on_pairs_drawn_apart(self, monkeypatch):
        # with the real draws, a ``subtype`` that says "yes" to every pair
        # is refuted on pairs whose left type is drawn apart from the right
        monkeypatch.setattr(suites, "subtype", lambda sig, t1, t2: True)
        cases, scope, random = self.drawn(GenConfig(cases=10, seed=1))
        assert cases == 625 + 10 and len(random) >= 3
        assert all(" is not a value of supertype " in f
                   for f in scope + random)
        # the scope's first failure is its first pair that is no subtype
        # pair: () against bool
        assert scope[0] == "value () of () is not a value of supertype bool"


class TestDrawsAreNotApprovedByTheCodeUnderTest:
    """No generator asks ``subtype``, ``synth_expr`` or ``synth_stmt`` to
    approve its draws, so code that wrongly rejects a draw fails its suite
    instead of choosing the inputs it gets right."""

    # a name is a generator's if it starts with ``gen_``, or is one of these
    # or a ``_*_candidate``
    GENERATORS = ("_narrow", "_iter_body", "_update_term")
    JUDGMENTS = {"synth_expr", "synth_stmt", "synth_for", "synth_iter",
                 "subtype", "member"}

    def test_no_generator_calls_a_judgment(self):
        tree = ast.parse(Path(suites.__file__).read_text())
        generators = [f for f in tree.body if isinstance(f, ast.FunctionDef)
                      and (f.name.startswith("gen_") or f.name in self.GENERATORS
                           or f.name.startswith("_")
                           and f.name.endswith("_candidate"))]
        assert {"gen_subtype_of", "gen_typed_expr", "gen_typed_stmt",
                "_expr_candidate", "_stmt_candidate", *self.GENERATORS} <= {
                    f.name for f in generators}
        named = {(f.name, node.id) for f in generators
                 for node in ast.walk(f) if isinstance(node, ast.Name)
                 and node.id in self.JUDGMENTS}
        assert named == set()

    def test_only_inputs_out_of_bounds_are_discarded(self, monkeypatch):
        # no draw is discarded for failing to type; at the defaults one
        # update-soundness input type, (b[],string),c[],List, has no value
        # within width 3, and its case is drawn again
        discarded: dict[str, int] = {}
        run_cases = suites.run_cases

        def counting(cfg, name, case, *args, **kwargs):
            def counted(rng):
                outcome = case(rng)
                if outcome is REDRAW:
                    discarded[name] = discarded.get(name, 0) + 1
                return outcome
            return run_cases(cfg, name, counted, *args, **kwargs)

        monkeypatch.setattr(suites, "run_cases", counting)
        assert run_suites(GenConfig()).ok
        assert discarded == {"update-soundness": 1}

    def test_checker_that_rejects_an_update_is_reported(self, monkeypatch):
        synth_stmt = suites.synth_stmt

        def renames_in_iter(s, inside=False) -> bool:
            if isinstance(s, Rename):
                return inside
            inside = inside or isinstance(s, Nav) and s.direction == "iter"
            parts = (s.items if isinstance(s, SeqStmt) else
                     [getattr(s, f) for f in ("then", "els", "body")
                      if hasattr(s, f)])
            return any(renames_in_iter(part, inside) for part in parts)

        def no_rename_in_iter(decls, sig, env, mult, t, s):
            if renames_in_iter(s):
                raise TypeCheckFailure(Diagnostic("no rename in iter",
                                                  "probe/iter"))
            return synth_stmt(decls, sig, env, mult, t, s)

        monkeypatch.setattr(suites, "synth_stmt", no_rename_in_iter)
        # the 35th term of the default 100 is the first with such a rename
        cfg = GenConfig(seed=42)
        result = suites.deterministic(suites.UPDATE, cfg,
                                      fixture_signature(cfg))
        assert (result.cases, result.failures) == (
            35, ["raised TypeCheckFailure: no rename in iter"])

    def test_incomplete_subtype_breaks_a_chain(self, monkeypatch):
        monkeypatch.setattr(suites, "subtype", lambda sig, t1, t2: t1 == t2)
        cfg = GenConfig(seed=42, cases=20)
        result = suites.suite_subtype_transitive(cfg, fixture_signature(cfg))
        assert result.cases == 20 and len(result.failures) >= 5
        assert all(f.startswith("chain broke: ") for f in result.failures)

    def test_checker_that_rejects_a_query_is_reported(self, monkeypatch):
        synth_expr = suites.synth_expr

        def no_for(decls, sig, env, e):
            if isinstance(e, For):
                raise TypeCheckFailure(Diagnostic("no for", "probe/for"))
            return synth_expr(decls, sig, env, e)

        monkeypatch.setattr(suites, "synth_expr", no_for)
        cfg = GenConfig(seed=42, cases=20)
        result = suites.deterministic(suites.QUERY, cfg, fixture_signature(cfg))
        assert result.failures == ["raised TypeCheckFailure: no for"]


class TestRaisingSuite:
    # ``fluxq oracle`` with a raising suite: tests/test_cli.py, TestOracle
    def test_the_failing_case_ends_its_suite(self):
        def outcomes():
            yield []
            raise ValueError("bad draw")

        res = tally("probe", outcomes(), ["whole"])
        assert tuple(res) == ("probe", 2, ["whole",
                                           "raised ValueError: bad draw"], 0)


class _Recording(random.Random):
    """A random stream that records every value it draws.  Overriding both
    ``random`` and ``getrandbits`` keeps ``_randbelow`` on its getrandbits
    path, so the recorded stream is the one an unwrapped generator gives."""

    def __init__(self, seed):
        self.draws = []
        super().__init__(seed)

    def random(self):
        x = super().random()
        self.draws.append(x)
        return x

    def getrandbits(self, k):
        x = super().getrandbits(k)
        self.draws.append(x)
        return x


# Draw count and digest of the drawn values of each suite's stream at
# seed 42 and 10 cases.  A suite that draws once more or once less, or in
# another order, changes its row.
PINNED_STREAMS = {
    "member-respects-subtyping": (270, "53dbda8f90f387c6"),
    "atoms-compatible-under-subtyping": (181, "d8d66c50d65f47d6"),
    "types-inhabited-at-small-bounds": (145, "7803ddf6dae7251b"),
    "subtype-reflexive": (15082, "cc28ac41373039e1"),
    "subtype-transitive": (183, "d8550f42426d266c"),
    "query-synthesis-deterministic": (550, "8c63f6e2c9abca42"),
    "query-downward-monotone": (900, "e751ae267e9a8d66"),
    "for-iteration-homomorphic": (651, "445d24c348f03eb7"),
    "filter-total": (225, "2817dfcbd3baa1b7"),
    "query-soundness": (472, "3192152f6a99a7ea"),
    "update-synthesis-deterministic": (340, "ab941f52ccf1ef41"),
    "update-downward-monotone": (697, "6c47f8fa301d5b61"),
    "iter-homomorphic": (581, "b1b653bd8c176dcd"),
    "update-soundness": (373, "5178bec428b41de3"),
    "evaluator-laws": (561, "339ab205fae4af16"),
}


class TestSuiteStreams:
    def test_streams_are_pinned(self, monkeypatch):
        streams: dict[str, _Recording] = {}

        def recording_rng(cfg, name):
            assert name not in streams, f"{name} seeded twice"
            streams[name] = _Recording(f"{cfg.seed}:{name}")
            return streams[name]

        monkeypatch.setattr(suites, "_suite_rng", recording_rng)
        run_suites(GenConfig(seed=42, cases=10))
        assert {name: (len(r.draws),
                       hashlib.sha256(repr(r.draws).encode()).hexdigest()[:16])
                for name, r in streams.items()} == PINNED_STREAMS


class TestEvaluatorLaws:
    def test_eval_error_is_a_failure(self, monkeypatch):
        def crash(*args):
            raise EvalError("focus-shape violation")
        monkeypatch.setattr(suites, "apply_update", crash)
        cfg = GenConfig(cases=3, seed=3)
        result = suite_evaluator_laws(cfg, fixture_signature(cfg))
        assert result.failures
        assert result.failures[0].startswith("well-typed update crashed on")


class TestSoundnessReports:
    """A failing soundness case names the term, its inputs (the variables
    of a query's environment, an update's input value) and its result."""

    @pytest.mark.parametrize("name, failures", [
        ("query-soundness", [
            'false mapped $v0 = "" to false, outside its synthesized type '
            'bool',
            "(), c[c[$v0]::a] mapped $v0 = () to c[], outside its "
            "synthesized type (),c[]"]),
        ("update-soundness", [
            "if true then iter[right[delete]; delete] else iter[bool?skip] "
            "mapped () to (), outside its synthesized type "
            "((),())?*|((),()|string)*",
            "iter[delete] mapped b[] to (), outside its synthesized type "
            "()"]),
    ], ids=["query", "update"])
    def test_result_outside_the_synthesized_type(self, monkeypatch, name,
                                                 failures):
        monkeypatch.setattr(suites, "member", lambda sig, v, t: False)
        cfg = GenConfig(cases=2, seed=4)
        result = suites.ALL_SUITES[name](cfg, fixture_signature(cfg))
        assert result.failures == failures


class TestSmallScope:
    """Three suites check every type of AST size 3 or less, or every pair
    of types of size 2 or less, before their draws, smallest first."""

    CFG = GenConfig()

    def test_first_failure_is_the_smallest(self, monkeypatch):
        # a ``subtype`` that refuses every left type holding a star fails
        # reflexivity first at the smallest such type
        real = suites.subtype
        monkeypatch.setattr(suites, "subtype", lambda sig, t1, t2: (
            not any(isinstance(n, Star) for n in nodes(t1))
            and real(sig, t1, t2)))
        result = suites.suite_subtype_reflexive(
            self.CFG, fixture_signature(self.CFG))
        assert result.failures[0] == "()* not <: itself"

    def test_uninhabited_variable_is_the_first_failure(self):
        # run without the CLI, whose boundary check rejects the signature
        vacuous = Signature({"X": Element("cons", Var("X"))})
        report = run_suites(GenConfig(cases=5), vacuous)
        inhabited = {r.name: r for r in report.results}[
            "types-inhabited-at-small-bounds"]
        assert inhabited.failures[0] == "no inhabitant found for X"

    def test_scope_is_pinned(self):
        # the scope ``fluxq oracle`` builds: (), bool, string, List and
        # Tree, then elements and stars over them, then the rest of size 3
        sig = fixture_signature(self.CFG)
        texts = [type_str(t) for t in small_types(self.CFG, sig, SCOPE_SIZE)]
        assert texts[:6] == ["()", "bool", "string", "List", "Tree", "a[]"]
        assert len(texts) == 155
        assert hashlib.sha256("\n".join(texts).encode()).hexdigest() == (
            "96379b18baa0594d5b7eb4e5ad8751cf855647fdef4823ffe94a32227a17eaac")
        pairs = small_types(self.CFG, sig, PAIR_SCOPE_SIZE)
        assert [type_str(t) for t in pairs] == texts[:25]

    def test_scope_is_capped(self):
        # many declarations: the scope keeps the first types in order
        sig = Signature({f"X{i}": Element("a", EMPTY) for i in range(50)})
        types = small_types(self.CFG, sig, SCOPE_SIZE)
        assert len(types) == suites.SCOPE_CAP
        assert types[3:53] == [Var(f"X{i}") for i in range(50)]
        assert len(small_types(self.CFG, sig, PAIR_SCOPE_SIZE, 31)) == 31


class TestCommutationCase:
    def test_worked_example(self):
        ok, msg = commutation_case(EMPTY_SIGNATURE, parse_type("b[]*,c[]?"),
                                   "b", 3)
        assert ok, msg

    def test_mandatory_padding_handled(self):
        # filtering a[],b[] by a drops the mandatory b; the source side must
        # still produce the one-tree result a[]
        ok, msg = commutation_case(EMPTY_SIGNATURE, parse_type("a[],b[]"),
                                   "a", 3)
        assert ok, msg

    def test_recursive_signature(self):
        sig = fixture_signature(GenConfig())
        from fluxq.types import Var
        ok, msg = commutation_case(sig, Var("List"), "a", 2)
        assert ok, msg

    def test_wrong_filter_is_reported(self, monkeypatch):
        # a filter that keeps every atom is checked against the values,
        # not against itself
        monkeypatch.setattr(suites, "filter_label", lambda sig, t, label: t)
        ok, msg = commutation_case(EMPTY_SIGNATURE, parse_type("a[],b[]"),
                                   "a", 3)
        assert (ok, msg) == (False, "filter a on a[],b[]: sides differ "
                                    "(missing a[],b[], extra a[])")
