"""The property-suite harness itself: everything green at a small case
count, plus the shrinking machinery."""

from fluxq import (
    EMPTY, EMPTY_SIGNATURE, EvalError, GenConfig, parse_type, run_suites,
    subtype,
)
from fluxq import suites
from fluxq.suites import (
    commutation_case, fixture_signature, greedy_shrink, shrink_type,
    shrink_type_pair, suite_evaluator_laws,
)


class TestRunSuites:
    def test_all_suites_green(self):
        report = run_suites(GenConfig(cases=10, seed=3))
        assert report.ok, report.summary()
        assert len(report.results) >= 20
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


class TestEvaluatorLaws:
    def test_eval_error_is_a_failure(self, monkeypatch):
        def crash(*args):
            raise EvalError("focus-shape violation")
        monkeypatch.setattr(suites, "apply_update", crash)
        cfg = GenConfig(cases=3, seed=3)
        result = suite_evaluator_laws(cfg, fixture_signature(cfg))
        assert result.failures
        assert result.failures[0].startswith("well-typed update crashed on")


class TestShrinking:
    def test_shrinks_non_subtype_pair_to_local_minimum(self):
        big = (parse_type("(a[],a[])|b[]"), parse_type("a[]|b[]"))
        def fails(p):
            return not subtype(EMPTY_SIGNATURE, p[0], p[1])
        small = shrink_type_pair(big, fails)
        assert fails(small)
        # local minimality: no one-step-smaller pair still fails
        def candidates(p):
            t1, t2 = p
            for c in shrink_type(t1):
                yield (c, t2)
            for c in shrink_type(t2):
                yield (t1, c)
        assert not any(fails(c) for c in candidates(small))

    def test_greedy_shrink_respects_predicate(self):
        t = parse_type("a[b[]|c[]]*")
        def fails(candidate):
            return not isinstance(candidate, type(EMPTY))
        result = greedy_shrink(t, fails, shrink_type)
        assert fails(result)
        assert not any(fails(c) for c in shrink_type(result))


class TestCommutationCase:
    def test_worked_example(self):
        from fluxq.types import Element, EMPTY as EM
        universe = frozenset({Element("b", EM), Element("c", EM)})
        ok, msg = commutation_case(EMPTY_SIGNATURE, parse_type("b[]*,c[]?"),
                                   "b", 3, universe)
        assert ok, msg

    def test_mandatory_padding_handled(self):
        # filtering a[],b[] by a drops the mandatory b; the source side must
        # still produce the one-letter result word
        ok, msg = commutation_case(EMPTY_SIGNATURE, parse_type("a[],b[]"),
                                   "a", 3)
        assert ok, msg

    def test_recursive_signature(self):
        sig = fixture_signature(GenConfig())
        from fluxq.types import Var
        ok, msg = commutation_case(sig, Var("List"), "a", 2)
        assert ok, msg
