"""The property-suite harness itself: everything green at a small case
count, plus the shrinking machinery."""

import hashlib
import random
from itertools import cycle

import pytest

from fluxq import (
    BOOL, EMPTY, EMPTY_SIGNATURE, EvalError, GenConfig, Or, parse_type,
    parse_value, run_suites, subtype,
)
from fluxq import suites
from fluxq.suites import (
    REDRAW, SKIP, SuiteReport, commutation_case, fixture_signature,
    greedy_shrink, run_cases, shrink_type, shrink_type_pair,
    suite_evaluator_laws, tally,
)


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
    def test_skips_count_towards_n_and_redraws_do_not(self):
        outcomes = iter([SKIP, REDRAW, ["bad"], [], REDRAW, SKIP, [], []])
        res = run_cases(GenConfig(cases=5), "probe", lambda rng: next(outcomes))
        assert (res.cases, res.skipped, res.failures) == (3, 2, ["bad"])
        assert next(outcomes) == []


class TestTally:
    def test_counts_each_outcome_once(self):
        res = tally("probe", iter([[], SKIP, ["x", "y"], []]), ["whole"])
        assert tuple(res) == ("probe", 3, ["whole", "x", "y"], 1)
        assert not res.ok

    def test_uncounted_failures_come_first(self):
        res = run_cases(GenConfig(cases=2), "probe", lambda rng: ["drawn"],
                        uncounted=["declared"])
        assert (res.cases, res.failures) == (2, ["declared", "drawn", "drawn"])

    def test_results_cannot_be_reassigned(self):
        res = tally("probe", [[]])
        with pytest.raises(AttributeError):
            res.cases = 2
        assert res.failures == [] and res.ok

    def test_json_key_order(self):
        report = SuiteReport([tally("probe", [SKIP, ["bad"]])])
        assert report.to_json() == {"ok": False, "suites": [
            {"name": "probe", "cases": 1, "failures": ["bad"], "skipped": 1}]}
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
            suites.suite_test_subtype_semantic(cfg, sig),
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
        cfg = GenConfig(cases=5, seed=1)
        result = suites.suite_member_respects_subtyping(
            cfg, fixture_signature(cfg))
        assert result.cases == 5 and len(result.failures) == 5
        assert all(" is not a value of supertype " in f
                   for f in result.failures)

    def test_sees_a_wrong_yes_on_pairs_drawn_apart(self, monkeypatch):
        # with the real draws, a ``subtype`` that says "yes" to every pair
        # is refuted on pairs whose left type is drawn apart from the right
        monkeypatch.setattr(suites, "subtype", lambda sig, t1, t2: True)
        cfg = GenConfig(cases=10, seed=1)
        result = suites.suite_member_respects_subtyping(
            cfg, fixture_signature(cfg))
        assert result.cases == 10 and len(result.failures) >= 3
        assert all(" is not a value of supertype " in f
                   for f in result.failures)


class TestRaisingSuite:
    # ``fluxq oracle`` with a raising suite: tests/test_cli.py, TestOracle
    def test_the_failing_case_ends_its_suite(self):
        def outcomes():
            yield []
            yield SKIP
            raise ValueError("bad draw")

        res = tally("probe", outcomes(), ["whole"])
        assert tuple(res) == ("probe", 2, ["whole",
                                           "raised ValueError: bad draw"], 1)


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
    "update-synthesis-deterministic": (298, "95897d163f85a572"),
    "update-downward-monotone": (871, "122f52f0366514b5"),
    "iter-homomorphic": (556, "d5600308b25f22b6"),
    "update-soundness": (363, "8225f80a9945477e"),
    "evaluator-laws": (674, "e3e295d3e633c7fa"),
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
