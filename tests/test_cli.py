"""Command-line surface: subcommands, exit codes, and the JSON report
schema."""

import json
import sys
from pathlib import Path

from fluxq import Elem, Skip, queries, types, updates
from fluxq.cli import main

SAMPLES = Path(__file__).resolve().parent.parent / "samples"
LEAVES = str(SAMPLES / "leaves.muxq")
INSERT_AFTER = str(SAMPLES / "insert_after.flux")
LEAFUPD = str(SAMPLES / "leafupd.flux")


def count_calls(monkeypatch, home, name):
    """Replace ``home.name`` in every fluxq module that imported it with a
    wrapper; returns the list of each call's last argument."""
    original, calls = getattr(home, name), []

    def counting(*args):
        calls.append(args[-1])
        return original(*args)

    for module in list(sys.modules.values()):
        if (getattr(module, "__name__", "").startswith("fluxq")
                and getattr(module, name, None) is original):
            monkeypatch.setattr(module, name, counting)
    return calls


class TestCheck:
    def test_clean_program_exits_zero(self, capsys):
        assert main(["check", LEAVES]) == 0
        assert capsys.readouterr().out.strip() == "leaf[string]*"

    def test_failing_program_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.muxq"
        bad.write_text("query true : string\n")
        assert main(["check", str(bad)]) == 1
        assert "not a subtype" in capsys.readouterr().err

    def test_parse_error_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.muxq"
        bad.write_text("query (")
        assert main(["check", str(bad)]) == 2
        assert "offset 7" in capsys.readouterr().err

    def test_missing_file_exits_two(self, capsys):
        assert main(["check", "no/such/file.muxq"]) == 2

    def test_ambient_tree_binding(self, tmp_path, capsys):
        f = tmp_path / "q.muxq"
        f.write_text("query for $y in $x/child return $y : (b[]|c[])*\n")
        assert main(["check", str(f), "--tree", "x=a[b[]*,c[]?]"]) == 0
        assert capsys.readouterr().out.strip() == "b[]*,c[]?"

    def test_tree_binding_must_be_atomic(self, tmp_path, capsys):
        f = tmp_path / "q.muxq"
        f.write_text("query $x : a[]*\n")
        assert main(["check", str(f), "--tree", "x=a[]*"]) == 2
        assert "atomic" in capsys.readouterr().err

    def test_json_report_schema(self, tmp_path, capsys):
        f = tmp_path / "q.muxq"
        f.write_text("query a[] : b[]\n")
        assert main(["--json", "check", str(f)]) == 1
        report = json.loads(capsys.readouterr().out)
        assert set(report) == {"status", "type", "diagnostics"}
        assert report["status"] == "error"
        assert report["type"] is None
        entry = report["diagnostics"][0]
        assert set(entry) == {"severity", "message", "rule", "span"}
        assert entry["severity"] == "error"
        assert set(entry["span"]) == {"file", "begin", "end", "begin_line",
                                      "begin_col", "end_line", "end_col"}

    def test_json_diagnostic_span_positions(self, tmp_path, capsys):
        f = tmp_path / "q.muxq"
        f.write_text("type T = a[]\n\nquery\n  let $x = b[] in\n    $x : T\n")
        assert main(["--json", "check", str(f)]) == 1
        span = json.loads(capsys.readouterr().out)["diagnostics"][0]["span"]
        assert span == {"file": str(f), "begin": 22, "end": 44,
                        "begin_line": 4, "begin_col": 3,
                        "end_line": 5, "end_col": 5}

    def test_json_ok_report(self, capsys):
        assert main(["--json", "check", LEAVES]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report == {"status": "ok", "type": "leaf[string]*",
                          "diagnostics": []}

    def test_unguarded_signature_reported(self, tmp_path, capsys):
        f = tmp_path / "bad.muxq"
        f.write_text("type X = () | a[],X\nquery () : ()\n")
        assert main(["check", str(f)]) == 1
        assert "top-level variable X" in capsys.readouterr().err


    def test_shadowed_variable_named_as_written(self, tmp_path, capsys):
        f = tmp_path / "q.muxq"
        f.write_text("query for $x in a[] return let $x = $x in $x/child : ()\n")
        assert main(["--json", "check", str(f)]) == 1
        [diag] = json.loads(capsys.readouterr().out)["diagnostics"]
        assert diag["rule"] == "query/child-source"
        assert diag["message"].startswith("$x is a forest variable")

    def test_main_synthesized_once(self, tmp_path, capsys, monkeypatch):
        exprs = count_calls(monkeypatch, queries, "synth_expr")
        stmts = count_calls(monkeypatch, updates, "synth_stmt")
        q = tmp_path / "q.muxq"
        q.write_text("query a[] : a[]*\n")
        assert main(["check", str(q)]) == 0
        assert [type(e) for e in exprs].count(Elem) == 1
        u = tmp_path / "u.flux"
        u.write_text("update skip : a[] => a[]*\n")
        assert main(["check", str(u)]) == 0
        assert [type(s) for s in stmts].count(Skip) == 1
        assert capsys.readouterr().out.split() == ["a[]", "a[]"]

    def test_declared_variables_checked_once_per_annotation(
            self, capsys, monkeypatch):
        walks = count_calls(monkeypatch, types, "check_type_declared")
        for path, annotations in ((LEAVES, 3), (LEAFUPD, 5),
                                  (INSERT_AFTER, 2)):
            walks.clear()
            assert main(["check", path]) == 0
            assert len(walks) == annotations

    def test_undeclared_environment_type_unread_by_main(self, tmp_path,
                                                         capsys):
        f = tmp_path / "q.muxq"
        f.write_text("query () : ()\n")
        assert main(["--json", "check", str(f), "--var", "x=Missing"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert [d["rule"] for d in report["diagnostics"]] == [
            "signature/undeclared"]


class TestDuplicateDeclarations:
    """Of two declarations with one name the first wins: ``check`` reports
    the second, and ``type``, ``eval`` and ``run-update`` use the first."""

    def test_duplicate_function(self, tmp_path, capsys):
        f = tmp_path / "dup.muxq"
        f.write_text("declare function f() : a[] { a[] };\n"
                     "declare function f() : b[] { b[] };\n"
                     "query f() : a[]\n")
        assert main(["--json", "check", str(f)]) == 1
        rules = [d["rule"] for d in
                 json.loads(capsys.readouterr().out)["diagnostics"]]
        assert rules == ["program/duplicate-function"]
        assert main(["type", str(f)]) == 0
        assert capsys.readouterr().out.strip() == "a[]"
        assert main(["eval", str(f)]) == 0
        assert capsys.readouterr().out.strip() == "a[]"

    def test_duplicate_procedure(self, tmp_path, capsys):
        f = tmp_path / "dup.flux"
        f.write_text("declare procedure p() : () => a[] { insert a[] };\n"
                     "declare procedure p() : () => b[] { insert b[] };\n"
                     "update p() : () => a[]\n")
        assert main(["--json", "check", str(f)]) == 1
        rules = [d["rule"] for d in
                 json.loads(capsys.readouterr().out)["diagnostics"]]
        assert rules == ["program/duplicate-procedure"]
        assert main(["type", str(f)]) == 0
        assert capsys.readouterr().out.strip() == "a[]"
        assert main(["run-update", str(f), "--input", "()"]) == 0
        assert capsys.readouterr().out.strip() == "a[]"


class TestType:
    def test_prints_synthesized_update_type(self, capsys):
        assert main(["type", INSERT_AFTER]) == 0
        assert capsys.readouterr().out.strip() == "a[(b[],c[])*,c[]],d[]"

    def test_undeclared_environment_type_rejected(self, tmp_path, capsys):
        f = tmp_path / "q.muxq"
        f.write_text("query $x : ()\n")
        assert main(["type", str(f), "--var", "x=Missing"]) == 1
        out, err = capsys.readouterr()
        assert "Missing" not in out
        assert "signature/undeclared" in err

    def test_undeclared_annotation_rejected(self, tmp_path, capsys):
        f = tmp_path / "f.muxq"
        f.write_text("declare function f() : Missing { () };\n"
                     "query f() : ()\n")
        assert main(["type", str(f)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert "signature/undeclared" in err

    def test_function_body_is_not_checked(self, tmp_path, capsys):
        f = tmp_path / "f.muxq"
        f.write_text("declare function f() : a[] { b[] };\n"
                     "query f() : a[]\n")
        assert main(["type", str(f)]) == 0
        assert capsys.readouterr().out.strip() == "a[]"

    def test_main_ascription_is_not_checked(self, tmp_path, capsys):
        f = tmp_path / "q.muxq"
        f.write_text("query a[] : b[]\n")
        assert main(["type", str(f)]) == 0
        assert capsys.readouterr().out.strip() == "a[]"


class TestSubtype:
    def test_true_inclusion_exits_zero(self, capsys):
        assert main(["subtype", "b[]*,c[]?", "(b[]|c[])*"]) == 0
        assert capsys.readouterr().out.strip() == "subtype"

    def test_false_inclusion_exits_one(self, capsys):
        assert main(["subtype", "a[],a[]", "a[]"]) == 1
        assert capsys.readouterr().out.strip() == "not a subtype"

    def test_signature_file(self, tmp_path, capsys):
        sig = tmp_path / "tree.sig"
        sig.write_text("type Tree = tree[leaf[string] | node[Tree*]]\n")
        assert main(["subtype", "tree[leaf[string]|node[Tree*]]", "Tree",
                     "--sig", str(sig)]) == 0

    def test_json_output(self, capsys):
        assert main(["--json", "subtype", "()", "a[]*"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out == {"left": "()", "right": "a[]*", "subtype": True}

    def test_bad_type_text_exits_two(self, capsys):
        assert main(["subtype", "a[", "b[]"]) == 2

    def test_undeclared_variable_exits_one(self, capsys):
        assert main(["subtype", "X", "X"]) == 1
        assert "undeclared type variable 'X'" in capsys.readouterr().err


class TestEval:
    def test_closed_program(self, capsys):
        assert main(["eval", LEAVES]) == 0
        assert capsys.readouterr().out.strip() == 'leaf["u"],leaf["v"]'

    def test_env_bindings(self, tmp_path, capsys):
        f = tmp_path / "q.muxq"
        f.write_text("query for $y in $x return ($y, $y) : a[]*\n")
        assert main(["eval", str(f), "--env", "x=a[],b[]"]) == 0
        assert capsys.readouterr().out.strip() == "a[],a[],b[],b[]"

    def test_unbound_variable_exits_one(self, tmp_path, capsys):
        f = tmp_path / "q.muxq"
        f.write_text("query $x : ()\n")
        assert main(["eval", str(f)]) == 1

    def test_update_file_rejected(self, capsys):
        assert main(["eval", INSERT_AFTER]) == 2


class TestRunUpdate:
    def test_applies_main_update(self, capsys):
        assert main(["run-update", INSERT_AFTER, "--input",
                     "a[b[],b[],c[]],d[]"]) == 0
        assert capsys.readouterr().out.strip() == "a[b[],c[],b[],c[],c[]],d[]"

    def test_recursive_procedure(self, capsys):
        assert main(["run-update", LEAFUPD, "--input",
                     'tree[leaf["old"]]']) == 0
        assert capsys.readouterr().out.strip() == 'tree[leaf["pruned"]]'

    def test_focus_shape_violation_exits_one(self, tmp_path, capsys):
        f = tmp_path / "u.flux"
        f.write_text("update rename n : a[],a[] => a[],a[]\n")
        assert main(["run-update", str(f), "--input", "a[],a[]"]) == 1

    def test_input_outside_declared_type_exits_one(self, capsys):
        assert main(["run-update", INSERT_AFTER, "--input", "b[]"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        [line] = err.splitlines()
        assert line.startswith("error:")
        assert "a[b[]*,c[]],d[]" in line

    def test_unguarded_signature_rejected_before_input_check(self, tmp_path,
                                                             capsys):
        f = tmp_path / "u.flux"
        f.write_text("type X = () | a[],X\nupdate skip : X => X\n")
        assert main(["run-update", str(f), "--input", "()"]) == 1
        assert "top-level variable X" in capsys.readouterr().err


class TestOracle:
    def test_small_run_exits_zero(self, capsys):
        assert main(["oracle", "--cases", "5"]) == 0
        out = capsys.readouterr().out
        assert "OK" in out
        assert "subtype-agrees-with-oracle" in out

    def test_with_program_file(self, capsys):
        assert main(["oracle", LEAFUPD, "--cases", "3"]) == 0

    def test_deep_type_has_an_inhabitant(self, tmp_path, capsys):
        f = tmp_path / "deep.muxq"
        f.write_text("type A = a[b[c[d[e[]]]]]\nquery () : A*\n")
        assert main(["oracle", str(f), "--cases", "30"]) == 0

    def test_vacuous_recursion_has_no_inhabitant(self, tmp_path, capsys):
        f = tmp_path / "vacuous.muxq"
        f.write_text("type X = cons[X]\nquery () : X*\n")
        assert main(["--json", "oracle", str(f), "--cases", "100"]) == 1
        report = json.loads(capsys.readouterr().out)
        failed = {s["name"]: s["failures"] for s in report["suites"]
                  if s["failures"]}
        assert set(failed) == {"types-inhabited-at-small-bounds"}
        assert set(failed["types-inhabited-at-small-bounds"]) == {
            "no inhabitant found for X"}

    def test_vacuous_recursion_is_found_at_one_case(self, tmp_path, capsys):
        # each declared variable is checked, whatever the one draw reaches
        f = tmp_path / "vacuous.muxq"
        f.write_text("type X = cons[X]\nquery () : X*\n")
        assert main(["--json", "oracle", str(f), "--cases", "1"]) == 1
        report = json.loads(capsys.readouterr().out)
        failed = {s["name"]: s["failures"] for s in report["suites"]
                  if s["failures"]}
        assert failed == {"types-inhabited-at-small-bounds": [
            "no inhabitant found for X"]}

    def test_json_report(self, capsys):
        assert main(["--json", "oracle", "--cases", "3"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is True
        assert {"name", "cases", "failures", "skipped"} <= set(
            report["suites"][0])
        # each suite's random stream is seeded from its name
        assert [s["name"] for s in report["suites"]] == [
            "member-respects-subtyping", "values-have-atomic-witnesses",
            "words-monotone-in-bounds", "atoms-compatible-under-subtyping",
            "member-terminates-on-recursive-signatures",
            "types-inhabited-at-small-bounds", "subtype-agrees-with-oracle",
            "subtype-reflexive", "subtype-transitive",
            "language-inclusion-matches-subtype", "test-subtype-semantic",
            "query-synthesis-deterministic", "query-downward-monotone",
            "for-iteration-homomorphic", "filter-total", "query-soundness",
            "update-synthesis-deterministic", "update-downward-monotone",
            "iter-homomorphic", "update-soundness", "evaluator-laws",
            "filter-commutes-with-language", "generator-self-checks",
        ]


class TestDeepInput:
    """Values of any depth are parsed, checked and printed; types nested
    past Python's recursion limit are rejected with a limit/depth
    diagnostic and exit 2, never a traceback; long ``;`` sequences are
    processed."""

    @staticmethod
    def assert_depth_error(capsys):
        err = capsys.readouterr().err
        assert "(limit/depth)" in err
        assert "Traceback" not in err

    def test_check_long_statement_sequence(self, tmp_path, capsys):
        f = tmp_path / "long.flux"
        f.write_text("update " + "; ".join(["skip"] * 1200) + " : a[] => a[]\n")
        for argv in (["check", str(f)], ["type", str(f)],
                     ["run-update", str(f), "--input", "a[]"]):
            assert main(argv) == 0
            assert capsys.readouterr().out.strip() == "a[]"

    def test_subtype_deep_type(self, capsys):
        deep = "a[" * 400 + "]" * 400
        assert main(["subtype", deep, deep]) == 2
        self.assert_depth_error(capsys)

    def test_run_update_deep_value(self, tmp_path, capsys):
        f = tmp_path / "rec.flux"
        f.write_text("type A = a[A*]\nupdate skip : A => A\n")
        for depth in (400, 100_000):
            deep = "a[" * depth + "]" * depth
            assert main(["run-update", str(f), "--input", deep]) == 0
            assert capsys.readouterr().out == deep + "\n"
            wrong = "a[" * (depth - 1) + "b[]" + "]" * (depth - 1)
            assert main(["run-update", str(f), "--input", wrong]) == 1
            err = capsys.readouterr().err
            assert "not a value of the declared input type" in err


class TestUsage:
    def test_no_command_exits_two(self, capsys):
        assert main([]) == 2

    def test_unknown_command_exits_two(self, capsys):
        assert main(["frobnicate"]) == 2
