"""Command-line surface: subcommands, exit codes, and the JSON report
schema."""

import contextlib
import io
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from fluxq import (
    Elem, Skip, parse_program, printer, queries, suites, types, updates,
)
from fluxq.cli import build_parser, main
from fluxq.diagnostics import SourceText

SAMPLES = Path(__file__).resolve().parent.parent / "samples"
SRC = Path(__file__).resolve().parent.parent / "src"
LEAVES = str(SAMPLES / "leaves.muxq")
INSERT_AFTER = str(SAMPLES / "insert_after.flux")
LEAFUPD = str(SAMPLES / "leafupd.flux")
# every syntax-tree node: structural ones, and the interned types
NODES = (types.Struct, types.Type)
# an input of each update sample's declared type
INPUTS = {"insert_after.flux": "a[b[],b[],c[]],d[]",
          "leafupd.flux": 'tree[node[tree[leaf["a"]],tree[leaf["b"]]]]'}


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

    def test_byte_order_mark_is_skipped(self, tmp_path, capsys):
        f = tmp_path / "bom.muxq"
        f.write_bytes(b"\xef\xbb\xbf" + Path(LEAVES).read_bytes())
        assert main(["check", str(f)]) == 0
        assert capsys.readouterr() == ("leaf[string]*\n", "")
        # one mark is read as one; a second is text
        f.write_bytes(b"\xef\xbb\xbf" + f.read_bytes())
        assert main(["check", str(f)]) == 2
        assert capsys.readouterr().err == (
            "parse error: unexpected character '\\ufeff' at offset 0 "
            "(line 1, column 1)\n")

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
        bad.write_text("query ( : ()\n")
        assert main(["check", str(bad)]) == 2

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
        assert list(report) == ["status", "type", "diagnostics"]
        assert report["status"] == "error"
        assert report["type"] is None
        entry = report["diagnostics"][0]
        assert list(entry) == ["severity", "message", "rule", "span"]
        assert entry["severity"] == "error"
        assert list(entry["span"]) == ["file", "begin", "end", "begin_line",
                                       "begin_col", "end_line", "end_col"]

    def test_json_diagnostic_span_positions(self, tmp_path, capsys):
        f = tmp_path / "q.muxq"
        f.write_text("type T = a[]\n\nquery\n  let $x = b[] in\n    $x : T\n")
        assert main(["--json", "check", str(f)]) == 1
        span = json.loads(capsys.readouterr().out)["diagnostics"][0]["span"]
        assert span == {"file": str(f), "begin": 22, "end": 44,
                        "begin_line": 4, "begin_col": 3,
                        "end_line": 5, "end_col": 7}

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

    @pytest.mark.parametrize("sig, diags", [
        ("type A = a[Y], b[Z] | c[Y]+, Y",
         [("undeclared", "Y", 29, 30), ("undeclared", "Y", 24, 25),
          ("undeclared", "Z", 17, 18), ("undeclared", "Y", 11, 12),
          ("guardedness", "Y", 29, 30)]),
        ("type X = Y | Y\ntype Y = a[]",
         [("guardedness", "Y", 13, 14), ("guardedness", "Y", 9, 10)]),
        ("type X = (Y, Z)+\ntype Y = a[]\ntype Z = b[]",
         [("guardedness", "Z", 13, 14), ("guardedness", "Y", 10, 11),
          ("guardedness", "Z", 13, 14), ("guardedness", "Y", 10, 11)]),
        ("type A = a[Q]?, b[Q]",
         [("undeclared", "Q", 18, 19), ("undeclared", "Q", 11, 12)]),
    ], ids=["undeclared-and-plus", "twice", "plus-repeats", "optional"])
    def test_signature_diagnostics_at_written_uses(self, tmp_path, capsys,
                                                   sig, diags):
        # types are interned and carry no span, so each diagnostic's span
        # is that of the use as the parser recorded it: per definition,
        # undeclared uses and then top-level ones, in reverse written order
        f = tmp_path / "sig.muxq"
        f.write_text(sig + "\nquery () : ()\n")
        for command in ("check", "type"):
            assert main(["--json", command, str(f)]) == 1
            report = json.loads(capsys.readouterr().out)
            assert [(d["rule"].split("/")[1], d["message"].split()[2],
                     d["span"]["begin"], d["span"]["end"])
                    for d in report["diagnostics"]] == diags

    def test_uninhabited_signature_reported(self, tmp_path, capsys):
        f = tmp_path / "vacuous.muxq"
        f.write_text("type L = nil[] | cons[L]\ntype X = cons[X]\n"
                     "query () : X\n")
        assert main(["--json", "check", str(f)]) == 1
        [diag] = json.loads(capsys.readouterr().out)["diagnostics"]
        assert diag["rule"] == "signature/uninhabited"
        assert diag["message"].startswith("type variable X has no value")
        assert (diag["span"]["begin"], diag["span"]["end"]) == (25, 41)
        assert main(["check", str(f)]) == 1
        assert capsys.readouterr().err.endswith("[signature/uninhabited]\n")


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


class TestSeveralParameters:
    """Functions and procedures of two and three parameters, written as
    text: a ``,`` before a ``$`` variable ends a parameter's type, and
    every command reads, checks and runs them."""

    PICK = ("declare function f($x : a[]|b[], $y : c[], d[]?, "
               "$z : e[]*) : (a[]|b[]), e[]* { $x, $z };\n")
    QUERIES = {
        "two": ("declare function swap($x : a[], $y : b[]*) : b[]*, a[] "
                "{ $y, $x };\nquery swap(a[], (b[], b[])) : b[]*, a[]\n",
                "b[]*,a[]", "b[],b[],a[]"),
        "three": (PICK + "query f(a[], (c[], d[]), (e[], e[])) "
                  ": (a[]|b[]), e[]*\n", "(a[]|b[]),e[]*", "a[],e[],e[]"),
    }
    UPDATES = {
        "two": ("declare procedure put($x : a[], $y : b[]) : () => b[], a[] "
                "{ insert ($y, $x) };\n"
                "update put(a[], b[]) : () => b[], a[]\n", "b[],a[]",
                "b[],a[]"),
        "three": (PICK + "declare procedure wrap($x : a[], $y : b[]?, "
                  "$z : e[]*) : () => w[(a[]|b[]), e[]*, b[]?] "
                  "{ insert w[f($x, c[], $z), $y] };\n"
                  "update wrap(a[], (), (e[], e[])) "
                  ": () => w[(a[]|b[]), e[]*, b[]?]\n",
                  "w[(a[]|b[]),e[]*,b[]?]", "w[a[],e[],e[]]"),
    }

    @pytest.mark.parametrize("name", sorted(QUERIES))
    def test_query_programs(self, name, tmp_path, capsys):
        text, typed, value = self.QUERIES[name]
        f = tmp_path / "q.muxq"
        f.write_text(text)
        for command, out in (("check", typed), ("type", typed),
                             ("eval", value)):
            assert main([command, str(f)]) == 0, command
            assert capsys.readouterr() == (out + "\n", ""), command

    @pytest.mark.parametrize("name", sorted(UPDATES))
    def test_update_programs(self, name, tmp_path, capsys):
        text, typed, value = self.UPDATES[name]
        f = tmp_path / "u.flux"
        f.write_text(text)
        for argv, out in ((["check"], typed), (["type"], typed),
                          (["run-update", "--input", "()"], value)):
            assert main([argv[0], str(f), *argv[1:]]) == 0, argv
            assert capsys.readouterr() == (out + "\n", ""), argv

    def test_three_parameters_parse_back_from_printed_text(self):
        prog, sig = parse_program(self.QUERIES["three"][0])
        assert [p for p, _ in prog.functions[0].params] == ["x", "y", "z"]
        assert parse_program(printer.program_str(prog, sig)) == (prog, sig)


class TestType:
    def test_prints_synthesized_update_type(self, capsys):
        assert main(["type", INSERT_AFTER]) == 0
        assert capsys.readouterr().out.strip() == "a[(b[],c[])*,c[]],d[]"

    @pytest.mark.parametrize("args, printed", [
        ([LEAVES], "leaf[string]*"), ([INSERT_AFTER], "a[(b[],c[])*,c[]],d[]"),
        ([LEAFUPD], "Tree*"),
        ([str(SAMPLES / "children.muxq"), "--tree", "x=a[b[]*,c[]?]"],
         "b[]*,c[]?"),
    ], ids=["leaves", "insert_after", "leafupd", "children"])
    def test_samples_check_and_type(self, args, printed, capsys):
        for command in ("check", "type"):
            assert main([command, *args]) == 0
            assert capsys.readouterr().out == printed + "\n"

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

    def test_recursive_signature_file(self, tmp_path, capsys):
        # X and Y name one language; a[b[]],b[] is two trees of X
        sig = tmp_path / "rec.sig"
        sig.write_text("type X = a[X*] | b[]\ntype Y = a[Y*] | b[]\n")
        for left, right, code in (("X", "Y", 0), ("Y", "X", 0),
                                  ("a[b[]],b[]", "X*", 0), ("X", "b[]", 1)):
            assert main(["subtype", "--sig", str(sig), left, right]) == code
            assert capsys.readouterr().out == (
                "subtype\n" if code == 0 else "not a subtype\n")

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

    def test_long_comma_list(self, tmp_path, capsys):
        # a ``,`` list runs as a loop, however long
        items = ["a[]"] * 10_000
        f = tmp_path / "long.muxq"
        f.write_text("query " + ", ".join(items) + " : a[]*\n")
        assert main(["eval", str(f)]) == 0
        assert capsys.readouterr().out == ",".join(items) + "\n"

    def test_label_filter_drops_atoms_and_other_labels(self, tmp_path,
                                                       capsys):
        f = tmp_path / "label.muxq"
        f.write_text("query $x::a : a[]*\n")
        assert main(["check", str(f), "--var", "x=(a[]|bool|string)*"]) == 0
        assert capsys.readouterr().out == "(a[]|()?)*\n"
        assert main(["eval", str(f), "--env", 'x=a[],true,"s",b[],a[]']) == 0
        assert capsys.readouterr().out == "a[],a[]\n"

    def test_update_file_rejected(self, capsys):
        assert main(["eval", INSERT_AFTER]) == 2
        assert capsys.readouterr().err == "eval expects a query program\n"

    def test_unguarded_signature_rejected(self, tmp_path, capsys):
        f = tmp_path / "q.muxq"
        f.write_text("type X = () | a[],X\nquery () : ()\n")
        assert main(["eval", str(f)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.endswith("[signature/guardedness]\n")
        assert main(["--json", "eval", str(f)]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["status"] == "error"
        assert [d["rule"] for d in report["diagnostics"]] == [
            "signature/guardedness"]


class TestRunUpdate:
    def test_applies_main_update(self, capsys):
        assert main(["run-update", INSERT_AFTER, "--input",
                     "a[b[],b[],c[]],d[]"]) == 0
        assert capsys.readouterr().out.strip() == "a[b[],c[],b[],c[],c[]],d[]"

    def test_recursive_procedure(self, capsys):
        assert main(["run-update", LEAFUPD, "--input",
                     'tree[leaf["old"]]']) == 0
        assert capsys.readouterr().out.strip() == 'tree[leaf["pruned"]]'
        assert main(["run-update", LEAFUPD, "--input",
                     INPUTS["leafupd.flux"]]) == 0
        assert capsys.readouterr().out == (
            'tree[node[tree[leaf["pruned"]],tree[leaf["pruned"]]]]\n')

    def test_recursive_procedure_on_a_wide_document(self, capsys):
        def document(word):
            return "tree[node[" + ",".join(
                f'tree[leaf["{word.format(i % 7)}"]]'
                for i in range(1066)) + "]]"

        assert main(["run-update", LEAFUPD, "--input", document("w{}")]) == 0
        assert capsys.readouterr().out == document("pruned") + "\n"
        # ``true`` is an atom, not a label
        assert main(["run-update", LEAFUPD, "--input",
                     'tree[true["x"]]']) == 2

    def test_atom_and_label_tests(self, tmp_path, capsys):
        f = tmp_path / "tests.flux"
        f.write_text("update iter[*?rename b]; iter[bool?delete]; "
                     "iter[string?delete] : (a[] | bool | string)* => b[]*\n")
        assert main(["check", str(f)]) == 0
        assert capsys.readouterr().out == "(b[]|()?)*\n"
        assert main(["run-update", str(f), "--input", 'a[],true,"s",a[]']) == 0
        assert capsys.readouterr().out == "b[],b[]\n"

    def test_every_navigation_keyword(self, tmp_path, capsys):
        f = tmp_path / "nav.flux"
        f.write_text("update iter[a?children[insert d[]]; b?rename c]; "
                     "left[insert s[]]; right[insert e[]] : (a[] | b[])* "
                     "=> s[], (a[d[]] | c[])*, e[]\n")
        assert main(["check", str(f)]) == 0
        assert capsys.readouterr().out == "(s[],(a[d[]]|c[])*),e[]\n"
        assert main(["run-update", str(f), "--input", "a[],b[],a[]"]) == 0
        assert capsys.readouterr().out == "s[],a[d[]],c[],a[d[]],e[]\n"

    def test_query_file_rejected(self, capsys):
        assert main(["run-update", LEAVES, "--input", "()"]) == 2
        assert capsys.readouterr().err == (
            "run-update expects an update program\n")

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


class TestRunUpdateInputFile:
    """``--input @FILE`` reads the value from FILE as ``_read`` reads a
    program, and ``--input -`` from standard input: a forest too long for
    one command-line argument (capped at 128 KiB) still runs."""

    N = 20_000

    def forest(self, word):
        return ",".join(f'tree[leaf["{word.format(i)}"]]'
                        for i in range(self.N))

    def test_input_from_a_file(self, tmp_path, capsys):
        f = tmp_path / "input.txt"
        f.write_text(self.forest("w{}") + "\n")
        assert len(f.read_bytes()) > 128 * 1024
        assert main(["run-update", LEAFUPD, "--input", f"@{f}"]) == 0
        assert capsys.readouterr() == (self.forest("pruned") + "\n", "")

    def test_input_file_with_a_byte_order_mark(self, tmp_path, capsys):
        f = tmp_path / "input.txt"
        f.write_text(INPUTS["leafupd.flux"] + "\n")
        assert main(["run-update", LEAFUPD, "--input", f"@{f}"]) == 0
        plain = capsys.readouterr()
        f.write_bytes(b"\xef\xbb\xbf" + f.read_bytes())
        assert main(["run-update", LEAFUPD, "--input", f"@{f}"]) == 0
        assert capsys.readouterr() == plain

    def run_on_stdin(self, **stdin):
        return subprocess.run(
            [sys.executable, "-m", "fluxq.cli", "run-update", LEAFUPD,
             "--input", "-"], capture_output=True, timeout=60,
            env={**os.environ, "PYTHONPATH": str(SRC)}, **stdin)

    def test_input_from_stdin(self):
        run = self.run_on_stdin(input=self.forest("w{}").encode())
        assert (run.returncode, run.stderr) == (0, b"")
        assert run.stdout == (self.forest("pruned") + "\n").encode()

    def test_missing_file_exits_two_with_one_line(self, tmp_path, capsys):
        missing = tmp_path / "missing.txt"
        assert main(["run-update", LEAFUPD, "--input", f"@{missing}"]) == 2
        assert capsys.readouterr() == (
            "", f"error: [Errno 2] No such file or directory: '{missing}'\n")

    @pytest.mark.parametrize("stdin, line", [
        ({"input": b'tree[leaf["\xff"]]'},
         b"error: <stdin>: 'utf-8' codec can't decode byte 0xff in position "
         b"11: invalid start byte\n"),
        ({"preexec_fn": lambda: os.close(0)},
         b"error: [Errno 9] Bad file descriptor\n")], ids=("latin", "closed"))
    def test_unreadable_stdin_exits_two_with_one_line(self, stdin, line):
        run = self.run_on_stdin(**stdin)
        assert (run.returncode, run.stdout, run.stderr) == (2, b"", line)


class TestOracle:
    def test_small_run_exits_zero(self, capsys):
        assert main(["oracle", "--cases", "5"]) == 0
        out = capsys.readouterr().out
        assert "OK" in out
        assert "subtype-agrees-with-oracle" in out

    def test_with_program_file(self, capsys):
        assert main(["oracle", LEAFUPD, "--cases", "3"]) == 0

    def test_default_case_count_exits_zero(self, capsys):
        assert main(["oracle", "--cases", "100"]) == 0
        assert main(["oracle", LEAVES, "--cases", "50"]) == 0

    def test_deep_type_has_an_inhabitant(self, tmp_path, capsys):
        f = tmp_path / "deep.muxq"
        f.write_text("type A = a[b[c[d[e[]]]]]\nquery () : A*\n")
        for cases in ("20", "30"):
            assert main(["oracle", str(f), "--cases", cases]) == 0

    def test_vacuous_recursion_has_no_inhabitant(self, tmp_path, capsys):
        # the signature is checked at the boundary, as ``check`` checks it,
        # and no suite runs
        f = tmp_path / "vacuous.muxq"
        f.write_text("type X = cons[X]\nquery () : X*\n")
        assert main(["--json", "oracle", str(f), "--cases", "100"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert (report["status"], report["type"]) == ("error", None)
        assert [(d["rule"], d["message"]) for d in report["diagnostics"]] == [
            ("signature/uninhabited", "type variable X has no value: its "
             "definition admits only infinite trees")]
        assert main(["--json", "check", str(f)]) == 1
        assert json.loads(capsys.readouterr().out) == report

    def test_raising_suite_is_reported(self, monkeypatch, capsys):
        # a suite whose case raises is one failure, and the other suites
        # still report, instead of a traceback and no report
        def broken(sig, t1, t2):
            raise KeyError("no such goal")

        monkeypatch.setattr(suites, "refute", broken)
        assert main(["--json", "oracle", "--cases", "2"]) == 1
        out, err = capsys.readouterr()
        assert err == ""
        report = json.loads(out)
        assert len(report["suites"]) == 19
        assert {s["name"]: s["failures"] for s in report["suites"]
                if s["failures"]} == {"subtype-agrees-with-oracle": [
                    "raised KeyError: 'no such goal'"]}

    def test_raising_set_up_is_reported(self, monkeypatch, capsys):
        # a suite that raises before its cases are drawn reports the
        # exception as its one failure, under its own name
        def broken(sig):
            raise RuntimeError("no witness")

        monkeypatch.setattr(suites, "inhabitants", broken)
        assert main(["--json", "oracle", "--cases", "2"]) == 1
        out, err = capsys.readouterr()
        assert err == ""
        report = json.loads(out)
        assert [s["name"] for s in report["suites"]] == list(suites.ALL_SUITES)
        assert [s for s in report["suites"] if s["failures"]] == [{
            "name": "types-inhabited-at-small-bounds", "cases": 0,
            "failures": ["raised RuntimeError: no witness"], "skipped": 0}]

    def test_vacuous_recursion_is_found_at_one_case(self, tmp_path, capsys):
        # each declared variable is checked, whatever the one draw reaches
        f = tmp_path / "vacuous.muxq"
        f.write_text("type A = a[]\ntype X = cons[X]\nquery () : A*\n")
        assert main(["oracle", str(f), "--cases", "1"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.endswith("type variable X has no value: its definition "
                            "admits only infinite trees "
                            "[signature/uninhabited]\n")

    def test_many_declarations_stay_bounded(self, tmp_path, capsys):
        # 50 declarations and 51 labels: the small scope stops at its cap
        # of 1,000 types; the run takes about 1 s with Python 3.11 on two
        # vCPUs, where the 8.2 million cases of the uncapped scope take 18 s
        decls = ["type T0 = t0[]"] + [f"type T{i} = t{i}[T{i - 1}] | b[]"
                                      for i in range(1, 50)]
        f = tmp_path / "many.muxq"
        f.write_text("\n".join(decls) + "\nquery () : T49*\n")
        start = time.perf_counter()
        assert main(["--json", "oracle", str(f), "--cases", "100"]) == 0
        assert time.perf_counter() - start < 10
        cases = {s["name"]: s["cases"] for s in
                 json.loads(capsys.readouterr().out)["suites"]}
        assert (cases["types-inhabited-at-small-bounds"],
                cases["subtype-reflexive"],
                cases["member-respects-subtyping"]) == (1100, 2000, 1061)

    def test_json_report(self, capsys):
        assert main(["--json", "oracle", "--cases", "3"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is True
        assert list(report["suites"][0]) == [
            "name", "cases", "failures", "skipped"]
        # the exhaustive suite counts its pairs, not the case count
        assert {s["name"]: s["cases"] for s in report["suites"]}[
            "subtype-agrees-with-oracle"] == 3602
        # each suite's random stream is seeded from its name
        assert [s["name"] for s in report["suites"]] == [
            "member-respects-subtyping", "atoms-compatible-under-subtyping",
            "member-terminates-on-recursive-signatures",
            "types-inhabited-at-small-bounds", "subtype-agrees-with-oracle",
            "subtype-reflexive", "subtype-transitive", "test-subtype-semantic",
            "query-synthesis-deterministic", "query-downward-monotone",
            "for-iteration-homomorphic", "filter-total", "query-soundness",
            "update-synthesis-deterministic", "update-downward-monotone",
            "iter-homomorphic", "update-soundness", "evaluator-laws",
            "filter-commutes-with-language",
        ]


class TestDeepInput:
    """Values of any depth are parsed, checked and printed; types nested
    past Python's recursion limit are rejected with a limit/depth
    diagnostic and exit 2, never a traceback; long ``,`` and ``;`` lists
    are processed."""

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

    def test_check_long_sequence_against_star(self, tmp_path, capsys):
        # the proof of a[], ..., a[] <: a[]* opens one goal per item; the
        # goals wait on subtyping's own stack, not on Python's
        f = tmp_path / "flat.muxq"
        f.write_text("query " + ", ".join(["a[]"] * 450) + " : a[]*\n")
        assert main(["check", str(f)]) == 0
        assert capsys.readouterr().out.strip() == ",".join(["a[]"] * 450)

    def test_long_proof_paths(self, tmp_path, capsys):
        # family (c): the proof path holds 1,033 goals at n = 10 and 2,058
        # at n = 11
        def family(n, alts):
            return ", ".join([f"({alts})*", "a[]"] + [f"({alts})"] * (n - 1))

        assert main(["subtype", family(10, "a[]|b[]"),
                     family(10, "b[]|a[]")]) == 0
        f = tmp_path / "family.muxq"
        f.write_text(f"query $x : {family(11, 'b[]|a[]')}\n")
        assert main(["check", str(f), "--var",
                     f"x={family(11, 'a[]|b[]')}"]) == 0

    def test_long_union_filters_and_iterates(self, tmp_path, capsys):
        # label filtering and ``for`` map a 3,000-alternative union: the
        # ``|`` spine is walked in a loop, not once per alternative
        alts = " | ".join(f"a{i}[]" for i in range(3000))
        label, loop = tmp_path / "label.muxq", tmp_path / "for.muxq"
        label.write_text("query $x::a : a[]*\n")
        loop.write_text(f"query for $y in $x return $y : ({alts})*\n")
        for f in (label, loop):
            assert main(["check", str(f), "--var", f"x=({alts})*"]) == 0
            out, err = capsys.readouterr()
            assert "Traceback" not in err
        assert out.startswith("(a0[]|a1[]|")

    def test_very_long_sequence_ends_cleanly(self, tmp_path, capsys):
        f = tmp_path / "flat.muxq"
        f.write_text("query " + ", ".join(["a[]"] * 2000) + " : a[]*\n")
        assert main(["check", str(f)]) == 0
        assert "Traceback" not in capsys.readouterr().err

    def test_20000_item_lists_check(self, tmp_path, capsys):
        # a ``,`` or ``;`` list is one node, whose items are read in a loop
        query, update = tmp_path / "flat.muxq", tmp_path / "flat.flux"
        query.write_text("query " + ", ".join(["a[]"] * 20_000) + " : a[]*\n")
        update.write_text(
            "update " + "; ".join(["skip"] * 20_000) + " : a[] => a[]\n")
        for command in ("check", "type"):
            assert main([command, str(query)]) == 0
            out, err = capsys.readouterr()
            assert out.strip() == ",".join(["a[]"] * 20_000) and err == ""
        assert main(["check", str(update)]) == 0
        assert capsys.readouterr().out.strip() == "a[]"

    def test_subtype_long_flat_type(self, capsys):
        # a type is one interned node, hashed by identity: nothing walks
        # down its 10,000-item ``,`` spine recursively
        flat = ", ".join(["a[]"] * 10_000)
        assert main(["subtype", flat, "a[]*"]) == 0
        assert capsys.readouterr().out == "subtype\n"
        assert main(["subtype", "a[]*", flat]) == 1
        assert capsys.readouterr().out == "not a subtype\n"
        # and ``type_str`` prints the spine in a loop
        assert main(["--json", "subtype", flat, "a[]*"]) == 0
        assert json.loads(capsys.readouterr().out) == {
            "left": flat.replace(" ", ""), "right": "a[]*", "subtype": True}

    def test_subtype_long_union(self, capsys):
        # nullability and linear forms walk a ``|`` spine in a loop
        alts = " | ".join(f"a{i}[]" for i in range(10_000))
        assert main(["subtype", alts, "a0[]"]) == 1
        assert capsys.readouterr().out == "not a subtype\n"
        for right in (alts, f"({alts})*"):
            assert main(["subtype", alts, right]) == 0
            assert capsys.readouterr().out == "subtype\n"
        assert main(["--json", "subtype", alts, "a0[]"]) == 1
        out, err = capsys.readouterr()
        assert json.loads(out) == {
            "left": alts.replace(" ", ""), "right": "a0[]", "subtype": False}
        assert err == ""

    def test_subtype_deep_type(self, capsys):
        # past the parser's limit of about 494 levels (see below)
        deep = "a[" * 1000 + "]" * 1000
        assert main(["subtype", deep, deep]) == 2
        self.assert_depth_error(capsys)

    @staticmethod
    def fresh_cli(*argv):
        run = subprocess.run(
            [sys.executable, "-m", "fluxq.cli", *argv], capture_output=True,
            text=True, timeout=60, env={**os.environ, "PYTHONPATH": str(SRC)})
        return run.returncode, run.stdout, run.stderr

    def test_type_nesting_depth(self):
        # a fresh process under the default recursion limit reads a type
        # 494 elements deep and fails at 495 (CPython 3.11.7): a level costs
        # two frames, ``parse_type`` and ``parse_type_primary``
        def deep(depth):
            return "a[" * depth + "]" * depth
        assert self.fresh_cli("subtype", deep(490), deep(490)) == (
            0, "subtype\n", "")
        code, out, err = self.fresh_cli("subtype", deep(500), deep(500))
        assert (code, out) == (2, "") and "(limit/depth)" in err

    DEPTH_FORMS = {
        "parentheses": lambda n: (
            "query " + "a[], (" * n + "a[]" + ")" * n + " : a[]*"),
        "element": lambda n: (
            "query " + "a[" * n + "]" * n + " : " + "a[" * n + "]" * n),
        "group": lambda n: (
            "update " + "skip; (" * n + "skip" + ")" * n + " : a[] => a[]"),
        "left": lambda n: (
            "update " + "left[" * n + "skip" + "]" * n + " : a[] => a[]"),
        "let": lambda n: "query " + "let $x = a[] in " * n + "$x : a[]",
        "if": lambda n: "query " + "if true then a[] else " * n + "a[] : a[]",
        "for": lambda n: "query " + "for $x in a[] return " * n + "$x : a[]",
        "iter": lambda n: (
            "type A = a[A*]\nupdate " + "iter[children[" * n + "skip"
            + "]]" * n + " : A* => A*"),
    }

    @pytest.mark.parametrize("form, passes, fails", [
        *((form, 480, 500) for form in (
            "parentheses", "element", "group", "left", "let", "if")),
        ("for", 190, 210),
        ("iter", 115, 130),
    ])
    def test_program_text_depth(self, tmp_path, form, passes, fails):
        # a fresh process under the default recursion limit (CPython
        # 3.11.7) checks program text 493 levels deep and fails at 494: a
        # level costs the parser two frames, as a type level does.  The
        # checker types ``for`` and ``iter`` by ``map_atoms``, at five
        # frames or more a level, so a ``for`` chain fails from 198 levels
        # and ``iter[children[…]]`` over ``A`` from 124
        f = tmp_path / ("nested.flux" if form in ("group", "left", "iter")
                        else "nested.muxq")
        for depth, expected in ((passes, 0), (fails, 2)):
            f.write_text(self.DEPTH_FORMS[form](depth) + "\n")
            code, out, err = self.fresh_cli("check", str(f))
            assert code == expected, depth
        assert out == "" and "(limit/depth)" in err
        assert "Traceback" not in err

    def test_deep_recursive_update(self, capsys):
        # each call level of ``leafupd`` takes several Python frames, so a
        # tree 400 ``node``s deep runs out of stack before the call-depth
        # limit of 256: exit 2, not a traceback
        value = 'tree[leaf["a"]]'
        for _ in range(400):
            value = f"tree[node[{value}]]"
        assert main(["run-update", LEAFUPD, "--input", value]) == 2
        self.assert_depth_error(capsys)

    def test_recursive_update_depth(self):
        # a fresh process under the default recursion limit runs ``leafupd``
        # on a tree 163 ``node``s deep and fails at 164 (CPython 3.11), at
        # six Python frames per call level; a seventh would fail at about 140
        def tree(leaf, depth=155):
            return ("tree[node[" * depth + f'tree[leaf["{leaf}"]]'
                    + "]]" * depth)
        run = subprocess.run(
            [sys.executable, "-m", "fluxq.cli", "run-update", LEAFUPD,
             "--input", tree("a")], capture_output=True, text=True,
            timeout=60, env={**os.environ, "PYTHONPATH": str(SRC)})
        assert (run.returncode, run.stdout, run.stderr) == (
            0, tree("pruned") + "\n", "")

    def test_run_update_long_flat_value(self, tmp_path, capsys):
        f = tmp_path / "flat.flux"
        f.write_text("update skip : (a[]|b[])* => (a[]|b[])*\n")
        flat = ",".join("ab"[i % 3 == 0] + "[]" for i in range(20_000))
        assert main(["run-update", str(f), "--input", flat]) == 0
        assert capsys.readouterr().out == flat + "\n"
        # ``let`` is a keyword, not a label
        assert main(["run-update", str(f), "--input", "a[],a[],let[]"]) == 2
        # 50,000 elements, more than one command-line argument may hold
        f.write_text("update skip : leaf[string]* => leaf[string]*\n")
        leaves = ",".join('leaf["w%d"]' % (i % 100) for i in range(50_000))
        assert main(["run-update", str(f), "--input", leaves]) == 0
        assert capsys.readouterr().out == leaves + "\n"

    def test_run_update_deep_value(self, tmp_path, capsys):
        f = tmp_path / "rec.flux"
        f.write_text("type A = a[A*]\nupdate skip : A => A\n")
        for depth in (400, 10_000, 100_000):
            deep = "a[" * depth + "]" * depth
            assert main(["run-update", str(f), "--input", deep]) == 0
            assert capsys.readouterr().out == deep + "\n"
            wrong = "a[" * (depth - 1) + "b[]" + "]" * (depth - 1)
            assert main(["run-update", str(f), "--input", wrong]) == 1
            err = capsys.readouterr().err
            assert "not a value of the declared input type" in err


class TestClosedStdout:
    """A reader that goes away before or while the output is written ends
    the run with exit 2 and no traceback."""

    @pytest.mark.parametrize("argv", [
        ["eval", LEAVES],
        ["run-update", INSERT_AFTER, "--input", INPUTS["insert_after.flux"]],
    ])
    def test_closed_pipe_exits_two(self, argv):
        read, write = os.pipe()
        os.close(read)  # closed before the child writes
        try:
            run = subprocess.run(
                [sys.executable, "-m", "fluxq.cli", *argv], stdout=write,
                stderr=subprocess.PIPE, text=True, timeout=60,
                env={**os.environ, "PYTHONPATH": str(SRC)})
        finally:
            os.close(write)
        assert run.returncode == 2
        assert run.stderr == ""

    def test_pipe_closed_while_writing_exits_two(self, tmp_path):
        # the output outgrows the pipe's buffer, so the child is still
        # writing when the reader goes
        f = tmp_path / "echo.muxq"
        f.write_text("query $x : a[]*\n")
        with subprocess.Popen(
                [sys.executable, "-m", "fluxq.cli", "eval", str(f), "--env",
                 "x=" + ",".join(["a[]"] * 20_000)],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                env={**os.environ, "PYTHONPATH": str(SRC)}) as child:
            assert len(child.stdout.read(10)) == 10
            child.stdout.close()
            err = child.stderr.read().decode()
        assert child.returncode == 2
        assert err == ""


class TestUsage:
    def test_no_command_exits_two(self, capsys):
        assert main([]) == 2

    def test_unknown_command_exits_two(self, capsys):
        assert main(["frobnicate"]) == 2


class TestParserReuse:
    """Every ``main`` call of a process shares one argument parser, and no
    call's flags, defaults or output streams reach the next."""

    def test_one_parser_per_process(self):
        assert build_parser() is build_parser()

    def test_built_on_the_first_main_call_only(self):
        # a fresh process: importing ``fluxq.cli`` builds no parser, the
        # first call builds them all and later calls build none
        script = (
            "import argparse, sys\n"
            f"sys.path.insert(0, {str(SRC)!r})\n"
            "built = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "def counting(self, *args, **kwargs):\n"
            "    built.append(self)\n"
            "    init(self, *args, **kwargs)\n"
            "argparse.ArgumentParser.__init__ = counting\n"
            "from fluxq.cli import main\n"
            "counts = [len(built)]\n"
            "for argv in (['check', sys.argv[1]], ['frobnicate'],\n"
            "             ['--json', 'check', sys.argv[1]]):\n"
            "    main(argv)\n"
            "    counts.append(len(built))\n"
            "print(counts)\n")
        run = subprocess.run([sys.executable, "-c", script, LEAVES],
                             capture_output=True, text=True, timeout=60)
        assert run.returncode == 0, run.stderr
        counts = json.loads(run.stdout.splitlines()[-1])
        assert counts[0] == 0
        assert counts[1] > 0
        assert counts[1:] == [counts[1]] * 3

    def test_report_does_not_carry_over(self, tmp_path, capsys):
        f = tmp_path / "ill.muxq"
        f.write_text('query "s" : bool\n')
        assert main(["--json", "check", str(f)]) == 1
        span = json.loads(capsys.readouterr().out)["diagnostics"][0]["span"]
        assert (span["begin_col"], span["end_col"]) == (7, 10)
        assert main(["check", LEAVES]) == 0
        assert capsys.readouterr().out == "leaf[string]*\n"

    def test_bindings_do_not_carry_over(self, tmp_path, capsys):
        f = tmp_path / "q.muxq"
        f.write_text("query $x : a[]*\n")
        assert main(["check", str(f), "--var", "x=a[]"]) == 0
        assert capsys.readouterr().out == "a[]\n"
        assert main(["check", str(f)]) == 1
        assert "unbound variable $x" in capsys.readouterr().err

    def test_defaults_do_not_carry_over(self, monkeypatch, capsys):
        depths, run_suites = [], suites.run_suites

        def recording(cfg, sig):
            depths.append(cfg.depth)
            return run_suites(cfg, sig)

        # ``cmd_oracle`` looks ``run_suites`` up in ``suites`` at each call
        monkeypatch.setattr(suites, "run_suites", recording)
        assert main(["--max-depth", "0", "oracle", "--cases", "0"]) == 0
        assert main(["oracle", "--cases", "0"]) == 0
        assert depths == [0, 3]

    def test_help_twice(self, capsys):
        assert main(["--help"]) == 0
        first = capsys.readouterr()
        assert first.out.startswith("usage: fluxq") and first.err == ""
        assert main(["--help"]) == 0
        assert capsys.readouterr() == first

    def test_usage_errors_reach_the_current_stderr(self, capsys):
        assert main(["check", LEAVES]) == 0
        capsys.readouterr()
        elsewhere = io.StringIO()
        with contextlib.redirect_stderr(elsewhere):
            assert main(["frobnicate"]) == 2
        assert "invalid choice: 'frobnicate'" in elsewhere.getvalue()
        assert main(["frobnicate"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("usage: fluxq")
        assert "invalid choice: 'frobnicate'" in err


class TestImports:
    """Records are named tuples, so importing the package stays clear of
    ``dataclasses`` and the ``inspect`` it pulls in."""

    @pytest.mark.parametrize("module", ["fluxq.cli", "fluxq"])
    def test_import_loads_no_dataclasses(self, module):
        script = (
            "import sys\n"
            f"sys.path.insert(0, {str(SRC)!r})\n"
            f"import {module}\n"
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n")
        run = subprocess.run([sys.executable, "-c", script],
                             capture_output=True, text=True, timeout=60)
        assert run.returncode == 0, run.stderr
        assert run.stdout.splitlines()[-1] == "[]"


def unreadable_files(tmp_path) -> dict[str, str]:
    """A directory, a file that is not UTF-8 and a missing file, each with
    the one ``error:`` line that reading it gives."""
    latin = tmp_path / "latin.muxq"
    latin.write_bytes(b"query \xff : ()\n")
    # a byte's position counts the file's bytes, CRs too
    crlf = tmp_path / "crlf.muxq"
    crlf.write_bytes(b"type T = a[]\r\nquery \xff : T\r\n")
    cut = tmp_path / "cut.muxq"
    cut.write_bytes(b"query () : ()\r\n\xe2\x82")
    missing = tmp_path / "missing.muxq"
    return {
        str(tmp_path): f"error: [Errno 21] Is a directory: '{tmp_path}'\n",
        str(latin): f"error: {latin}: 'utf-8' codec can't decode byte 0xff "
                    f"in position 6: invalid start byte\n",
        str(crlf): f"error: {crlf}: 'utf-8' codec can't decode byte 0xff "
                   f"in position 20: invalid start byte\n",
        str(cut): f"error: {cut}: 'utf-8' codec can't decode bytes in "
                  f"position 15-16: unexpected end of data\n",
        str(missing): f"error: [Errno 2] No such file or directory: "
                      f"'{missing}'\n",
    }


# every subcommand that reads a file, with FILE where the file goes
READERS = (["check", "FILE"], ["--json", "check", "FILE"], ["type", "FILE"],
           ["eval", "FILE"], ["run-update", "FILE", "--input", "()"],
           ["oracle", "FILE", "--cases", "1"],
           ["subtype", "--sig", "FILE", "a[]", "a[]"])

BAD_FLAGS = (["--max-depth", "-1", "oracle", "--cases", "1"],
             ["--max-width", "-2", "oracle", "--cases", "1"],
             ["oracle", "--cases", "-1"],
             ["--recursion-limit", "-1", "eval", LEAVES],
             ["--max-depth", "x", "oracle"])

BAD_BINDINGS = (["--var", "=a[]"], ["--tree", "$=bool"], ["--var", "x"],
                ["--tree", "x"])


def flag_value(argv: list[str]) -> tuple[str, str]:
    """The first flag of ``argv`` and the value given to it."""
    flag = next(a for a in argv if a.startswith("--"))
    return flag, argv[argv.index(flag) + 1]


class TestUnreadableInput:
    """A file that cannot be read or decoded exits 2 with one ``error:``
    line, from every subcommand that reads one."""

    @pytest.mark.parametrize("argv", READERS, ids=lambda a: " ".join(a))
    def test_exits_two_with_one_line(self, argv, tmp_path, capsys):
        for path, line in unreadable_files(tmp_path).items():
            assert main([path if a == "FILE" else a for a in argv]) == 2
            assert capsys.readouterr() == ("", line)


class TestReadPath:
    """``_read`` decodes the file's bytes itself and reads its line ends as
    text mode reads them."""

    PROGRAM = ('type T = a[]\n\ndeclare function f() : T { b[] };\nquery\n'
               '  let $x = b[] in\n    $x : T\n')

    def test_line_ends_give_the_same_report(self, tmp_path, capsys):
        f = tmp_path / "q.muxq"
        outputs = []
        for end in ("\n", "\r\n", "\r"):
            f.write_bytes(self.PROGRAM.replace("\n", end).encode())
            assert main(["--json", "check", str(f)]) == 1
            outputs.append(capsys.readouterr())
        assert outputs[0] == outputs[1] == outputs[2]
        spans = [d["span"] for d in json.loads(outputs[0].out)["diagnostics"]]
        assert [(s["begin_line"], s["begin_col"], s["end_line"], s["end_col"])
                for s in spans] == [(3, 28, 3, 31), (5, 3, 6, 7)]


class TestSpansOnDemand:
    """A span's lines and columns are looked up only when it is reported."""

    SAMPLES = ([LEAVES], [INSERT_AFTER], [LEAFUPD],
               [str(SAMPLES / "children.muxq"), "--tree", "x=a[b[]*,c[]?]"])
    ILL = ('declare function f($x : a[]) : b[] { $x };\nquery\n'
           '  let $y = f(a[]) in\n    if "s" then $y else $y : b[]\n')

    def test_passing_check_builds_no_newline_table(self, monkeypatch,
                                                   capsys):
        lookups = []
        original = SourceText.line_col
        monkeypatch.setattr(SourceText, "line_col", lambda source, offset: (
            lookups.append(offset) or original(source, offset)))
        for args in self.SAMPLES:
            assert main(["--json", "check", *args]) == 0
        assert lookups == []

    def test_only_reported_spans_are_resolved(self, tmp_path, monkeypatch,
                                              capsys):
        f = tmp_path / "ill.muxq"
        f.write_text(self.ILL)
        resolved = set()
        original = SourceText.span
        monkeypatch.setattr(SourceText, "span", lambda source, begin, end: (
            resolved.add((begin, end)) or original(source, begin, end)))
        assert main(["--json", "check", str(f)]) == 1
        report = json.loads(capsys.readouterr().out)
        reported = {(d["span"]["begin"], d["span"]["end"])
                    for d in report["diagnostics"]}
        assert reported == {(37, 39), (74, 96)} and resolved == reported
        resolved.clear()
        assert main(["check", str(f)]) == 1
        assert capsys.readouterr().err.count(f"{f}:") == 2
        assert resolved == reported


class TestNumericFlags:
    """Every numeric flag takes an integer of 0 or more; argparse rejects
    the rest."""

    @pytest.mark.parametrize("argv", BAD_FLAGS,
                             ids=lambda a: " ".join(flag_value(a)))
    def test_bad_value_is_a_usage_error(self, argv, capsys):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        flag, value = flag_value(argv)
        assert out == ""
        assert err.startswith("usage: fluxq")
        assert err.endswith(f"error: argument {flag}: invalid natural value: "
                            f"'{value}'\n")

    @pytest.mark.parametrize("flag", ["--max-depth", "--max-width"])
    def test_one_is_accepted(self, flag, capsys):
        assert main([flag, "1", "oracle", "--cases", "0"]) == 0

    def test_zero_is_accepted(self, capsys):
        args = build_parser().parse_args(
            ["--max-depth", "0", "--max-width", "0", "oracle", "--cases", "0"])
        assert (args.max_depth, args.max_width, args.cases) == (0, 0, 0)
        assert main(["--recursion-limit", "0", "eval", LEAVES]) == 1
        assert "recursion limit 0 exceeded" in capsys.readouterr().err

    def test_defaults_are_the_library_defaults(self, monkeypatch, capsys):
        # the parser restates the defaults of ``GenConfig`` and of the
        # evaluator's recursion limit, whose modules ``import fluxq.cli``
        # does not load
        from fluxq.evaluator import DEFAULT_RECURSION_LIMIT
        configs = []
        monkeypatch.setattr(suites, "run_suites", lambda cfg, sig: (
            configs.append(cfg) or suites.SuiteReport([])))
        assert main(["oracle"]) == 0
        assert configs == [suites.GenConfig()]
        args = build_parser().parse_args(["oracle"])
        assert args.recursion_limit == DEFAULT_RECURSION_LIMIT


class TestBindings:
    """A ``--var`` or ``--tree`` spec needs a name and an ``=``."""

    @pytest.mark.parametrize("binding", BAD_BINDINGS,
                             ids=lambda b: " ".join(b))
    def test_malformed_binding_is_a_parse_error(self, binding, capsys):
        # a flag is in no file, so the message claims no position
        for command in ("check", "type"):
            assert main([command, LEAVES, *binding]) == 2
            assert capsys.readouterr() == ("", (
                f"parse error: bad binding {binding[1]!r}; expected NAME=TYPE\n"))

    def test_plural_tree_binding_is_a_parse_error(self, capsys):
        for command in ("check", "type"):
            assert main([command, LEAVES, "--tree", "x=a[]*"]) == 2
            assert capsys.readouterr() == ("", (
                "parse error: --tree binding for x must be an atomic type, "
                "got a[]*\n"))

    def test_dollar_sign_and_spaces_are_dropped(self, tmp_path, capsys):
        f = tmp_path / "q.muxq"
        f.write_text("query $x : a[]*\n")
        assert main(["check", str(f), "--var", " $x = a[]"]) == 0
        assert capsys.readouterr().out == "a[]\n"


class TestFuzz:
    """Seeded byte-level and tree-level mutants of ``samples/`` through
    ``check``, ``type`` and ``eval`` or ``run-update``, and the
    unreadable-file, flag and binding cases above: every run ends in exit 0,
    1 or 2 and none prints a traceback."""

    SEED = 7
    MUTANTS = 400
    # inserted whole, so that mutants reach past the lexer
    PIECES = (b"(", b")", b"[", b"]", b",", b"|", b"*", b"?", b"+", b";",
              b":", b"=", b"$x", b'"s"', b"()", b"a[]", b"X", b"for ",
              b"let ", b"iter", b"insert ", b"delete", b"\n", b"\xff")

    @classmethod
    def mutate(cls, rng: random.Random, data: bytes) -> bytes:
        data = bytearray(data)
        for _ in range(rng.randint(1, 2)):
            i = rng.randrange(len(data) + 1)
            op = rng.randrange(4)
            if op == 0:
                del data[i:i + rng.randint(1, 6)]
            elif op == 1:
                j = rng.randrange(len(data) + 1)
                data[i:i] = data[j:j + rng.randint(1, 12)]
            else:
                data[i:i + op - 2] = rng.choice(cls.PIECES)
        return bytes(data)

    def test_no_run_ends_in_a_traceback(self, tmp_path, capsys):
        rng = random.Random(self.SEED)
        samples = sorted(SAMPLES.iterdir())
        runs = [[path if a == "FILE" else a for a in argv]
                for path in unreadable_files(tmp_path) for argv in READERS]
        runs += BAD_FLAGS
        runs += [[c, LEAVES, *b] for b in BAD_BINDINGS for c in ("check", "type")]
        for i in range(self.MUTANTS):
            sample = rng.choice(samples)
            mutant = tmp_path / f"m{i}{sample.suffix}"
            mutant.write_bytes(self.mutate(rng, sample.read_bytes()))
            run = (["run-update", str(mutant), "--input", INPUTS[sample.name]]
                   if sample.suffix == ".flux" else ["eval", str(mutant)])
            runs += [["check", str(mutant)], ["type", str(mutant)], run]
        codes = set()
        for argv in runs:
            code = main(argv)
            err = capsys.readouterr().err
            assert code in (0, 1, 2) and "Traceback" not in err, (argv, err)
            codes.add(code)
        assert codes == {0, 1, 2}

    # Tree-level mutants parse, so they reach the checker and the
    # interpreter: each is one mutation of a sample's syntax tree, printed
    # back to concrete syntax
    AST_SEED = 11
    AST_MUTANTS = 120

    @staticmethod
    def subterms(root) -> list:
        """Every distinct node of ``root``'s tree, ``root`` included."""
        out, seen, stack = [], set(), [root]
        while stack:
            x = stack.pop()
            if isinstance(x, tuple):
                stack.extend(x)
            elif isinstance(x, NODES) and id(x) not in seen:
                seen.add(id(x))
                out.append(x)
                stack.extend(getattr(x, f) for f in x._fields)
        return out

    @classmethod
    def rebuild(cls, x, new: dict):
        """``x`` with each node whose id is a key of ``new`` replaced."""
        if id(x) in new:
            return new[id(x)]
        if isinstance(x, tuple):
            return tuple(cls.rebuild(y, new) for y in x)
        if isinstance(x, types.Type):  # a type has no span
            return x.__class__(*(cls.rebuild(getattr(x, f), new)
                                 for f in x._fields))
        if isinstance(x, types.Struct):
            return x.__class__(*(cls.rebuild(getattr(x, f), new)
                                 for f in x._fields), span=x.span)
        return x

    @classmethod
    def mutate_tree(cls, rng: random.Random, prog):
        """Drop or duplicate a call argument, swap two expressions, two
        statements or two types, or replace an expression with ``()`` or a
        statement with ``skip``."""
        nodes = cls.subterms(prog)
        calls = [n for n in nodes
                 if isinstance(n, (queries.Call, updates.ProcCall)) and n.args]
        op = rng.randrange(3)
        if op == 0 and calls:
            call = rng.choice(calls)
            args = list(call.args)
            i = rng.randrange(len(args))
            args[i:i + 1] = [] if rng.random() < 0.5 else [args[i]] * 2
            return cls.rebuild(prog, {id(call): call.__class__(
                call.name, tuple(args))})
        kind = rng.choice((queries.QueryExpr, updates.UpdateStmt, types.Type))
        same = [n for n in nodes if isinstance(n, kind)]
        if op == 1 and len(same) >= 2:
            a, b = rng.sample(same, 2)
            return cls.rebuild(prog, {id(a): b, id(b): a})
        terms = [n for n in nodes
                 if isinstance(n, (queries.QueryExpr, updates.UpdateStmt))]
        target = rng.choice(terms)
        return cls.rebuild(prog, {id(target): (
            queries.EmptySeq() if isinstance(target, queries.QueryExpr)
            else Skip())})

    def test_tree_mutants_reach_the_interpreter(self, tmp_path, capsys):
        rng = random.Random(self.AST_SEED)
        samples = sorted(SAMPLES.iterdir())
        parsed = {s: parse_program(s.read_text()) for s in samples}
        codes, errors = set(), []
        for i in range(self.AST_MUTANTS):
            sample = rng.choice(samples)
            prog, sig = parsed[sample]
            text = printer.program_str(self.mutate_tree(rng, prog), sig)
            parse_program(text)  # every mutant parses
            mutant = tmp_path / f"t{i}{sample.suffix}"
            mutant.write_text(text)
            run = (["run-update", str(mutant), "--input", INPUTS[sample.name]]
                   if sample.suffix == ".flux" else ["eval", str(mutant)])
            for argv in (["check", str(mutant)], ["type", str(mutant)], run):
                code = main(argv)
                err = capsys.readouterr().err
                assert code in (0, 1, 2) and "Traceback" not in err, (
                    argv, text, err)
                codes.add(code)
                errors.append(err)
        assert codes == {0, 1}
        # the interpreter's arity check in ``evaluator._enter`` is reached
        assert any(" argument(s), got " in err for err in errors)

    @staticmethod
    def line_col(text: str, offset: int) -> tuple[int, int]:
        return (text.count("\n", 0, offset) + 1,
                offset - text.rfind("\n", 0, offset))

    def test_spans_are_half_open(self):
        # on the samples and the tree mutants above, every span's begin and
        # end positions are those of its offsets, ``end`` being the offset
        # past its last token
        rng = random.Random(self.AST_SEED)
        samples = sorted(SAMPLES.iterdir())
        parsed = {s: parse_program(s.read_text()) for s in samples}
        texts = [s.read_text() for s in samples]
        for _ in range(self.AST_MUTANTS):
            prog, sig = parsed[rng.choice(samples)]
            texts.append(printer.program_str(self.mutate_tree(rng, prog), sig))
        one_line = set()
        for text in texts:
            prog, sig = parse_program(text)
            roots = [prog, *(body for _, body in sig.items())]
            for node in (n for root in roots for n in self.subterms(root)):
                span = getattr(node, "span", None)  # a type has none
                if span is None:
                    continue
                begin, end = span.begin, span.end
                assert (span.begin_line, span.begin_col) == self.line_col(
                    text, begin), (text, node)
                assert (span.end_line, span.end_col) == self.line_col(
                    text, end), (text, node)
                if span.begin_line == span.end_line:
                    assert span.end_col - span.begin_col == end - begin
                one_line.add(span.begin_line == span.end_line)
        assert one_line == {True, False}
