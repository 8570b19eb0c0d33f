"""Concrete syntax: parsing, desugaring, spans, error positions, and
round-trips through the unparser; shadowed binders in typing and
evaluation."""

import hashlib
import random
import tracemalloc
from pathlib import Path

import pytest

from fluxq import (
    BoolVal, Children, Concat, EMPTY, For, Insert, LabelFilter, Let, LetStmt,
    Node, ParseError, QueryProgram, Runtime, Snapshot, SourceSpan, Star,
    StrVal, UpdateProgram, VarRef, apply_update, check_program, eval_query,
    parse_expr, parse_program, parse_signature, parse_stmt, parse_type,
    parse_value, runtime_for_query_program, runtime_for_update_program,
    synth_expr, type_str, types_upto, value_str,
)
from fluxq.generators import GenConfig, gen_env, gen_type, gen_typed_expr, gen_typed_stmt
from fluxq.parser import parse_env_bindings
from fluxq.types import EMPTY_SIGNATURE, EMPTY_DECLS, Or, Seq
from fluxq.unparse import expr_str, program_str, stmt_str
from fluxq.updates import Multiplicity

SAMPLES = Path(__file__).resolve().parent.parent / "samples"


class TestTypeSyntax:
    @pytest.mark.parametrize("text", [
        "()", "bool", "string", "a[]", "a[b[]]", "b[]*,c[]?", "(b[]|c[])*",
        "a[],a[]", "Tree", "leaf[string],(leaf[string]*)*", "(a[]|())?",
        "a[]+", "(a[],b[])*",
    ])
    def test_round_trip(self, text):
        t = parse_type(text)
        assert parse_type(type_str(t)) == t

    def test_precedence_quantifier_tightest(self):
        assert parse_type("a[],b[]*") == Seq(parse_type("a[]"),
                                             Star(parse_type("b[]")))

    def test_precedence_comma_before_bar(self):
        assert parse_type("a[],b[]|c[]") == Or(parse_type("a[],b[]"),
                                               parse_type("c[]"))

    def test_parentheses_group(self):
        assert parse_type("a[],(b[]|c[])") == Seq(
            parse_type("a[]"), parse_type("b[]|c[]"))

    def test_uppercase_is_type_variable(self):
        from fluxq import Var
        assert parse_type("Tree*") == Star(Var("Tree"))

    @pytest.mark.parametrize("op, node", [(",", Seq), ("|", Or)])
    def test_long_lists_parse_without_recursion(self, op, node):
        n = 5000
        items = [f"a{i}[]" for i in range(n)]
        text = op.join(items)
        t = parse_type(text)
        expected = parse_type(items[-1])
        for item in reversed(items[:-1]):
            expected = node(parse_type(item), expected)
        # types are interned, so the same list is the same object
        assert t is expected and parse_type(text) is t
        assert type(t) is node and type(t.right) is node

    @pytest.mark.parametrize("op", [",", "|"])
    def test_long_lists_print_without_recursion(self, op):
        # ``type_str`` renders a chain in a loop, also as an operand and
        # when two chains share a suffix
        text = op.join(f"a{i}[]" for i in range(10_000))
        t = parse_type(text)
        assert type_str(t) == text
        assert type_str(Star(t)) == f"({text})*"
        for u in (parse_type(f"b[{text}]"),
                  parse_type(f"b[],({text}) | c[],(a[]{op}{text})")):
            assert parse_type(type_str(u)) is u

    def test_text_of_small_types_is_pinned(self):
        # the text of every type of AST size <= 5 over a and b, and of
        # size <= 7 over a, as the recursive printer gave it
        for size, labels, count, digest in (
                (5, ("a", "b"), 257, "0a3e9f74051a00b65edacbe7ee4c3ec8"
                                     "8a58763da7f7b112315c81829c1b53b9"),
                (7, ("a",), 1437, "4d98452b37e070d538cf61b95e5d11fa"
                                  "b291b9a90885cb742ca2664fecfec533")):
            texts = [type_str(t) for t in types_upto(size, labels)]
            assert len(texts) == count
            assert hashlib.sha256(
                "\n".join(texts).encode()).hexdigest() == digest

    def test_long_flat_type_is_one_object(self):
        # neither interning nor the hash walks down the ``,`` spine
        text = ", ".join(["a[]"] * 10_000)
        t = parse_type(text)
        assert parse_type(text) is t
        assert {t: 1}[parse_type(text)] == 1

    def test_type_errors_have_positions(self):
        with pytest.raises(ParseError) as exc:
            parse_type("a[],")
        assert exc.value.offset == 4


class TestValueSyntax:
    @pytest.mark.parametrize("text", [
        "()", "true", "false", '"hi"', "a[]", 'a[b[],"w",true]',
        'tree[leaf["x"]]', "a[],b[],a[]",
    ])
    def test_round_trip(self, text):
        v = parse_value(text)
        assert parse_value(value_str(v)) == v

    def test_string_escapes(self):
        v = parse_value('"a\\"b\\\\c\\n"')
        assert v[0].value == 'a"b\\c\n'
        assert parse_value(value_str(v)) == v

    def test_empty_segments_collapse(self):
        assert parse_value("(),a[],()") == parse_value("a[]")

    @pytest.mark.parametrize("text, message, offset, line, col, expected", [
        ("", "unexpected end of input in value", 0, 1, 1, ("a value",)),
        ("a[] b[]", "unexpected 'b'", 4, 1, 5, ("end of value",)),
        ("a]", "unexpected ']'", 1, 1, 2, ("[",)),
        ("a] $", "expected variable name after $", 3, 1, 4, ()),
        ("let[]", "unexpected 'let' in value", 0, 1, 1, ("a value",)),
        ("a[,]", "unexpected ',' in value", 2, 1, 3, ("a value",)),
        ("a[", "unexpected end of input in value", 2, 1, 3, ("a value",)),
        ('"x', "unterminated string literal", 0, 1, 1, ()),
        ('"a\\q"', "bad string escape", 3, 1, 4, ()),
        ("a[],", "unexpected end of input in value", 4, 1, 5, ("a value",)),
        ("a[b[]", "unexpected end of input", 5, 1, 6, ("]",)),
        ("a[b[]\n c[]", "unexpected 'c'", 7, 2, 2, ("]",)),
        ("a[]]", "unexpected ']'", 3, 1, 4, ("end of value",)),
        ("( b[]", "unexpected '(' in value", 0, 1, 1, ("a value",)),
        ("a[(", "unexpected '(' in value", 2, 1, 3, ("a value",)),
        ("$x", "unexpected 'x' in value", 0, 1, 1, ("a value",)),
        ("A[]", "unexpected 'A' in value", 0, 1, 1, ("a value",)),
        ("a[] ] @", "unexpected character '@'", 6, 1, 7, ()),
        # inside a run of empty elements, read as one lexeme
        ("a[],let[]", "unexpected 'let' in value", 4, 1, 5, ("a value",)),
        ("a[],true[]", "unexpected '['", 8, 1, 9, ("end of value",)),
        ("x[a[],false[]]", "unexpected '['", 11, 1, 12, ("]",)),
        ("a[],A[]", "unexpected 'A' in value", 4, 1, 5, ("a value",)),
        ("a[],b[]c[]", "unexpected 'c'", 7, 1, 8, ("end of value",)),
        ("a[],1x[]", "unexpected character '1'", 4, 1, 5, ()),
        ("a[],b[", "unexpected end of input in value", 6, 1, 7, ("a value",)),
        ("x[a[],b[]", "unexpected end of input", 9, 1, 10, ("]",)),
    ])
    def test_value_errors(self, text, message, offset, line, col, expected):
        # a lexing error anywhere in the text wins over an earlier syntax error
        with pytest.raises(ParseError) as exc:
            parse_value(text)
        err = exc.value
        detail = f"{message} at offset {offset} (line {line}, column {col})"
        if expected:
            detail += "; expected " + " or ".join(expected)
        assert str(err) == detail
        assert (err.offset, err.line, err.column, err.expected) == (
            offset, line, col, expected)

    @pytest.mark.parametrize("text, value", [
        ("( )", ()),
        ("a [ ]", (Node("a", ()),)),
        ("a[( ),b[]] # note\n, c[\t]", (Node("a", (Node("b", ()),)),
                                        Node("c", ()))),
        ('"x\\ny\\t"', (StrVal("x\ny\t"),)),
        ("true,\r\n\"\",false", (BoolVal(True), StrVal(""), BoolVal(False))),
    ])
    def test_value_layout(self, text, value):
        assert parse_value(text) == value

    @pytest.mark.parametrize("n", [255, 256, 257, 600])
    @pytest.mark.parametrize("sep, leaf", [
        (", ", "{} [ ]"), (", # c\r\n ", "{}[]"), (",\n", "{}[ ]"),
    ])
    def test_runs_match_spaced_layouts(self, n, sep, leaf):
        # a blank-free run is one lexeme of at most 256 elements; blanks or
        # comments read every element lexeme by lexeme
        labels = [("a", "b", "c")[i % 3] for i in range(n)]
        run = ",".join(f"{label}[]" for label in labels)
        spaced = sep.join(leaf.format(label) for label in labels)
        value = tuple(Node(label, ()) for label in labels)
        assert parse_value(run) == parse_value(spaced) == value
        assert parse_value(f"x[{run}]") == parse_value(f"x[ {spaced} ]") == (
            Node("x", value),)
        assert parse_value(value_str(value)) == value

    def test_equal_leaves_share_a_node(self):
        v = parse_value("a[],b[],a[]")
        assert v[0] is v[2] and v[0] is not v[1]

    def test_long_run_stays_small(self):
        text = ",".join(["a[]"] * 50000)
        tracemalloc.start()
        try:
            v = parse_value(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(v) == 50000 and peak < 2_000_000, peak


class TestExprSyntax:
    def test_child_projection_requires_variable(self):
        parse_expr("$x/child")
        with pytest.raises(ParseError):
            parse_expr("(a[])/child")

    def test_label_sugar_expands_to_for(self):
        e = parse_expr("$x/leaf")
        assert isinstance(e, For)
        assert e.source == VarRef("x")
        assert isinstance(e.body, LabelFilter)
        assert isinstance(e.body.source, Children)
        assert e.body.source.var == e.var

    def test_wildcard_sugar_expands_to_for_child(self):
        e = parse_expr("$x/node/*")
        assert isinstance(e, For)
        assert isinstance(e.body, Children)
        assert isinstance(e.source, For)  # the inner /node sugar

    def test_filter_applies_to_any_expression(self):
        e = parse_expr("(b[],c[])::b")
        assert isinstance(e, LabelFilter)
        assert isinstance(e.source, Concat)

    def test_comma_binds_loosest(self):
        e = parse_expr("for $y in $x return $y, b[]")
        assert isinstance(e, Concat)
        assert isinstance(e.left, For)

    def test_shadowed_binder_keeps_written_names(self):
        e = parse_expr("let $x = $x in let $x = $x in $x")
        assert e == Let("x", VarRef("x"), Let("x", VarRef("x"), VarRef("x")))
        s = parse_stmt("snapshot $x in let $x = $x in insert $x")
        assert s == Snapshot("x", LetStmt("x", VarRef("x"), Insert(VarRef("x"))))

    def test_spans_attached(self):
        e = parse_expr("for $y in $x return $y")
        assert e.span is not None
        assert e.span.begin == 0
        assert e.span.end == len("for $y in $x return $y")

    def test_long_lists_span_to_the_end(self):
        n = 5000
        items = [f"a{i}[]" for i in range(n)]
        text = ", ".join(items)
        e = parse_expr(text)
        begin = 0
        for item in items[:-1]:  # walk the spine; == would recurse n deep
            assert type(e) is Concat and e.left == parse_expr(item), item
            assert (e.span.begin, e.span.end) == (begin, len(text))
            begin += len(item) + 2
            e = e.right
        assert e == parse_expr(items[-1])
        assert (e.span.begin, e.span.end) == (begin, len(text))


class TestShadowing:
    """Binders keep their names; the innermost binding of a name wins in the
    checker's and the evaluator's environments."""

    def test_let_shadows_let(self):
        e = parse_expr("let $x = a[] in let $x = b[$x] in $x")
        assert synth_expr(EMPTY_DECLS, EMPTY_SIGNATURE, {}, e) == parse_type(
            "b[a[]]")
        assert eval_query(Runtime(), {}, e) == parse_value("b[a[]]")

    def test_let_shadows_function_parameter(self):
        prog, sig = parse_program(
            "declare function f($x : a[]) : b[a[]] { let $x = b[$x] in $x };\n"
            "query f(a[]), f(a[]) : b[a[]]*")
        main, diags = check_program(sig, prog)
        assert diags == []
        assert main == parse_type("b[a[]],b[a[]]")
        assert eval_query(runtime_for_query_program(prog), {}, prog.main) == (
            parse_value("b[a[]],b[a[]]"))

    def test_snapshot_shadows_let(self):
        prog, sig = parse_program(
            "update let $x = c[] in iter[children[snapshot $x in "
            "(delete; insert ($x, $x))]] : a[b[]] => a[b[],b[]]")
        main, diags = check_program(sig, prog)
        assert diags == []
        assert main == parse_type("a[b[],b[]]")
        assert apply_update(runtime_for_update_program(prog), {},
                            parse_value("a[b[]]"), prog.main) == parse_value(
            "a[b[],b[]]")


class TestStmtSyntax:
    def test_test_binds_tighter_than_seq(self):
        from fluxq import SeqStmt, Test
        s = parse_stmt("b?skip; delete")
        assert isinstance(s, SeqStmt)
        assert isinstance(s.first, Test)

    def test_parenthesized_sequence_as_body(self):
        from fluxq import Test, SeqStmt
        s = parse_stmt("b?(skip; delete)")
        assert isinstance(s, Test)
        assert isinstance(s.body, SeqStmt)

    def test_all_test_kinds(self):
        for text in ("b?skip", "*?skip", "bool?skip", "string?skip"):
            parse_stmt(text)

    def test_nested_navigation(self):
        s = parse_stmt("iter[a?children[iter[b? right[insert c[]]]]]")
        assert stmt_str(s) == "iter[a?children[iter[b?right[insert c[]]]]]"


class TestProgramSyntax:
    def test_trivial_query_program(self):
        prog, sig = parse_program("query () : ()")
        assert isinstance(prog, QueryProgram)
        assert len(sig) == 0
        assert prog.ascription == EMPTY

    def test_update_program_kinds(self):
        prog, _ = parse_program("update skip : a[] => a[]")
        assert isinstance(prog, UpdateProgram)

    def test_syntax_error_position(self):
        with pytest.raises(ParseError) as exc:
            parse_program("query (")
        assert exc.value.offset == 7

    def test_signature_collected_in_order(self):
        _, sig = parse_program(
            "type A = a[]\ntype B = b[A]\nquery () : ()")
        assert list(sig) == ["A", "B"]

    def test_procedures_rejected_in_query_programs(self):
        with pytest.raises(ParseError):
            parse_program(
                "declare procedure p() : () => () { skip };\nquery () : ()")

    def test_signature_files(self):
        sig = parse_signature("type L = a[]*\ntype M = m[L]")
        assert list(sig) == ["L", "M"]


class TestTokenPositions:
    """Every lexical error carries the offset, line and column of its
    cause; lines and columns count characters, ``#`` comments, tabs and
    carriage returns included."""

    @pytest.mark.parametrize("parse, text, message, offset, line, col", [
        (parse_value, 'a[],\n  "abc', "unterminated string literal", 7, 2, 3),
        (parse_value, '"ab\nc"', "unterminated string literal", 0, 1, 1),
        (parse_value, 'x[\n"a\\q"]', "bad string escape", 6, 2, 4),
        (parse_value, '"a\\', "bad string escape", 3, 1, 4),
        (parse_value, '"a\\\nb"', "bad string escape", 3, 1, 4),
        (parse_expr, "let\n  $ = () in ()", "expected variable name after $",
         6, 2, 3),
        (parse_expr, "$1", "expected variable name after $", 0, 1, 1),
        (parse_expr, "$_x", "expected variable name after $", 0, 1, 1),
        (parse_type, "a[] ,\n\t@", "unexpected character '@'", 7, 2, 2),
        (parse_type, "# c\r\n\ta[],\r\n  %", "unexpected character '%'",
         14, 3, 3),
        (parse_value, "a[], # note, with ] and \"\n\t\t!", "unexpected character '!'",
         28, 2, 3),
    ])
    def test_lexical_error_positions(self, parse, text, message, offset,
                                     line, col):
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert str(exc.value).startswith(message + " at offset")
        assert (exc.value.offset, exc.value.line, exc.value.column) == (
            offset, line, col)

    def test_syntax_error_after_comment_tab_and_crlf(self):
        with pytest.raises(ParseError) as exc:
            parse_type("# header\r\n\ta[],\r\n\t\t]")
        assert (exc.value.offset, exc.value.line, exc.value.column) == (
            19, 3, 3)

    @pytest.mark.parametrize("label", ["_x", "x1", "\u00e9", "x\u00b2"])
    def test_identifier_forms_accepted(self, label):
        assert parse_value(label + "[]")[0].label == label

    @pytest.mark.parametrize("text", ["\u00b2x[]", "1x[]"])
    def test_identifier_must_start_with_letter_or_underscore(self, text):
        with pytest.raises(ParseError) as exc:
            parse_value(text)
        assert str(exc.value).startswith(f"unexpected character {text[0]!r}")
        assert (exc.value.offset, exc.value.line, exc.value.column) == (0, 1, 1)

    def test_spans_cross_lines(self):
        e = parse_expr("let $x =\n\t() in\r\n  $x")
        span = e.span
        assert (span.begin, span.end) == (0, 21)
        assert (span.begin_line, span.begin_col) == (1, 1)
        assert (span.end_line, span.end_col) == (3, 5)


class TestSourceSpan:
    """The span record: seven fields by position, immutable, and never
    running backwards."""

    SPAN = SourceSpan("f", 0, 3, 1, 1, 1, 4)

    def test_begin_after_end_is_rejected(self):
        with pytest.raises(ValueError, match="span begin 2 > end 1"):
            SourceSpan("f", 2, 1, 1, 3, 1, 2)

    def test_fields_cannot_be_assigned(self):
        with pytest.raises(AttributeError):
            self.SPAN.end = 4

    def test_repr(self):
        assert repr(self.SPAN) == (
            "SourceSpan(file='f', begin=0, end=3, begin_line=1, begin_col=1, "
            "end_line=1, end_col=4)")


class TestEnvBindings:
    def test_multiple_bindings(self):
        env = parse_env_bindings(["x=a[],b[]; y=true"])
        assert env["x"] == parse_value("a[],b[]")
        assert env["y"] == parse_value("true")

    def test_repeated_flags(self):
        env = parse_env_bindings(["x=()", 'y="w"'])
        assert set(env) == {"x", "y"}

    def test_semicolon_inside_string_does_not_split(self):
        env = parse_env_bindings(['x="a;b"; y=s["c;\\";d"]'])
        assert env["x"] == parse_value('"a;b"')
        assert env["y"] == parse_value('s["c;\\";d"]')

    def test_bad_binding(self):
        with pytest.raises(ParseError):
            parse_env_bindings(["nonsense"])


class TestParserRobustness:
    def test_garbage_raises_parse_errors_only(self):
        rng = random.Random(99)
        alphabet = "abXY $[](){}|,*+?;:/=<>\"\\\n\ttrue false for let in query"
        for _ in range(500):
            text = "".join(rng.choice(alphabet)
                           for _ in range(rng.randint(0, 40)))
            for parse in (parse_type, parse_value, parse_expr, parse_stmt,
                          parse_program):
                try:
                    parse(text)
                except ParseError:
                    pass

    def test_truncations_of_valid_programs_raise_parse_errors(self):
        text = (SAMPLES / "leafupd.flux").read_text()
        for cut in range(1, len(text), 7):
            try:
                parse_program(text[:cut])
            except ParseError:
                pass


class TestRoundTrips:
    def test_sample_programs_round_trip(self):
        for path in sorted(SAMPLES.glob("*.muxq")) + sorted(SAMPLES.glob("*.flux")):
            text = path.read_text()
            prog, sig = parse_program(text, str(path))
            reparsed, resig = parse_program(program_str(prog, sig))
            assert reparsed == prog, path.name
            assert resig == sig, path.name

    def test_mixed_update_program_round_trips(self):
        text = (
            "type T = t[a[]*]\n"
            "declare function pick($x : T) : a[]* { $x/a };\n"
            "declare procedure fill($x : T) : () => a[]* { insert pick($x) };\n"
            'update let $db = t[a[],a[]] in (delete; fill($db)) : b[] => a[]*'
        )
        prog, sig = parse_program(text)
        reparsed, resig = parse_program(program_str(prog, sig))
        assert reparsed == prog
        assert resig == sig

    def test_random_exprs_round_trip(self):
        cfg = GenConfig(seed=11, cases=0)
        rng = random.Random(11)
        done = 0
        while done < 400:
            env = gen_env(rng, cfg, EMPTY_SIGNATURE)
            try:
                e = gen_typed_expr(rng, cfg, EMPTY_DECLS, EMPTY_SIGNATURE, env)
            except Exception:
                continue
            done += 1
            assert parse_expr(expr_str(e)) == e

    def test_random_stmts_round_trip(self):
        cfg = GenConfig(seed=12, cases=0)
        rng = random.Random(12)
        done = 0
        while done < 400:
            t = gen_type(rng, cfg, size=5)
            try:
                s = gen_typed_stmt(rng, cfg, EMPTY_DECLS, EMPTY_SIGNATURE, {},
                                   Multiplicity.PLURAL, t)
            except Exception:
                continue
            done += 1
            assert parse_stmt(stmt_str(s)) == s

    def test_random_types_round_trip(self):
        cfg = GenConfig(seed=13)
        rng = random.Random(13)
        for _ in range(300):
            t = gen_type(rng, cfg)
            assert parse_type(type_str(t)) == t
