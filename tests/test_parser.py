"""Concrete syntax: parsing, desugaring, spans, error positions, and
round-trips through the printer; shadowed binders in typing and
evaluation."""

import copy
import hashlib
import json
import pickle
import random
import re
import tracemalloc
from bisect import bisect_left
from pathlib import Path

import pytest

from fluxq import (
    BoolAtom, BoolVal, Children, Concat, EMPTY, For, Insert, LabelFilter, Let,
    LetStmt, Node, ParseError, QueryProgram, Runtime, Snapshot, SourceSpan,
    Star, StringAtom, StrVal, UpdateProgram, VarRef, apply_update, check_program, eval_query,
    check_signature,
    parse_expr, parse_program, parse_signature, parse_stmt, parse_type,
    parse_value, runtime_for_query_program, runtime_for_update_program,
    synth_expr, type_str, types_upto, value_str, values_upto,
)
from fluxq.diagnostics import SourceText
from fluxq.suites import GenConfig, gen_env, gen_type, gen_typed_expr, gen_typed_stmt
from fluxq.parser import (
    _LEXEME_RE, _Parser, _is_label, _unescape, parse_env_bindings,
)
from fluxq.types import (
    EMPTY_SIGNATURE, EMPTY_DECLS, EmptySeq, FunctionDecl, Or, ProcedureDecl,
    Seq, Skip,
)
from fluxq.printer import expr_str, program_str, stmt_str
from fluxq.updates import Multiplicity

SAMPLES = Path(__file__).resolve().parent.parent / "samples"

# The value reader as it was when a word ran on only as a run of empty
# elements, kept to check the reader against: every label, ``[``, text and
# ``]`` is a lexeme of its own, and only runs of ``n[]`` are shared.
_REFERENCE_LEXEME_RE = re.compile(_LEXEME_RE.pattern.replace(
    r"|\w+|", r"|\w+(?:\[\](?:,\w+\[\]){0,255})?|", 1), re.DOTALL)
_ITEM, _OPEN, _BRACKET, _PAREN, _AFTER = (object() for _ in range(5))


def reference_parse_value(text):
    lexemes = _REFERENCE_LEXEME_RE.findall(text)
    stack = []
    trees = []
    leaves = {}
    want = _ITEM
    within = 0
    for at, lexeme in enumerate(lexemes):
        c = lexeme[0]
        if c in " \t\r\n#":
            continue
        if lexeme == "]" and (want is _OPEN or want is _AFTER and stack):
            label, parent = stack.pop()
            parent.append(Node(label, tuple(trees)))
            trees = parent
            want = _AFTER
        elif want is _AFTER:
            if lexeme != ",":
                break
            want = _ITEM
        elif want is _BRACKET:
            if lexeme != "[":
                break
            stack.append((label, trees))
            trees = []
            want = _OPEN
        elif want is _PAREN:
            if lexeme != ")":
                at = paren
                break
            want = _AFTER
        elif c == '"' and len(lexeme) > 1:
            trees.append(StrVal(_unescape(lexeme[1:-1])))
            want = _AFTER
        elif lexeme == "true" or lexeme == "false":
            trees.append(BoolVal(lexeme == "true"))
            want = _AFTER
        elif lexeme == "(":
            paren = at
            want = _PAREN
        elif _is_label(lexeme):
            if lexeme[-1] != "]":
                label = lexeme
                want = _BRACKET
                continue
            items = lexeme.split(",")
            for item in set(items).difference(leaves):
                label = item[:-2]
                if not _is_label(label):
                    break
                leaves[item] = Node(label, ())
            else:
                trees += map(leaves.__getitem__, items)
                want = _AFTER
                continue
            for item in items:
                label = item[:-2]
                if not _is_label(label):
                    break
                within += len(item) + 1
            if label == "true" or label == "false":
                within += len(label)
                want = _AFTER
            break
        else:
            break
    else:
        if want is _AFTER and not stack:
            return tuple(trees)
        at = paren if want is _PAREN else len(lexemes)
    p = _Parser(text)
    tok = bisect_left(p.starts, sum(map(len, lexemes[:at])) + within)
    if want is _BRACKET:
        p.unexpected(tok, "", ("[",))
    if want is _AFTER:
        p.unexpected(tok, "", ("]" if stack else "end of value",))
    p.unexpected(tok, " in value", ("a value",))


def read_value(parse, text):
    """What ``parse`` makes of ``text``: the value, or the error's text,
    position and expected forms."""
    try:
        return parse(text)
    except ParseError as err:
        return str(err), err.offset, err.line, err.column, err.expected


def traced_peak(fn, *args):
    """``fn(*args)`` and the peak of the memory traced while it ran."""
    tracemalloc.start()
    try:
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


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
        # a text-only element or a label with its ``[``, read as one lexeme
        ('true["x"]', "unexpected '['", 4, 1, 5, ("end of value",)),
        ('let["x"]', "unexpected 'let' in value", 0, 1, 1, ("a value",)),
        ('A["x"]', "unexpected 'A' in value", 0, 1, 1, ("a value",)),
        ('a["x"]b', "unexpected 'b'", 6, 1, 7, ("end of value",)),
        ('a["x\\q"]', "bad string escape", 5, 1, 6, ()),
        ('a["x"', "unexpected end of input", 5, 1, 6, ("]",)),
        ('x[a["y"],false["z"]]', "unexpected '['", 14, 1, 15, ("]",)),
        # a label with its ``[`` read before, from the table of those
        ("x[a[]],x[let[]]", "unexpected 'let' in value", 9, 1, 10,
         ("a value",)),
        ("x[a[]],x[", "unexpected end of input in value", 9, 1, 10,
         ("a value",)),
        ("x[a[]],x[(", "unexpected '(' in value", 9, 1, 10, ("a value",)),
        ("x[a[]], x[ ( # c\n ]", "unexpected '(' in value", 11, 1, 12,
         ("a value",)),
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

    def test_value_error_on_a_value_is_a_fault(self):
        # ``parse_value`` calls ``value_error`` only when its loop fails, so
        # a text that reads as a value there is the loop's fault
        with pytest.raises(AssertionError, match="parse_value rejected"):
            _Parser('a[b[],"w"],(),x[ ]').value_error()

    @pytest.mark.parametrize("text, value", [
        ("( )", ()),
        ("a [ ]", (Node("a", ()),)),
        ("a[( ),b[]] # note\n, c[\t]", (Node("a", (Node("b", ()),)),
                                        Node("c", ()))),
        ('"x\\ny\\t"', (StrVal("x\ny\t"),)),
        ("true,\r\n\"\",false", (BoolVal(True), StrVal(""), BoolVal(False))),
        ('a [ "x" ]', (Node("a", (StrVal("x"),)),)),
        ('a[ "x"]', (Node("a", (StrVal("x"),)),)),
        ('a["x" ]', (Node("a", (StrVal("x"),)),)),
        # a label with its ``[`` read before, then a blank or a comment
        ("x[a[]],x[ ]", (Node("x", (Node("a", ()),)), Node("x", ()))),
        ("x[a[]],x[# c\n]", (Node("x", (Node("a", ()),)), Node("x", ()))),
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
        v = parse_value('leaf["w"],leaf["v"],leaf["w"]')
        assert v[0] is v[2] and v[0] is not v[1]

    def test_repeated_subtrees_share_a_node(self):
        # blanks and comments split the second ``x`` into other lexemes
        v = parse_value('x[a[b[],c["w"]],d[]],y[],'
                        'x[ a[ b[ ] , # note\n c["w"] ],d[]\t],'
                        'z[x[a[b[],c["w"]],d[]]]')
        assert v[0] is v[2] is v[3].children[0]
        assert v[0] == Node("x", (
            Node("a", (Node("b", ()), Node("c", (StrVal("w"),)))),
            Node("d", ())))
        v = parse_value("n[m[k[]],m[k[]],m[k[]],m[(),k[]]],"
                        "n[m[k[]],m[k[]],m[k[]],m[k[]]]")
        m = v[0].children[0]
        assert v[0] is v[1] and all(t is m for t in v[0].children)

    def test_colliding_subtrees_keep_their_children(self):
        # each ``x`` has the label, width and first and last child of the
        # one closed before it, and another middle child
        text = ("x[a[],b[],c[]],x[a[],d[],c[]],"
                "x[a[],y[b[]],c[]],x[a[],y[d[]],c[]]")
        v = parse_value(text)
        a, c = Node("a", ()), Node("c", ())
        assert v == (Node("x", (a, Node("b", ()), c)),
                     Node("x", (a, Node("d", ()), c)),
                     Node("x", (a, Node("y", (Node("b", ()),)), c)),
                     Node("x", (a, Node("y", (Node("d", ()),)), c)))
        assert v == reference_parse_value(text)
        # the key keeps the last node closed under it, so the two ``x``
        # again are nodes of their own, whose ``y`` is shared
        v = parse_value(text + ",x[a[],b[],c[]],x[a[],y[d[]],c[]]")
        assert v[4] == v[0] and v[5] == v[3] and v[5] is not v[3]
        assert v[5].children[1] is v[3].children[1]

    def test_calls_share_no_node(self):
        text = 'x[a[],b["w"]],x[a[],b["w"]]'
        v, w = parse_value(text), parse_value(text)
        assert v == w and v[0] is v[1] and w[0] is w[1]
        assert v[0] is not w[0]
        assert not any(s is t for s, t in zip(v[0].children, w[0].children))

    def test_text_of_small_values_is_pinned(self):
        # the text of every value of depth <= 4 and width <= 3 of each type
        # of AST size <= 4 over a and b, of depth <= 3 and width <= 3 of a
        # forest type with text-only elements, and of text-only elements
        # holding each escaped character, as the printer gave it when it
        # pushed every element with children on its stack
        texts = set()
        for t in types_upto(4, ("a", "b")):
            texts.update(map(value_str, values_upto(EMPTY_SIGNATURE, t, 4, 3)))
        texts.update(map(value_str, values_upto(EMPTY_SIGNATURE, parse_type(
            "(a[string] | b[a[string]*, bool] | string)*"), 3, 3)))
        texts = sorted(texts) + [
            value_str((Node("a", (StrVal(s),)), StrVal(s)))
            for s in ('"', "\\", "\n", "\t", 'x"\\\n\ty')]
        assert len(texts) == 6214
        assert hashlib.sha256("\n".join(texts).encode()).hexdigest() == (
            "9f8b28bfba5a64d4b229588b3bf526d3df6e19accbb4231530f8e8ea7de9a45e")

    def test_long_run_stays_small(self):
        text = ",".join(["a[]"] * 50000)
        v, peak = traced_peak(parse_value, text)
        assert len(v) == 50000 and peak < 2_000_000, peak

    def test_long_text_forest_stays_small(self):
        # 50,000 equal text-only elements are one node; the list of lexemes
        # is most of the peak
        text = ",".join(['leaf["w"]'] * 50000)
        v, peak = traced_peak(parse_value, text)
        assert len(v) == 50000 and peak < 6_000_000, peak

    def test_distinct_texts_cost_little_more(self):
        # the table holds one entry per distinct text-only element
        text = ",".join(f'leaf["w{i}"]' for i in range(50000))
        v, peak = traced_peak(parse_value, text)
        ref, ref_peak = traced_peak(reference_parse_value, text)
        assert v == ref and peak < 1.3 * ref_peak, (peak, ref_peak)


class TestValueReaderAgainstReference:
    """``parse_value`` reads a label with its ``[``, and a text-only
    element, as one lexeme, yet gives what the reference reader gives: the
    same value, or the same error at the same place."""

    TYPES = (
        ("", "(a[string] | b[a[string]*, c[]] | string | bool)*", 3, 3),
        ("", "x[(leaf[string] | y[])*], (leaf[string] | z[bool])?", 3, 3),
        ("type Tree = tree[leaf[string] | node[Tree*]]", "Tree*", 5, 2),
        # repeated subtrees, and ones that agree in label, width and first
        # and last child but not in the middle one
        ("", "(x[a[], (b[] | y[c[] | ()]), a[]] | z[x[a[], y[c[]]?, a[]]*])*",
         3, 3),
    )
    SEPARATORS = ("", "", "", " ", "\n", "\t", "\r\n", " # c\n")
    CORPUS = (
        'x[a["y\\n"],b[],c["z"]],d["w"]',
        't[rue["x"]],fa[lse["y"]],le[t["z"]]',
        't[rue[a[]]],fals[e[b["c"]]],le[t[d[],e[]]]',
        'n[_A["v"],a["\\"\\\\"],"s",true,()]',
        'a [ "x" ] , b[ "y" ] # c\n, c[(),d["e"]]',
        'a[],b["x"],c[],c[],b["x"]',
        'x[a[],b["v"],c[]],x[a[],b["w"],c[]],x[a[],b["v"],c[]],'
        'x[ a[],b["v"],c[]]',
        'n[m[k[],"s"],m[k[],"s"]],n[m[ k[] ,"s"],m[k[],"s"]],n[m[k[],"s"]]',
    )

    @staticmethod
    def agree(text):
        assert read_value(parse_value, text) == read_value(
            reference_parse_value, text), text

    def test_enumerated_values(self):
        # each value as printed, with escapes in its strings, and with
        # blanks and comments between its lexemes
        rng = random.Random(2008)
        for sig, text, depth, width in self.TYPES:
            values = values_upto(parse_signature(sig), parse_type(text),
                                 depth, width)
            for printed in sorted(map(value_str, values)):
                assert parse_value(printed) == reference_parse_value(printed)
                escaped = printed.replace('"a"', r'"a\"\\\n"')
                for t in (escaped, "".join(
                        lexeme + rng.choice(self.SEPARATORS)
                        for lexeme in _LEXEME_RE.findall(escaped))):
                    self.agree(t)

    def test_prefixes_and_deletions(self):
        for text in self.CORPUS:
            self.agree(text)
            for i in range(len(text)):
                self.agree(text[:i])
                self.agree(text[:i] + text[i + 1:])


class TestExprSyntax:
    def test_child_projection_requires_variable(self):
        parse_expr("$x/child")
        with pytest.raises(ParseError):
            parse_expr("(a[])/child")
        # the error points at the projected expression's first token
        for text in ("query a[]/child : ()", "query (a[], b[])/child"):
            with pytest.raises(ParseError) as exc:
                parse_program(text)
            assert str(exc.value) == ("child projection applies to a "
                                      "variable at offset 6 (line 1, column 7)")
            assert exc.value.offset == 6

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
        assert isinstance(e.items[0], For)

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
        assert type(e) is Concat and len(e.items) == n
        assert (e.span.begin, e.span.end) == (0, len(text))
        begin = 0
        for item, node in zip(items, e.items):
            assert node == parse_expr(item), item
            assert (node.span.begin, node.span.end) == (
                begin, begin + len(item))
            begin += len(item) + 2


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
        assert isinstance(s.items[0], Test)

    def test_parenthesized_sequence_as_body(self):
        from fluxq import Test, SeqStmt
        s = parse_stmt("b?(skip; delete)")
        assert isinstance(s, Test)
        assert isinstance(s.body, SeqStmt)

    def test_all_test_kinds(self):
        for text, admits in (("b?skip", "b"), ("*?skip", "*"),
                             ("bool?skip", BoolAtom),
                             ("string?skip", StringAtom)):
            s = parse_stmt(text)
            assert s.test == admits
            assert stmt_str(s) == text
            assert parse_stmt(stmt_str(s)) == s

    def test_nested_navigation(self):
        for text, written in (
                ("iter[a?children[iter[b? right[insert c[]]]]]",
                 "iter[a?children[iter[b?right[insert c[]]]]]"),
                ("left[ insert a[] ]", "left[insert a[]]"),
                ("right[left[skip]]", "right[left[skip]]"),
                ("children[ b?children[delete] ]", "children[b?children[delete]]")):
            s = parse_stmt(text)
            assert s.direction == text[:text.index("[")]
            assert stmt_str(s) == written
            assert parse_stmt(written) == s


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

    def test_several_parameters(self):
        # a ``,`` before a ``$`` variable ends a parameter's type; any other
        # ``,`` is a concatenation, as in one parameter's ``a[], b[]``
        a, b, c = (parse_type(f"{n}[]") for n in "abc")
        for params, expected in (
                ("$x : a[], b[]", (("x", Seq(a, b)),)),
                ("$x : a[], $y : b[] | c[]", (("x", a), ("y", Or(b, c)))),
                ("$x : a[]|b[], $y : c[], a[]?, $z : b[]*",
                 (("x", Or(a, b)), ("y", Seq(c, Or(a, EMPTY))),
                  ("z", Star(b))))):
            prog, _ = parse_program(
                f"declare function f({params}) : () {{ () }};\nquery () : ()")
            assert prog.functions[0].params == expected, params
            prog, _ = parse_program(
                f"declare procedure p({params}) : () => () {{ skip }};\n"
                "update skip : () => ()")
            assert prog.procedures[0].params == expected, params

    @pytest.mark.parametrize("params, message", [
        ("$x :", "unexpected ')' in type at offset 23 (line 1, column 24); "
         "expected a type"),
        ("$x : a[],", "unexpected ')' in type at offset 28 (line 1, "
         "column 29); expected a type"),
        ("$x : a[], $x : b[]",
         "duplicate parameter $x at offset 29 (line 1, column 30)"),
        ("$x : a[], $y",
         "unexpected ')' at offset 31 (line 1, column 32); expected :"),
        ("$x : a[] $y : b[]",
         "unexpected 'y' at offset 28 (line 1, column 29); expected )"),
    ])
    def test_malformed_parameter_lists(self, params, message):
        with pytest.raises(ParseError) as exc:
            parse_program(f"declare function f({params}) : a[] {{ $x }};\n"
                          "query a[] : a[]")
        assert str(exc.value) == message

    def test_comma_before_a_variable_ends_a_type(self):
        # no type begins with ``$``: the ``,`` is left to the caller
        with pytest.raises(ParseError) as exc:
            parse_type("a[], $x")
        assert str(exc.value) == (
            "unexpected ',' at offset 3 (line 1, column 4); "
            "expected end of type")


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


class TestLazySpan:
    """A parsed node records its offsets and the parse's one ``SourceText``,
    and its ``span`` is the ``SourceSpan`` they resolve to when read."""

    TEXT = "# no node holds this comment\nlet $x =\n  b[] in $x"

    def test_used_as_its_eager_twin(self):
        lazy = parse_expr(self.TEXT, "f").span
        eager = SourceSpan("f", 29, 49, 2, 1, 3, 12)
        assert type(lazy) is SourceSpan and lazy == eager
        assert tuple(lazy) == tuple(eager) and len(lazy) == 7
        assert lazy[1] == lazy.begin == 29
        assert json.dumps(lazy._asdict()) == json.dumps(eager._asdict())

    def test_fields_cannot_be_assigned(self):
        span = parse_expr(self.TEXT).span
        for field in SourceSpan._fields:
            with pytest.raises(AttributeError):
                setattr(span, field, 0)

    def test_one_source_per_parse(self):
        e = parse_expr(self.TEXT)
        records = (e._span, e.bound._span, e.body._span)
        assert len({id(source) for _, _, source in records}) == 1

    def test_newline_table_built_once_on_first_lookup(self):
        source = _Parser(self.TEXT).source
        assert source._newlines is None
        assert source.line_col(29) == (2, 1)
        table = source._newlines
        assert table == [28, 37]
        assert source.line_col(49) == (3, 12)
        assert source._newlines is table

    @pytest.mark.parametrize("twin", [copy.copy, copy.deepcopy,
                                      lambda x: pickle.loads(pickle.dumps(x))],
                             ids=["copy", "deepcopy", "pickle"])
    def test_copies_hold_seven_fields_and_no_text(self, twin):
        node = parse_expr(self.TEXT)
        for x in (node, node.span):
            span = getattr(twin(x), "span", twin(x))
            assert type(span) is SourceSpan and span == node.span
            assert all(type(v) in (str, int) for v in span)
        assert b"comment" not in pickle.dumps(node)


class TestDiagnosticSpans:
    """A diagnostic's span is a ``SourceSpan``, read as the tuple of its
    seven fields, as a node's span is when read."""

    @staticmethod
    def spans(diags):
        for d in diags:
            assert isinstance(d.span, SourceSpan)
            assert len(d.span) == 7 and d.span[1] == d.span.begin
        return [tuple(d.span) for d in diags]

    def test_ill_typed_program(self):
        prog, sig = parse_program(
            "declare function f() : b[] { a[] };\n"
            "declare function f() : a[] { a[] };\n"
            'query "s" : bool\n', "p")
        _, diags = check_program(sig, prog)
        assert self.spans(diags) == [("p", 36, 71, 2, 1, 2, 36),
                                     ("p", 29, 32, 1, 30, 1, 33),
                                     ("p", 78, 81, 3, 7, 3, 10)]
        assert type(prog.main.span) is SourceSpan

    def test_ill_formed_signature(self):
        sig = parse_signature("type X = a[] | Y\ntype Z = z[Z] | Z\n", "s")
        assert self.spans(check_signature(sig)) == [
            ("s", 15, 16, 1, 16, 1, 17), ("s", 15, 16, 1, 16, 1, 17),
            ("s", 33, 34, 2, 17, 2, 18)]

    @pytest.mark.parametrize("twin", [copy.copy, copy.deepcopy,
                                      lambda x: pickle.loads(pickle.dumps(x))],
                             ids=["copy", "deepcopy", "pickle"])
    def test_copied_signature_holds_no_text_and_reports_alike(self, twin):
        # a declaration's recorded spans are resolved in the copy, as a
        # node's are: the pickle holds no comment, and the diagnostics of
        # an ill-formed signature keep their spans
        comment = "# " + "comment " * 600 + "\n"
        for text in ("type X = a[] | Y\ntype Z = z[Z] | Z\n",
                     "type L = cons[L]\ntype T = a[]\n"):
            sig = parse_signature(comment + text, "s")
            assert b"comment" not in pickle.dumps(sig)
            copied = twin(sig)
            assert copied == sig and b"comment" not in pickle.dumps(copied)
            assert check_signature(copied) == check_signature(sig)
            assert self.spans(check_signature(copied)) == self.spans(
                check_signature(sig))


LONG_PROGRAMS = [
    "update " + "; ".join(["skip"] * 5000) + " : a[] => a[]",
    "query " + ", ".join(["a[]"] * 5000) + " : a[]*",
    "update children[" + "; ".join(["delete"] * 5000) + "]; iter[skip]"
    " : a[] => a[]",
    "query a[" + ", ".join(["b[]"] * 5000) + "], f(" + ", ".join(
        ["()"] * 5000) + ") : a[]",
]
LONG_IDS = ["statements", "items", "nested-statements", "nested-items"]


class TestLongLists:
    """A ``,`` or ``;`` list of any length prints, one item after another
    in a loop, and its text parses back to a list that prints the same and
    is the same tree: ``==`` and ``hash`` walk a list with their own
    stack."""

    @pytest.mark.parametrize("text", LONG_PROGRAMS, ids=LONG_IDS)
    def test_5000_items_print_parse_and_print_again(self, text):
        printed = program_str(*parse_program(text))
        assert printed == text + "\n"
        assert program_str(*parse_program(printed)) == printed
        assert program_str(parse_program(printed)[0]) == printed

    @pytest.mark.parametrize("text", LONG_PROGRAMS, ids=LONG_IDS)
    def test_5000_items_parse_back_to_an_equal_tree(self, text):
        prog = parse_program(text)[0]
        again = parse_program(program_str(prog))[0]
        assert again == prog and not again != prog
        assert hash(again) == hash(prog)

    @pytest.mark.parametrize("parse, sep, item, other", [
        (parse_stmt, "; ", "skip", "delete"), (parse_expr, ", ", "a[]", "b[]")],
        ids=["statements", "items"])
    def test_5000_item_lists_compare_and_hash(self, parse, sep, item, other):
        items = [item] * 5000
        a, b = parse(sep.join(items)), parse(sep.join(items))
        changed = parse(sep.join(items[:-1] + [other]))
        assert a == b and hash(a) == hash(b)
        assert a != changed and not a == changed
        assert a != parse(sep.join(items[:-1]))
        assert changed == parse(sep.join(items[:-1] + [other]))
        assert len({a, b, changed}) == 2

    @pytest.mark.parametrize("text", [
        "a[], (b[], c[]), d[]", "let $x = (a[], b[]) in ($x, $x), ()",
        "f((a[], b[]), c[]), x[a[], b[]]",
        "for $y in ($x, $x) return ($y, $y), $x::a",
        "a[], (b[], c[])", "(a[], b[]), c[]"])
    def test_nested_items_print_as_written(self, text):
        e = parse_expr(text)
        assert expr_str(e) == text
        assert parse_expr(expr_str(e)) == e

    @pytest.mark.parametrize("text", [
        "skip; (delete; skip); iter[skip; delete]",
        "a?(skip; delete); b?skip",
        "if true then (skip; skip) else delete; "
        "left[insert (a[], b[]); skip]",
        "p((a[], b[])); snapshot $s in (skip; skip)",
        "skip; (delete; skip)", "b?(skip; delete)"])
    def test_nested_statements_print_as_written(self, text):
        s = parse_stmt(text)
        assert stmt_str(s) == text
        assert parse_stmt(stmt_str(s)) == s


class TestListNodes:
    """A ``,`` or ``;`` list is one node holding its items: a list that is
    an item of another prints in parentheses and parses back to itself,
    and the checker reads the items in written order."""

    def test_a_generated_right_nested_list_round_trips(self):
        cfg = GenConfig(seed=12, cases=0)
        rng = random.Random(12)
        for _ in range(400):
            env = gen_env(rng, cfg, EMPTY_SIGNATURE)
            e = gen_typed_expr(rng, cfg, EMPTY_DECLS, EMPTY_SIGNATURE, env)
            if type(e) is Concat and type(e.items[-1]) is Concat:
                break
        else:
            pytest.fail("no list ending in a list in 400 draws")
        text = expr_str(e)
        assert text.endswith(")")
        assert parse_expr(text) == e

    @pytest.mark.parametrize("text, rule, span", [
        ("query a[], $y, $z : a[]*", "query/var-unbound", (11, 13)),
        ('query a[], (if "s" then a[] else b[]), c[] : a[]*',
         "query/if-condition", (12, 36)),
        ("query a[], b[], c[] : a[]", "query/ascription", (6, 19)),
        ("update skip; rename b; rename c : a[] => a[]",
         "update/rename-multiplicity", (13, 21)),
        ("update skip; iter[insert a[]]; skip : a[] => a[]",
         "update/insert-multiplicity", (18, 28)),
        ("update skip; delete; skip : a[] => a[]", "update/ascription",
         (7, 25))])
    def test_an_ill_typed_list_reports_its_first_failure(self, text, rule,
                                                         span):
        prog, sig = parse_program(text)
        [diag] = check_program(sig, prog)[1]
        assert (diag.rule, diag.span.begin, diag.span.end) == (rule, *span)


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
        for _ in range(400):
            env = gen_env(rng, cfg, EMPTY_SIGNATURE)
            e = gen_typed_expr(rng, cfg, EMPTY_DECLS, EMPTY_SIGNATURE, env)
            assert parse_expr(expr_str(e)) == e

    def test_random_stmts_round_trip(self):
        cfg = GenConfig(seed=12, cases=0)
        rng = random.Random(12)
        for _ in range(400):
            t = gen_type(rng, cfg, size=5)
            s = gen_typed_stmt(rng, cfg, EMPTY_DECLS, EMPTY_SIGNATURE, {},
                               Multiplicity.PLURAL, t)
            assert parse_stmt(stmt_str(s)) == s

    def test_random_headers_round_trip(self):
        # functions and procedures of 0-3 parameters whose types, drawn by
        # ``gen_type``, may have a top-level ``|`` or ``,``
        cfg = GenConfig(seed=14)
        rng = random.Random(14)

        def params():
            return tuple((f"x{i}", gen_type(rng, cfg))
                         for i in range(rng.randint(0, 3)))

        for _ in range(100):
            functions = tuple(
                FunctionDecl(f"f{i}", params(), gen_type(rng, cfg), EmptySeq())
                for i in range(2))
            procedures = tuple(
                ProcedureDecl(f"p{i}", params(), gen_type(rng, cfg),
                              gen_type(rng, cfg), Skip())
                for i in range(2))
            for prog in (
                    QueryProgram(functions, EmptySeq(), gen_type(rng, cfg)),
                    UpdateProgram(functions, procedures, Skip(),
                                  gen_type(rng, cfg), gen_type(rng, cfg))):
                assert parse_program(program_str(prog))[0] == prog

    def test_random_types_round_trip(self):
        cfg = GenConfig(seed=13)
        rng = random.Random(13)
        for _ in range(300):
            t = gen_type(rng, cfg)
            assert parse_type(type_str(t)) == t
