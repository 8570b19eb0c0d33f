"""Concrete syntax: lexer and recursive-descent parsers.

Types:        ``()  bool  string  n[t]  n[]  t,t  t|t  t*  t+  t?  X``
              (postfix quantifiers bind tightest, then ``,``, then ``|``;
              uppercase-initial identifiers are type variables).
Values:       ``true  false  "text"  n[...]  ()``, comma-separated forests.
Queries:      ``()  e,e  n[e]  "w"  true  false  $x  let $x = e in e
              if e then e else e  $x/child  e::n  $x/n  e/*
              for $y in e return e  f(e,...)``.
Statements:   ``skip  s;s  if e then s else s  let $x = e in s  insert e
              delete  rename n  snapshot $x in s  n?s  *?s  bool?s
              string?s  left[s]  right[s]  children[s]  iter[s]  p(e,...)``;
              ``?`` binds tighter than ``;``; ``(s)`` groups.
Programs:     ``type X = t`` entries, ``declare function f($x:t,...) : t
              { e };`` and ``declare procedure p($x:t,...) : t => t { s };``
              declarations, ended by ``query e : t`` or
              ``update s : t1 => t2``.

Values are read by one loop over the lexemes with a stack of the open
elements, so a value of any depth parses; types, expressions and
statements are parsed by recursive descent.  A value lexeme is a program
lexeme, except that a word may run on as a blank-free run of up to 256
empty elements, ``n[],m[],...``, split with one ``str.split``.  The cap
bounds the backtracking state ``sre`` keeps for each repeat (Python 3.10
has no possessive ``*+``), so a long flat forest is read as many runs.

The derived type forms normalize while parsing (``t+`` to ``t,t*``, ``t?``
to ``t|()``, ``n[]`` to ``n[()]``), and ``e/n`` and ``e/*`` elaborate to
their for-loop cores.  Variables keep the names written: an inner binder
shadows an outer one in the checker's and evaluator's environments.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from functools import cache

from .diagnostics import SourceSpan
from .errors import ParseError
from .queries import (
    BoolLit, Call, Children, Concat, Elem, EmptySeq, For, FunctionDecl, If,
    LabelFilter, Let, QueryExpr, QueryProgram, StrLit, VarRef,
)
from .subtyping import (
    BoolTest, LabelTest, StringTest, TestKind, WildcardTest,
)
from .types import (
    BOOL, Declared, Element, EMPTY, Or, Seq, Signature, Star, STRING, Type,
    Var, optional, plus,
)
from .updates import (
    Delete, Direction, IfStmt, Insert, LetStmt, Nav, ProcCall, ProcedureDecl,
    Rename, SeqStmt, Skip, Snapshot, Test, UpdateProgram, UpdateStmt,
)
from .values import FALSE, Forest, Node, StrVal, TRUE, Tree

KEYWORDS = frozenset({
    "type", "query", "update", "declare", "function", "procedure",
    "let", "in", "if", "then", "else", "for", "return", "true", "false",
    "skip", "insert", "delete", "rename", "snapshot", "child", "children",
    "left", "right", "iter", "bool", "string",
})

_ESCAPES = {"\\": "\\", '"': '"', "n": "\n", "t": "\t"}

_PUNCT = {p: p for p in ("::", "=>", "(", ")", "[", "]", "{", "}", ",", "|",
                          "*", "+", "?", "=", ";", ":", "/")}

# One lexeme per match, and every character is in one: blanks, a comment,
# a word, two-character punctuation, a variable, a string literal, or any
# single character.  ``tokenize`` and ``parse_value`` sort them by their
# first character.
_STRING_BODY = r'"(?:[^"\\\n]|\\[\\"nt])*'
_LEXEME_RE = re.compile(r'[ \t\r\n]+|#[^\n]*|\w+|::|=>|\$\w*|'
                        + _STRING_BODY + '"|.', re.DOTALL)
_STRING_PREFIX_RE = re.compile(_STRING_BODY)
_ESCAPE_RE = re.compile(r"\\(.)")
_NEWLINE_RE = re.compile("\n")

# the ``?`` tests written as a keyword or ``*``; any other is a label test
_TESTS = {"bool": BoolTest, "string": StringTest, "*": WildcardTest}

# What ``parse_value`` reads next, and the lexemes it skips.
_ITEM, _OPEN, _BRACKET, _PAREN, _AFTER = (object() for _ in range(5))
_BLANK = " \t\r\n#"


@cache
def _value_lexeme_re() -> re.Pattern:
    """``parse_value``'s lexemes: those of ``_LEXEME_RE``, but a word may run
    on as a run of empty elements, capped at 256 (see the module
    docstring).  Compiled on first use, as ``check`` reads no value."""
    return re.compile(_LEXEME_RE.pattern.replace(
        r"|\w+|", r"|\w+(?:\[\](?:,\w+\[\]){0,255})?|", 1), re.DOTALL)


@cache
def _env_item_re() -> re.Pattern:
    """A ``--env`` item: it runs to the next ``;`` outside a string
    literal.  Compiled on first use."""
    return re.compile(r'(?:' + _STRING_BODY + r'"|[^;])+')


def _newline_table(text: str) -> list[int]:
    return [m.start() for m in _NEWLINE_RE.finditer(text)]


def _line_col(newlines: list[int], offset: int) -> tuple[int, int]:
    """1-based line and column of ``offset``, counting characters."""
    line = bisect_left(newlines, offset)
    return line + 1, offset - (newlines[line - 1] if line else -1)


def _is_label(word: str) -> bool:
    """``word`` can label an element: a lowercase-initial identifier that is
    not a keyword."""
    c = word[0]
    return ((c.isalpha() or c == "_") and not c.isupper()
            and word not in KEYWORDS)


def _lex_error(text: str, message: str, offset: int) -> ParseError:
    return ParseError(message, offset, *_line_col(_newline_table(text), offset))


def tokenize(text: str) -> tuple[list[str], list[str], list[int], list[int]]:
    """Parallel lists of token kinds, texts, start and end offsets, ending
    with an ``EOF`` token.  A kind is ``IDENT``, ``TYPEVAR``, ``VAR``,
    ``STRING``, a keyword, or the punctuation text itself."""
    kinds: list[str] = []
    texts: list[str] = []
    starts: list[int] = []
    ends: list[int] = []
    end = 0
    for lexeme in _LEXEME_RE.findall(text):
        start, end = end, end + len(lexeme)
        kind = _PUNCT.get(lexeme)
        if kind is None:
            c = lexeme[0]
            if c in _BLANK:
                continue
            if c.isalpha() or c == "_":
                kind = (lexeme if lexeme in KEYWORDS
                        else "TYPEVAR" if c.isupper() else "IDENT")
            elif c == "$":
                if not lexeme[1:2].isalpha():
                    raise _lex_error(text, "expected variable name after $", start)
                kind, lexeme = "VAR", lexeme[1:]
            elif c == '"' and end - start > 1:
                kind = "STRING"
                lexeme = _ESCAPE_RE.sub(lambda e: _ESCAPES[e[1]], lexeme[1:-1])
            elif c == '"':
                stop = _STRING_PREFIX_RE.match(text, start).end()
                if stop < len(text) and text[stop] == "\\":
                    raise _lex_error(text, "bad string escape", stop + 1)
                raise _lex_error(text, "unterminated string literal", start)
            else:
                raise _lex_error(text, f"unexpected character {c!r}", start)
        kinds.append(kind)
        texts.append(lexeme)
        starts.append(start)
        ends.append(end)
    kinds.append("EOF")
    texts.append("")
    starts.append(len(text))
    ends.append(len(text))
    return kinds, texts, starts, ends


class _Parser:
    def __init__(self, text: str, filename: str = "<input>"):
        self.text = text
        self.filename = filename
        self.kinds, self.texts, self.starts, self.ends = tokenize(text)
        self.last = len(self.kinds) - 1  # the EOF token, never passed
        self.pos = 0
        self._newlines: list[int] | None = None
        self._sugar_count = 0
        # the variable uses read so far in the ``type`` declaration being
        # parsed (see ``types.Declared``), and how deep in element content
        # the reader is
        self._uses: list[tuple[str, SourceSpan]] = []
        self._top: list[tuple[str, SourceSpan]] = []
        self._content_depth = 0

    # -- token plumbing ------------------------------------------------
    # Tokens are indices into the parallel lists; ``pos`` is the next one.

    def next(self) -> int:
        pos = self.pos
        if pos < self.last:
            self.pos = pos + 1
        return pos

    def at(self, *kinds: str) -> bool:
        return self.kinds[self.pos] in kinds

    def accept(self, kind: str) -> bool:
        if self.kinds[self.pos] != kind:
            return False
        self.next()
        return True

    def expect(self, kind: str, what: str | None = None) -> str:
        """Consume a ``kind`` token and return its text."""
        if self.kinds[self.pos] != kind:
            self.unexpected(self.pos, "", (what or kind,))
        return self.texts[self.next()]

    def line_col(self, offset: int) -> tuple[int, int]:
        if self._newlines is None:
            self._newlines = _newline_table(self.text)
        return _line_col(self._newlines, offset)

    def error_at(self, tok: int, message: str,
                 expected: tuple[str, ...] = ()) -> ParseError:
        offset = self.starts[tok]
        return ParseError(message, offset, *self.line_col(offset), expected)

    def fail(self, message: str, expected: tuple[str, ...] = ()):
        raise self.error_at(self.pos, message, expected)

    def unexpected(self, tok: int, context: str, expected: tuple[str, ...]):
        found = "end of input" if tok == self.last else repr(self.texts[tok])
        raise self.error_at(tok, f"unexpected {found}{context}", expected)

    def span_from(self, start: int) -> SourceSpan:
        """The span from token ``start`` through the last token consumed:
        ``end`` is the offset past that token, and ``end_line``/``end_col``
        are the position of ``end``."""
        prev = max(self.pos - 1, 0)
        end = prev if self.ends[prev] >= self.starts[start] else start
        return SourceSpan(self.filename, self.starts[start], self.ends[end],
                          *self.line_col(self.starts[start]),
                          *self.line_col(self.ends[end]))

    def parse_list(self, parse_item, op: str, node):
        """``a op b op c`` as ``node(a, node(b, c))``, parsed with a loop so
        long lists cannot exhaust the stack; every node's span runs to the
        end of the list, unless the node is a type, which has none."""
        items = [(self.pos, parse_item())]
        while self.accept(op):
            items.append((self.pos, parse_item()))
        _, out = items.pop()
        if issubclass(node, Type):
            for _, item in reversed(items):
                out = node(item, out)
            return out
        for start, item in reversed(items):
            out = node(item, out, span=self.span_from(start))
        return out

    def _fresh_var(self) -> str:
        self._sugar_count += 1
        return f"y{self._sugar_count}"

    # -- types -----------------------------------------------------------

    def parse_type(self) -> Type:
        return self.parse_list(self.parse_type_seq, "|", Or)

    def parse_type_seq(self) -> Type:
        return self.parse_list(self.parse_type_postfix, ",", Seq)

    def parse_type_postfix(self) -> Type:
        mark = len(self._top)
        t = self.parse_type_primary()
        while self.at("*", "+", "?"):
            op = self.kinds[self.next()]
            if op == "*":
                t = Star(t)
            elif op == "+":
                t = plus(t)
                # ``t, t*`` holds the top-level uses of ``t`` twice
                self._top += self._top[mark:]
            else:
                t = optional(t)
        return t

    def parse_type_primary(self) -> Type:
        tok = self.next()
        kind = self.kinds[tok]
        if kind == "(":
            if self.accept(")"):
                return EMPTY
            t = self.parse_type()
            self.expect(")")
            return t
        if kind == "bool":
            return BOOL
        if kind == "string":
            return STRING
        if kind == "TYPEVAR":
            use = (self.texts[tok], self.span_from(tok))
            self._uses.append(use)
            if not self._content_depth:
                self._top.append(use)
            return Var(use[0])
        if kind == "IDENT":
            self.expect("[")
            if self.accept("]"):
                content: Type = EMPTY
            else:
                self._content_depth += 1
                content = self.parse_type()
                self._content_depth -= 1
                self.expect("]")
            return Element(self.texts[tok], content)
        self.unexpected(tok, " in type", ("a type",))

    # -- query expressions -------------------------------------------------

    def parse_expr(self) -> QueryExpr:
        return self.parse_list(self.parse_expr_single, ",", Concat)

    def parse_expr_single(self) -> QueryExpr:
        tok = self.pos
        if self.accept("let"):
            return self.parse_let(tok, self.parse_expr_single, Let)
        if self.accept("for"):
            var = self.expect("VAR", "a variable")
            self.expect("in")
            source = self.parse_expr_single()
            self.expect("return")
            body = self.parse_expr_single()
            return For(var, source, body, span=self.span_from(tok))
        if self.accept("if"):
            return self.parse_if(tok, self.parse_expr_single, If)
        return self.parse_expr_path()

    # ``let`` and ``if`` after the keyword at ``tok``, as expressions or as
    # statements: ``body`` and ``branch`` parse the parts, ``node`` builds

    def parse_let(self, tok: int, body, node):
        var = self.expect("VAR", "a variable")
        self.expect("=")
        bound = self.parse_expr_single()
        self.expect("in")
        return node(var, bound, body(), span=self.span_from(tok))

    def parse_if(self, tok: int, branch, node):
        cond = self.parse_expr_single()
        self.expect("then")
        then = branch()
        self.expect("else")
        return node(cond, then, branch(), span=self.span_from(tok))

    def parse_expr_path(self) -> QueryExpr:
        start = self.pos
        e = self.parse_expr_primary()
        while True:
            if self.accept("::"):
                label = self.expect("IDENT", "a label")
                e = LabelFilter(e, label, span=self.span_from(start))
            elif self.accept("/"):
                if self.accept("child"):
                    if not isinstance(e, VarRef):
                        self.fail("child projection applies to a variable")
                    e = Children(e.name, span=self.span_from(start))
                elif self.accept("*"):
                    fresh = self._fresh_var()
                    span = self.span_from(start)
                    e = For(fresh, e, Children(fresh, span=span), span=span)
                else:
                    label = self.expect("IDENT", "a label")
                    fresh = self._fresh_var()
                    span = self.span_from(start)
                    e = For(fresh, e,
                            LabelFilter(Children(fresh, span=span), label,
                                        span=span), span=span)
            else:
                return e

    def parse_expr_primary(self) -> QueryExpr:
        tok = self.next()
        kind = self.kinds[tok]
        if kind == "(":
            if self.accept(")"):
                return EmptySeq(span=self.span_from(tok))
            e = self.parse_expr()
            self.expect(")")
            return e
        if kind == "true":
            return BoolLit(True, span=self.span_from(tok))
        if kind == "false":
            return BoolLit(False, span=self.span_from(tok))
        if kind == "STRING":
            return StrLit(self.texts[tok], span=self.span_from(tok))
        if kind == "VAR":
            return VarRef(self.texts[tok], span=self.span_from(tok))
        if kind == "IDENT":
            if self.accept("["):
                if self.accept("]"):
                    content: QueryExpr = EmptySeq()
                else:
                    content = self.parse_expr()
                    self.expect("]")
                return Elem(self.texts[tok], content, span=self.span_from(tok))
            self.expect("(", "( to begin arguments")
            return Call(self.texts[tok], self.parse_args(),
                        span=self.span_from(tok))
        self.unexpected(tok, " in expression", ("an expression",))

    def parse_args(self) -> tuple[QueryExpr, ...]:
        """Call arguments after the opening ``(``, through the ``)``."""
        args: list[QueryExpr] = []
        if not self.at(")"):
            args.append(self.parse_expr_single())
            while self.accept(","):
                args.append(self.parse_expr_single())
        self.expect(")")
        return tuple(args)

    # -- update statements -------------------------------------------------

    def parse_stmt(self) -> UpdateStmt:
        return self.parse_list(self.parse_stmt_item, ";", SeqStmt)

    def parse_stmt_item(self) -> UpdateStmt:
        tok = self.pos
        kind = self.kinds[tok]
        if kind in ("bool", "string", "*") or (
                kind == "IDENT" and self.kinds[tok + 1] == "?"):
            return self.parse_test()
        self.next()
        if kind == "(":
            s = self.parse_stmt()
            self.expect(")")
            return s
        if kind == "skip":
            return Skip(span=self.span_from(tok))
        if kind == "delete":
            return Delete(span=self.span_from(tok))
        if kind == "insert":
            expr = self.parse_expr_single()
            return Insert(expr, span=self.span_from(tok))
        if kind == "rename":
            label = self.expect("IDENT", "a label")
            return Rename(label, span=self.span_from(tok))
        if kind == "if":
            return self.parse_if(tok, self.parse_stmt_item, IfStmt)
        if kind == "let":
            return self.parse_let(tok, self.parse_stmt_item, LetStmt)
        if kind == "snapshot":
            var = self.expect("VAR", "a variable")
            self.expect("in")
            body = self.parse_stmt_item()
            return Snapshot(var, body, span=self.span_from(tok))
        if kind in ("left", "right", "children", "iter"):
            self.expect("[")
            body = self.parse_stmt()
            self.expect("]")
            return Nav(Direction(kind), body, span=self.span_from(tok))
        if kind == "IDENT":
            self.expect("(", "( to begin arguments")
            return ProcCall(self.texts[tok], self.parse_args(),
                            span=self.span_from(tok))
        self.unexpected(tok, " in update statement", ("an update statement",))

    def parse_test(self) -> UpdateStmt:
        tok = self.next()
        kind = self.kinds[tok]
        test: TestKind = (_TESTS[kind]() if kind in _TESTS
                          else LabelTest(self.texts[tok]))
        self.expect("?")
        body = self.parse_stmt_item()
        return Test(test, body, span=self.span_from(tok))

    # -- programs ----------------------------------------------------------

    def parse_params(self) -> tuple[tuple[str, Type], ...]:
        self.expect("(")
        params: list[tuple[str, Type]] = []
        if not self.at(")"):
            while True:
                name = self.expect("VAR", "a parameter")
                self.expect(":")
                t = self.parse_type()
                if any(name == seen for seen, _ in params):
                    self.fail(f"duplicate parameter ${name}")
                params.append((name, t))
                if not self.accept(","):
                    break
        self.expect(")")
        return tuple(params)

    def parse_type_decl(self, decls: dict[str, tuple[Type, Declared]]) -> None:
        """A ``type X = t`` declaration, entered in ``decls`` with what
        ``check_signature`` reads of its text; a later one of the same
        name replaces it in place, as in ``Signature``."""
        tok = self.pos
        self.expect("type")
        name = self.expect("TYPEVAR", "a type variable")
        self.expect("=")
        self._uses, self._top = [], []
        t = self.parse_type()
        decls[name] = t, Declared(self.span_from(tok), tuple(self._uses),
                                  tuple(self._top))

    def parse_header(self, update: bool) -> list[Type]:
        """``: t``, or ``: t1 => t2`` for a procedure or an update."""
        self.expect(":")
        header = [self.parse_type()]
        if update:
            self.expect("=>")
            header.append(self.parse_type())
        return header

    def parse_program(self) -> tuple[QueryProgram | UpdateProgram, Signature]:
        decls: dict[str, tuple[Type, Declared]] = {}
        functions: list[FunctionDecl] = []
        procedures: list[ProcedureDecl] = []
        while True:
            tok = self.pos
            if self.at("type"):
                self.parse_type_decl(decls)
            elif self.accept("declare"):
                kind = self.kinds[self.pos]
                if not (self.accept("function") or self.accept("procedure")):
                    self.fail("expected 'function' or 'procedure'",
                              expected=("function", "procedure"))
                update = kind == "procedure"
                name = self.expect("IDENT", f"a {kind} name")
                params = self.parse_params()
                header = self.parse_header(update)
                self.expect("{")
                body = self.parse_stmt() if update else self.parse_expr()
                self.expect("}")
                self.expect(";")
                decl = (ProcedureDecl if update else FunctionDecl)(
                    name, params, *header, body, span=self.span_from(tok))
                (procedures if update else functions).append(decl)
            elif self.accept("query") or self.accept("update"):
                update = self.kinds[tok] == "update"
                main = self.parse_stmt() if update else self.parse_expr()
                header = self.parse_header(update)
                self.expect("EOF", "end of program")
                if update:
                    prog = UpdateProgram(tuple(functions), tuple(procedures),
                                         main, *header, span=self.span_from(tok))
                elif procedures:
                    raise self.error_at(
                        tok, "query programs cannot declare procedures")
                else:
                    prog = QueryProgram(tuple(functions), main, *header,
                                        span=self.span_from(tok))
                return prog, _signature(decls)
            else:
                self.unexpected(self.pos, " at top level",
                                ("type", "declare", "query", "update"))

    def parse_signature(self) -> Signature:
        decls: dict[str, tuple[Type, Declared]] = {}
        while not self.at("EOF"):
            self.parse_type_decl(decls)
        return _signature(decls)


def _signature(decls: dict[str, tuple[Type, Declared]]) -> Signature:
    return Signature([(name, t) for name, (t, _) in decls.items()],
                     {name: text for name, (_, text) in decls.items()})


# -- public entry points -----------------------------------------------


def parse_program(text: str, filename: str = "<input>") -> tuple[
        QueryProgram | UpdateProgram, Signature]:
    """Parse a full program; returns the program plus its type signature."""
    return _Parser(text, filename).parse_program()


def _parse_whole(text: str, filename: str, rule, what: str):
    """The whole of ``text`` read by the ``_Parser`` method ``rule``; input
    left over is an error that expects the end of ``what``."""
    p = _Parser(text, filename)
    out = rule(p)
    p.expect("EOF", f"end of {what}")
    return out


def parse_type(text: str, filename: str = "<type>") -> Type:
    return _parse_whole(text, filename, _Parser.parse_type, "type")


def parse_value(text: str, filename: str = "<value>") -> Forest:
    """A forest, read in one loop over the lexemes with a stack of the open
    elements, so its depth is not bounded by Python's recursion.  A run of
    empty elements is one lexeme, and each distinct ``n[]`` in the text is
    one ``Node`` shared by all its occurrences."""
    lexemes = _value_lexeme_re().findall(text)
    stack: list[tuple[str, list[Tree]]] = []  # open labels, trees before each
    trees: list[Tree] = []
    leaves: dict[str, Node] = {}  # ``n[]`` text -> its one node
    # the next lexeme must be: _ITEM a tree or ``()``, _OPEN one of those or
    # ``]``, _BRACKET the ``[`` after a label, _PAREN the ``)`` of ``()``,
    # _AFTER a ``,``, a ``]`` or the end
    want = _ITEM
    within = 0  # offset of the error in the ``at``-th lexeme
    for at, lexeme in enumerate(lexemes):
        c = lexeme[0]
        if c in _BLANK:
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
            body = lexeme[1:-1]
            if "\\" in body:
                body = _ESCAPE_RE.sub(lambda e: _ESCAPES[e[1]], body)
            trees.append(StrVal(body))
            want = _AFTER
        elif lexeme == "true" or lexeme == "false":
            trees.append(TRUE if lexeme == "true" else FALSE)
            want = _AFTER
        elif lexeme == "(":
            paren = at
            want = _PAREN
        elif _is_label(lexeme):
            # a label, or a run of empty elements that starts like one; the
            # run's labels are each tested below
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
            # the first item that is no leaf fails at its label, or, as
            # ``true`` or ``false`` read as atoms, at the ``[`` after it
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
    # report the token at the error's offset (the end of input past the
    # last), unless tokenizing finds a lexing error, which wins as in every
    # parser here
    p = _Parser(text)
    tok = bisect_left(p.starts, sum(map(len, lexemes[:at])) + within)
    if want is _BRACKET:
        p.unexpected(tok, "", ("[",))
    if want is _AFTER:
        p.unexpected(tok, "", ("]" if stack else "end of value",))
    p.unexpected(tok, " in value", ("a value",))


def parse_expr(text: str, filename: str = "<expr>") -> QueryExpr:
    return _parse_whole(text, filename, _Parser.parse_expr, "expression")


def parse_stmt(text: str, filename: str = "<stmt>") -> UpdateStmt:
    return _parse_whole(text, filename, _Parser.parse_stmt, "statement")


def parse_signature(text: str, filename: str = "<sig>") -> Signature:
    return _Parser(text, filename).parse_signature()


def parse_binding(spec: str, expected: str) -> tuple[str, str]:
    """The name, without ``$``, and the text of a CLI ``NAME=TEXT``
    binding; a spec with no ``=`` or no name is a ``ParseError`` that
    names the ``expected`` form."""
    name, eq, text = spec.partition("=")
    name = name.strip().lstrip("$")
    if not eq or not name:
        raise ParseError(f"bad binding {spec!r}; expected {expected}")
    return name, text


def parse_env_bindings(specs: list[str]) -> dict[str, Forest]:
    """CLI ``--env`` parsing: ``name=VALUE`` items, separated by ``;``
    outside string literals."""
    env: dict[str, Forest] = {}
    for spec in specs:
        for item in _env_item_re().findall(spec):
            item = item.strip()
            if item:
                name, text = parse_binding(item, "name=VALUE")
                env[name] = parse_value(text.strip())
    return env
