"""Concrete syntax: the lexer and the parsers.

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
Programs:     ``type X = t`` entries, ``declare function f($x:t, $y:t) : t
              { e };`` and ``declare procedure p($x:t, ...) : t => t { s };``
              declarations (a ``,`` before a ``$`` ends a parameter's type),
              ended by ``query e : t`` or ``update s : t1 => t2``.

A type is read by one loop over its postfix items, which folds each ``,``
run and then the ``|`` run into right-nested binary nodes; an expression
or a statement by one loop over its ``,`` or ``;`` items, one ``Concat``
or ``SeqStmt`` if there are two or more.  So a list costs no frame, and a
level of nesting at most two (``parse_type`` and ``parse_type_primary``,
``parse_expr`` and ``parse_expr_single``, or ``parse_stmt`` and
``parse_stmt_item``): in a fresh CPython 3.11 process, ``fluxq check``
reads program text 493 levels deep and ``fluxq subtype`` types 494.  A
value is read by one loop over its lexemes with a stack of the open
elements, so any depth parses.  A value lexeme may run on, with no blank:
as ``n["w"]``, as a run of up to 256 empty elements ``n[],m[],...`` (split
with one ``str.split``; the cap bounds the backtracking state ``sre``
keeps per repeat, as Python 3.10 has no possessive ``*+``), or as ``n[``.
Each distinct ``n[]`` or ``n["w"]`` lexeme is built once and shared, and
each distinct ``n[`` is checked once: a table of those read before, keyword
labels never among them, makes a repeated open one lookup.  A compound
lexeme whose label is no label fails where reading it lexeme by lexeme
would, so blanks and comments change no value and no error.

A ``]`` shares the element it closes too.  A table that lives for one
``parse_value`` call keys each node a ``]`` built by its label, its width
and the identities of its first and last child, and the stored node is
reused if its middle children are the same objects as well; else the new
node takes the key.  So a miss costs O(1) at any width, and a subtree
that repeats is one object, however blanks and comments split its
lexemes, if its children are and no node took its key in between.  A
string literal standing alone is a new ``StrVal`` each time, so an
element holding one is not shared; ``n[ ]`` and ``n[()]`` are the node of
``n[]``.  Two calls share no node.

The derived type forms normalize while parsing (``t+`` to ``t,t*``, ``t?``
to ``t|()``, ``n[]`` to ``n[()]``), and ``e/n`` and ``e/*`` elaborate to
their for-loop cores.  Variables keep the names written: an inner binder
shadows an outer one in the checker's and evaluator's environments.  A
node records its offsets and the parse's one ``SourceText``, so no line
or column is computed unless a span or a ``ParseError`` is reported.

The syntax trees are those of ``types``, so parsing loads no typechecker:
only ``diagnostics``, ``types`` and ``values``.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from functools import cache
from operator import is_

from .diagnostics import ParseError, SourceText
from .types import (
    BOOL, BoolLit, Call, Children, Concat, Declared, Delete, Elem, Element,
    EMPTY, EmptySeq, For, FunctionDecl, If, IfStmt, Insert, LabelFilter, Let,
    LetStmt, Nav, Or, ProcCall, ProcedureDecl, QueryExpr, QueryProgram,
    Rename, Seq, SeqStmt, Signature, Skip, Snapshot, Star, STRING, StrLit,
    Test, TEST_KEYWORDS, Type, UpdateProgram, UpdateStmt, Var, VarRef,
    optional, plus,
)
from .values import FALSE, Forest, Node, StrVal, TRUE, Tree

KEYWORDS = frozenset({
    "type", "query", "update", "declare", "function", "procedure",
    "let", "in", "if", "then", "else", "for", "return", "true", "false",
    "skip", "insert", "delete", "rename", "snapshot", "child", "children",
    "left", "right", "iter", "bool", "string",
})

_ESCAPES = {"\\": "\\", '"': '"', "n": "\n", "t": "\t"}

_FIXED = {k: k for k in (*KEYWORDS, "::", "=>", "(", ")", "[", "]", "{", "}",
                         ",", "|", "*", "+", "?", "=", ";", ":", "/")}

# One lexeme per match, and every character is in one: blanks, a comment,
# a word, two-character punctuation, a variable, a string literal, or any
# single character.  ``tokenize`` and ``parse_value`` sort them by their
# first character.
_STRING_BODY = r'"(?:[^"\\\n]|\\[\\"nt])*'
_LEXEME_RE = re.compile(r'[ \t\r\n]+|#[^\n]*|\w+|::|=>|\$\w*|'
                        + _STRING_BODY + '"|.', re.DOTALL)
_STRING_PREFIX_RE = re.compile(_STRING_BODY)
_ESCAPE_RE = re.compile(r"\\(.)")

# What ``parse_value`` reads next, and the lexemes it skips.
_ITEM, _OPEN, _BRACKET, _PAREN, _AFTER = (object() for _ in range(5))
_BLANK = " \t\r\n#"


@cache
def _value_lexeme_re() -> re.Pattern:
    """``parse_value``'s lexemes: ``_LEXEME_RE``'s, but a word may run on
    (see the module docstring), and ``]`` and ``,``, the most common, are
    tried first.  Compiled on first use, as ``check`` reads no value."""
    return re.compile(r"[],]|" + _LEXEME_RE.pattern.replace(
        r"|\w+|", r'|\w+(?:\[' + _STRING_BODY
        + r'"\]|\[\](?:,\w+\[\]){0,255}|\[)?|', 1), re.DOTALL)


@cache
def _env_item_re() -> re.Pattern:
    """A ``--env`` item: it runs to the next ``;`` outside a string
    literal.  Compiled on first use."""
    return re.compile(r'(?:' + _STRING_BODY + r'"|[^;])+')


def _unescape(body: str) -> str:
    """A string literal's body, its escapes decoded."""
    if "\\" not in body:
        return body
    return _ESCAPE_RE.sub(lambda e: _ESCAPES[e[1]], body)


def _is_label(word: str) -> bool:
    """``word`` can label an element: a lowercase-initial identifier that is
    not a keyword."""
    c = word[0]
    return ((c.isalpha() or c == "_") and not c.isupper()
            and word not in KEYWORDS)


def _lex_error(text: str, message: str, offset: int) -> ParseError:
    return ParseError(message, offset, *SourceText(text).line_col(offset))


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
        kind = _FIXED.get(lexeme)
        if kind is None:
            c = lexeme[0]
            if c in _BLANK:
                continue
            if c.isalpha() or c == "_":
                kind = "TYPEVAR" if c.isupper() else "IDENT"
            elif c == "$":
                if not lexeme[1:2].isalpha():
                    raise _lex_error(text, "expected variable name after $", start)
                kind, lexeme = "VAR", lexeme[1:]
            elif c == '"' and end - start > 1:
                kind = "STRING"
                lexeme = _unescape(lexeme[1:-1])
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
        self.source = SourceText(text, filename)  # shared by the spans
        self.kinds, self.texts, self.starts, self.ends = tokenize(text)
        self.last = len(self.kinds) - 1  # EOF, passed only to fail
        self.pos = 0
        self._sugar_count = 0
        # the variable uses read so far in the ``type`` declaration being
        # parsed (see ``types.Declared``), and how deep in element content
        # the reader is
        self._uses: list[tuple[str, tuple]] = []
        self._top: list[tuple[str, tuple]] = []
        self._content_depth = 0

    # -- token plumbing ------------------------------------------------
    # Tokens are indices into the parallel lists; ``pos`` is the next one.

    def accept(self, kind: str) -> bool:
        pos = self.pos
        if self.kinds[pos] != kind:
            return False
        self.pos = pos + 1
        return True

    def expect(self, kind: str, what: str | None = None) -> str:
        """Consume a ``kind`` token and return its text."""
        pos = self.pos
        if self.kinds[pos] != kind:
            self.unexpected(pos, "", (what or kind,))
        if pos < self.last:  # ``EOF`` is never passed
            self.pos = pos + 1
        return self.texts[pos]

    def error_at(self, tok: int, message: str,
                 expected: tuple[str, ...] = ()) -> ParseError:
        offset = self.starts[tok]
        return ParseError(message, offset, *self.source.line_col(offset),
                          expected)

    def unexpected(self, tok: int, context: str, expected: tuple[str, ...]):
        found = "end of input" if tok == self.last else repr(self.texts[tok])
        raise self.error_at(tok, f"unexpected {found}{context}", expected)

    def span_from(self, start: int) -> tuple[int, int, SourceText]:
        """The span from token ``start`` through the last token consumed,
        ``end`` being the offset past that token, as a node records it."""
        prev = max(self.pos - 1, 0)
        end = prev if self.ends[prev] >= self.starts[start] else start
        return self.starts[start], self.ends[end], self.source

    def _fresh_var(self) -> str:
        self._sugar_count += 1
        return f"y{self._sugar_count}"

    # -- types -----------------------------------------------------------

    def parse_type(self) -> Type:
        """Postfix items separated by ``,`` and ``|``, read in one loop (see
        the module docstring); a ``,`` before a ``$`` variable ends it."""
        alts: list[Type] = []
        items: list[Type] = []
        while True:
            mark = len(self._top)
            t = self.parse_type_primary()
            while (op := self.kinds[self.pos]) in {"*", "+", "?"}:
                self.pos += 1
                if op == "*":
                    t = Star(t)
                elif op == "+":
                    t = plus(t)
                    # ``t, t*`` holds the top-level uses of ``t`` twice
                    self._top += self._top[mark:]
                else:
                    t = optional(t)
            items.append(t)
            if op != "," or self.kinds[self.pos + 1] == "VAR":
                alts.append(_chain(Seq, items))
                if op != "|":
                    return _chain(Or, alts)
            self.pos += 1

    def parse_type_primary(self) -> Type:
        tok = self.pos
        kind = self.kinds[tok]
        self.pos = tok + 1
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
        start, e = self.pos, self.parse_expr_single()
        if self.kinds[self.pos] != ",":
            return e
        items = [e]
        while self.accept(","):
            items.append(self.parse_expr_single())
        return Concat(tuple(items), span=self.span_from(start))

    def parse_expr_single(self) -> QueryExpr:
        tok = self.pos
        kind = self.kinds[tok]
        self.pos = tok + 1
        if kind == "IDENT":
            if self.accept("["):
                if self.accept("]"):
                    content: QueryExpr = EmptySeq()
                else:
                    content = self.parse_expr()
                    self.expect("]")
                e = Elem(self.texts[tok], content, span=self.span_from(tok))
            else:
                self.expect("(", "( to begin arguments")
                e = Call(self.texts[tok], self.parse_args(),
                         span=self.span_from(tok))
        elif kind == "VAR":
            e = VarRef(self.texts[tok], span=self.span_from(tok))
        elif kind == "(":
            if self.accept(")"):
                e = EmptySeq(span=self.span_from(tok))
            else:
                e = self.parse_expr()
                self.expect(")")
        elif kind == "let":
            return self.parse_let(tok, self.parse_expr_single, Let)
        elif kind == "for":
            var = self.expect("VAR", "a variable")
            self.expect("in")
            source = self.parse_expr_single()
            self.expect("return")
            body = self.parse_expr_single()
            return For(var, source, body, span=self.span_from(tok))
        elif kind == "if":
            return self.parse_if(tok, self.parse_expr_single, If)
        elif kind == "true" or kind == "false":
            e = BoolLit(kind == "true", span=self.span_from(tok))
        elif kind == "STRING":
            e = StrLit(self.texts[tok], span=self.span_from(tok))
        else:
            self.unexpected(tok, " in expression", ("an expression",))
        # the primary's ``::n``, ``/child``, ``/*`` and ``/n`` steps
        while (kind := self.kinds[self.pos]) == "::" or kind == "/":
            self.pos += 1
            if kind == "::":
                label = self.expect("IDENT", "a label")
                e = LabelFilter(e, label, span=self.span_from(tok))
            elif self.accept("child"):
                if not isinstance(e, VarRef):
                    raise self.error_at(
                        tok, "child projection applies to a variable")
                e = Children(e.name, span=self.span_from(tok))
            else:
                # ``e/*`` and ``e/n`` iterate a fresh variable's children
                label = None if self.accept("*") else self.expect(
                    "IDENT", "a label")
                fresh = self._fresh_var()
                span = self.span_from(tok)
                body = Children(fresh, span=span)
                if label is not None:
                    body = LabelFilter(body, label, span=span)
                e = For(fresh, e, body, span=span)
        return e

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

    def parse_args(self) -> tuple[QueryExpr, ...]:
        """Call arguments after the opening ``(``, through the ``)``."""
        args: list[QueryExpr] = []
        if self.kinds[self.pos] != ")":
            args.append(self.parse_expr_single())
            while self.accept(","):
                args.append(self.parse_expr_single())
        self.expect(")")
        return tuple(args)

    # -- update statements -------------------------------------------------

    def parse_stmt(self) -> UpdateStmt:
        start, s = self.pos, self.parse_stmt_item()
        if self.kinds[self.pos] != ";":
            return s
        items = [s]
        while self.accept(";"):
            items.append(self.parse_stmt_item())
        return SeqStmt(tuple(items), span=self.span_from(start))

    def parse_stmt_item(self) -> UpdateStmt:
        tok = self.pos
        kind = self.kinds[tok]
        self.pos = tok + 1
        if kind in ("bool", "string", "*") or (
                kind == "IDENT" and self.kinds[tok + 1] == "?"):
            test = TEST_KEYWORDS.get(kind, self.texts[tok])
            self.expect("?")
            body = self.parse_stmt_item()
            return Test(test, body, span=self.span_from(tok))
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
            return Nav(kind, body, span=self.span_from(tok))
        if kind == "IDENT":
            self.expect("(", "( to begin arguments")
            return ProcCall(self.texts[tok], self.parse_args(),
                            span=self.span_from(tok))
        self.unexpected(tok, " in update statement", ("an update statement",))

    # -- programs ----------------------------------------------------------

    def parse_params(self) -> tuple[tuple[str, Type], ...]:
        self.expect("(")
        params: list[tuple[str, Type]] = []
        if self.kinds[self.pos] != ")":
            while True:
                tok = self.pos
                name = self.expect("VAR", "a parameter")
                self.expect(":")
                t = self.parse_type()
                if any(name == seen for seen, _ in params):
                    raise self.error_at(tok, f"duplicate parameter ${name}")
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
            if self.kinds[tok] == "type":
                self.parse_type_decl(decls)
            elif self.accept("declare"):
                kind = self.kinds[self.pos]
                if not (self.accept("function") or self.accept("procedure")):
                    raise self.error_at(
                        self.pos, "expected 'function' or 'procedure'",
                        ("function", "procedure"))
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
        while self.kinds[self.pos] != "EOF":
            self.parse_type_decl(decls)
        return _signature(decls)


def _chain(node, items: list[Type]) -> Type:
    """``node(a, node(b, c))`` of ``items == [a, b, c]``, emptying it."""
    out = items.pop()
    while items:
        out = node(items.pop(), out)
    return out


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


def parse_value(text: str) -> Forest:
    """A forest, read in one loop over the lexemes with a stack of the open
    elements (see the module docstring), so any depth parses; each
    distinct ``n[]`` or ``n["w"]``, and each repeated subtree, is one
    ``Node`` shared by its uses."""
    lexemes = _value_lexeme_re().findall(text)
    stack: list[tuple[str, list[Tree]]] = []  # open labels, trees before each
    trees: list[Tree] = []
    leaves: dict[str, Node] = {}  # ``n[]`` or ``n["w"]`` text -> its one node
    # (label, width, id of first child, id of last child) -> the node a
    # ``]`` closed last under that key; every child of a stored node lives
    # as long as the table, so no id is reused while it is looked up
    closed: dict[tuple[str, int, int, int], Node] = {}
    opens: dict[str, str] = {}  # an ``n[`` read before, with ``n`` a label -> n
    # the next lexeme must be: _ITEM a tree or ``()``, _OPEN one of those or
    # ``]``, _BRACKET the ``[`` after a label, _PAREN the ``)`` of ``()``,
    # _AFTER a ``,``, a ``]`` or the end
    want = _ITEM
    within = 0  # offset of the error in the failing lexeme
    rest = iter(lexemes)
    for lexeme in rest:
        # blanks and comments are looked for only where nothing else fits
        if want is _AFTER:
            if lexeme == ",":
                want = _ITEM
                continue
            if lexeme != "]" or not stack:
                if lexeme[0] in _BLANK:
                    continue
                break
        elif want is _BRACKET:
            if lexeme == "[":
                stack.append((label, trees))
                trees = []
                want = _OPEN
            elif lexeme[0] not in _BLANK:
                break
            continue
        elif want is _PAREN:
            if lexeme == ")":
                want = _AFTER
            elif lexeme[0] not in _BLANK:
                break
            continue
        elif lexeme != "]" or want is _ITEM:
            # a tree or ``()``
            label = opens.get(lexeme)
            if label is not None:
                stack.append((label, trees))
                trees = []
                want = _OPEN
                continue
            if lexeme in leaves:
                # an empty or text-only element read before
                trees.append(leaves[lexeme])
                want = _AFTER
                continue
            c = lexeme[0]
            if not _is_label(lexeme):
                if c == '"' and len(lexeme) > 1:
                    trees.append(StrVal(_unescape(lexeme[1:-1])))
                    want = _AFTER
                elif lexeme == "true" or lexeme == "false":
                    trees.append(TRUE if lexeme == "true" else FALSE)
                    want = _AFTER
                elif lexeme == "(":
                    want = _PAREN
                elif c not in _BLANK:
                    break
                continue
            # a label, alone or with its ``[``, or a text-only element or a
            # run of empty elements read for the first time; ``_is_label``
            # read the first character of a compound lexeme's label, and
            # the rest of the label is tested here
            last = lexeme[-1]
            if last == "[":
                label = lexeme[:-1]
                if label not in KEYWORDS:
                    opens[lexeme] = label
                    stack.append((label, trees))
                    trees = []
                    want = _OPEN
                    continue
            elif last != "]":
                label = lexeme
                want = _BRACKET
                continue
            elif lexeme[-2] == '"':
                i = lexeme.index("[")
                label = lexeme[:i]
                if label not in KEYWORDS:
                    leaves[lexeme] = tree = Node(
                        label, (StrVal(_unescape(lexeme[i + 2:-2])),))
                    trees.append(tree)
                    want = _AFTER
                    continue
            else:
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
                # the first item that is no leaf fails at its label
                for item in items:
                    label = item[:-2]
                    if not _is_label(label):
                        break
                    within += len(item) + 1
            # the lexeme fails at that label, or, as ``true`` or ``false``
            # read as atoms, at the ``[`` after it
            if label == "true" or label == "false":
                within += len(label)
                want = _AFTER
            break
        # a ``]`` closes the innermost element, reusing a node from
        # ``closed`` if all its children are these
        label, parent = stack.pop()
        if trees:
            key = (label, len(trees), id(trees[0]), id(trees[-1]))
            tree = closed.get(key)
            if tree is None or len(trees) > 2 and not all(
                    map(is_, tree.children, trees)):
                closed[key] = tree = Node(label, tuple(trees))
        else:  # ``n[ ]`` or ``n[()]``: the node of ``n[]``
            tree = leaves.get(label + "[]")
            if tree is None:
                leaves[label + "[]"] = tree = Node(label, ())
        parent.append(tree)
        trees = parent
        want = _AFTER
    else:
        if want is _AFTER and not stack:
            return tuple(trees)
        lexeme = None  # the end of input
    # the failing lexeme's index, the end of input's past the last; after
    # a ``(`` only blanks are read, and the error is at the ``(``
    at = len(lexemes) - sum(1 for _ in rest) - (lexeme is not None)
    if want is _PAREN:
        at = at - 1 - lexemes[at - 1::-1].index("(")
    # report the token at the error's offset, unless tokenizing finds a
    # lexing error, which wins as in every parser here
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
