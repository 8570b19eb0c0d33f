"""What went wrong and where: spans and diagnostics, named tuples like every
record that is not a tree node; the parsed text, which resolves a parsed
node's offsets to a span when the span is read, so lines and columns are
looked up only for what is reported; and the exceptions the package
raises.  Every such record is a plain ``collections.namedtuple``, so
``import fluxq.cli`` loads no ``typing``.

Every parsed node but a type has a span; the checkers read it only when
they make a diagnostic from it, so a passing ``check`` builds no newline
table.  A copy or pickle of a node holds its resolved ``SourceSpan``, with
no reference to the text."""

from __future__ import annotations

import re
from bisect import bisect_left
from collections import namedtuple

_SpanFields = namedtuple("_SpanFields", ("file", "begin", "end", "begin_line",
                                         "begin_col", "end_line", "end_col"))


class SourceSpan(_SpanFields):
    """Half-open character range ``[begin, end)`` in a source file, with the
    1-based line and column of ``begin`` and of ``end``."""

    __slots__ = ()

    def __new__(cls, file: str, begin: int, end: int, begin_line: int,
                begin_col: int, end_line: int, end_col: int):
        if begin > end:
            raise ValueError(f"span begin {begin} > end {end}")
        return tuple.__new__(cls, (file, begin, end, begin_line, begin_col,
                                   end_line, end_col))


class SourceText:
    """A parsed file's name and text, which every node of the parse holds
    with its offsets, and its newline table, built at the first lookup of a
    line and column."""

    def __init__(self, text: str, file: str = "<input>"):
        self.file, self.text, self._newlines = file, text, None

    def line_col(self, offset: int) -> tuple[int, int]:
        """1-based line and column of ``offset``, counting characters."""
        if self._newlines is None:
            self._newlines = [m.start() for m in re.finditer("\n", self.text)]
        line = bisect_left(self._newlines, offset)
        return line + 1, offset - (self._newlines[line - 1] if line else -1)

    def span(self, begin: int, end: int) -> SourceSpan:
        """The span of ``[begin, end)``, with its lines and columns."""
        return SourceSpan(self.file, begin, end, *self.line_col(begin),
                          *self.line_col(end))


Diagnostic = namedtuple("Diagnostic", ("message", "rule", "span"),
                        defaults=(None,))
Diagnostic.__doc__ = """An error: fluxq reports no other kind of diagnostic.
Its ``message`` and ``rule`` (which judgment or rule rejected the
construct) are strings, and its ``span`` a ``SourceSpan`` or None."""


def _render(self) -> str:
    """``Diagnostic.render``: the one line ``check`` prints for it."""
    loc = ""
    if self.span:
        loc = f"{self.span.file}:{self.span.begin_line}:{self.span.begin_col}: "
    return f"{loc}error: {self.message} [{self.rule}]"


Diagnostic.render = _render


class FluxqError(Exception):
    """Base class for all errors raised by this package."""


class UndeclaredVariable(FluxqError):
    """A type variable was referenced but not declared in the signature."""

    def __init__(self, name: str):
        super().__init__(f"undeclared type variable {name!r}")
        self.name = name


class ParseError(FluxqError):
    """Syntax error, carrying its position and the expected-token set; text
    in no file, such as a command-line flag, has none (offset None)."""

    def __init__(self, message: str, offset: int | None = None,
                 line: int | None = None, column: int | None = None,
                 expected: tuple[str, ...] = ()):
        detail = message
        if offset is not None:
            detail += f" at offset {offset} (line {line}, column {column})"
        if expected:
            detail += "; expected " + " or ".join(expected)
        super().__init__(detail)
        self.offset = offset
        self.line = line
        self.column = column
        self.expected = expected


class TypeCheckFailure(FluxqError):
    """Raised internally when synthesis fails; carries a diagnostic."""

    def __init__(self, diagnostic):
        super().__init__(diagnostic.message)
        self.diagnostic = diagnostic


class EvalError(FluxqError):
    """Runtime error during query evaluation or update application."""


class RecursionLimitExceeded(EvalError):
    """Call depth exceeded the configured recursion limit."""
