"""Source spans and diagnostics: named tuples, like every record that is not
a tree node."""

from __future__ import annotations

from typing import NamedTuple


class _SpanFields(NamedTuple):
    file: str
    begin: int
    end: int
    begin_line: int
    begin_col: int
    end_line: int
    end_col: int


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


class Diagnostic(NamedTuple):
    severity: str  # "error" or "warning"
    message: str
    rule: str  # which judgment or rule rejected the construct
    span: SourceSpan | None = None

    def render(self) -> str:
        loc = ""
        if self.span:
            loc = f"{self.span.file}:{self.span.begin_line}:{self.span.begin_col}: "
        return f"{loc}{self.severity}: {self.message} [{self.rule}]"


def error(message: str, rule: str, span: SourceSpan | None = None) -> Diagnostic:
    return Diagnostic("error", message, rule, span)
