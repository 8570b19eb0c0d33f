"""Source spans and diagnostics."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class SourceSpan:
    """Half-open byte range in a source file, with line/column endpoints (1-based)."""

    file: str
    begin: int
    end: int
    begin_line: int
    begin_col: int
    end_line: int
    end_col: int

    def __post_init__(self):
        if self.begin > self.end:
            raise ValueError(f"span begin {self.begin} > end {self.end}")


@dataclass(frozen=True)
class Diagnostic:
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
