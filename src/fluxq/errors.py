"""Exception hierarchy shared across the package."""

from __future__ import annotations


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


class GenerationError(FluxqError):
    """A random generator could not produce a valid instance within its retry budget."""
