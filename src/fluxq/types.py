"""Regular-expression types over XML forests, and recursive type signatures.

A type is a regular expression whose letters are atoms: ``bool``, ``string``,
or an element ``n[t]`` with a nested content type.  Signatures bind type
variables to definitions; definitions may be (mutually) recursive but must be
guarded: walking a definition through ``|``, ``,``, ``*`` and ``()`` without
entering element content never reaches a variable.  That restriction makes
every judgment that unfolds variables at the top level terminate.

All nodes are frozen; structural equality is dataclass equality.  Parser
spans are excluded from comparison so golden tests and round-trips compare
pure structure.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Mapping, Union

from .diagnostics import Diagnostic, SourceSpan, error
from .errors import UndeclaredVariable

LABEL_RE = re.compile(r"[a-z][A-Za-z0-9_]*\Z")
TYPEVAR_RE = re.compile(r"[A-Z][A-Za-z0-9_]*\Z")


def cache_hash(cls):
    """Memoize the generated structural hash on the instance.

    Type trees are immutable and get hashed heavily as memo keys; caching
    turns repeated deep hashes into one field read."""
    structural = cls.__hash__

    def cached(self):
        value = self.__dict__.get("_hash")
        if value is None:
            value = structural(self)
            object.__setattr__(self, "_hash", value)
        return value

    cls.__hash__ = cached
    return cls


@dataclass(frozen=True)
class Type:
    pass


@dataclass(frozen=True)
class Atom(Type):
    """A singular type: every value of an atom is a single tree."""


@cache_hash
@dataclass(frozen=True)
class BoolAtom(Atom):
    span: SourceSpan | None = field(default=None, compare=False, repr=False)


@cache_hash
@dataclass(frozen=True)
class StringAtom(Atom):
    span: SourceSpan | None = field(default=None, compare=False, repr=False)


@cache_hash
@dataclass(frozen=True)
class Element(Atom):
    label: str
    content: Type
    span: SourceSpan | None = field(default=None, compare=False, repr=False)


@cache_hash
@dataclass(frozen=True)
class Empty(Type):
    """The type ``()`` whose only value is the empty forest."""

    span: SourceSpan | None = field(default=None, compare=False, repr=False)


@cache_hash
@dataclass(frozen=True)
class Or(Type):
    left: Type
    right: Type
    span: SourceSpan | None = field(default=None, compare=False, repr=False)


@cache_hash
@dataclass(frozen=True)
class Seq(Type):
    left: Type
    right: Type
    span: SourceSpan | None = field(default=None, compare=False, repr=False)


@cache_hash
@dataclass(frozen=True)
class Star(Type):
    inner: Type
    span: SourceSpan | None = field(default=None, compare=False, repr=False)


@cache_hash
@dataclass(frozen=True)
class Var(Type):
    name: str
    span: SourceSpan | None = field(default=None, compare=False, repr=False)


BOOL = BoolAtom()
STRING = StringAtom()
EMPTY = Empty()


def optional(t: Type) -> Type:
    """The ``t?`` derived form: ``t | ()``."""
    return Or(t, EMPTY)


def plus(t: Type) -> Type:
    """The ``t+`` derived form: ``t, t*``."""
    return Seq(t, Star(t))


class Signature:
    """Ordered, immutable map from type-variable names to definition types."""

    __slots__ = ("_defs",)

    def __init__(self, defs: Mapping[str, Type] | Iterable[tuple[str, Type]] = ()):
        if isinstance(defs, Mapping):
            items = list(defs.items())
        else:
            items = list(defs)
        object.__setattr__(self, "_defs", dict(items))

    def __setattr__(self, name, value):
        raise AttributeError("Signature is immutable")

    def __contains__(self, name: str) -> bool:
        return name in self._defs

    def __iter__(self) -> Iterator[str]:
        return iter(self._defs)

    def __len__(self) -> int:
        return len(self._defs)

    def __eq__(self, other) -> bool:
        return isinstance(other, Signature) and self._defs == other._defs

    def __repr__(self) -> str:
        return f"Signature({self._defs!r})"

    def items(self) -> Iterable[tuple[str, Type]]:
        return self._defs.items()

    def definition(self, name: str) -> Type:
        try:
            return self._defs[name]
        except KeyError:
            raise UndeclaredVariable(name) from None


EMPTY_SIGNATURE = Signature()


def _top_level_vars(t: Type) -> Iterator[Var]:
    """Vars reachable without entering element content."""
    stack = [t]
    while stack:
        node = stack.pop()
        if isinstance(node, Var):
            yield node
        elif isinstance(node, (Or, Seq)):
            stack.append(node.left)
            stack.append(node.right)
        elif isinstance(node, Star):
            stack.append(node.inner)


def all_vars(t: Type) -> Iterator[Var]:
    """Every distinct Var node in ``t``, including inside element content.

    A node shared by several parents is visited once, so the walk is linear
    in the number of distinct nodes, not in the size of the unshared tree."""
    seen: set[int] = set()
    stack = [t]
    while stack:
        node = stack.pop()
        cls = node.__class__
        if cls is Or or cls is Seq:
            if id(node) not in seen:
                seen.add(id(node))
                stack.append(node.left)
                stack.append(node.right)
        elif cls is Element or cls is Star:
            if id(node) not in seen:
                seen.add(id(node))
                stack.append(node.content if cls is Element else node.inner)
        elif cls is Var and id(node) not in seen:
            seen.add(id(node))
            yield node


def check_signature(sig: Signature) -> list[Diagnostic]:
    """Well-formedness diagnostics: undeclared references and unguarded definitions.

    Returns one diagnostic per violation; an empty list means the signature
    satisfies both invariants.
    """
    out: list[Diagnostic] = []
    for name, body in sig.items():
        for v in all_vars(body):
            if v.name not in sig:
                out.append(error(
                    f"type variable {v.name} used in definition of {name} is not declared",
                    rule="signature/undeclared", span=v.span))
        for v in _top_level_vars(body):
            out.append(error(
                f"top-level variable {v.name} in definition of {name}",
                rule="signature/guardedness", span=v.span))
    return out


def check_type_declared(sig: Signature, t: Type) -> None:
    """Raise UndeclaredVariable if ``t`` mentions a variable absent from ``sig``."""
    for v in all_vars(t):
        if v.name not in sig:
            raise UndeclaredVariable(v.name)


def map_atoms(sig: Signature, t: Type, f: Callable[[Atom], Type]) -> Type:
    """The homomorphic image of ``t`` with every atom ``a`` replaced by
    ``f(a)``: ``()`` stays ``()``, ``|``, ``,`` and ``*`` are rebuilt around
    the images of their parts, and variables are unfolded (terminating by
    guardedness).

    One memo per call, keyed by node identity, maps each distinct node of
    ``t`` once, so ``f`` runs once per distinct atom node and a subterm
    shared in ``t`` has one shared image."""
    memo: dict[int, Type] = {}

    def go(t: Type) -> Type:
        out = memo.get(id(t))
        if out is not None:
            return out
        if isinstance(t, Empty):
            out = EMPTY
        elif isinstance(t, Atom):
            out = f(t)
        elif isinstance(t, Or):
            out = Or(go(t.left), go(t.right))
        elif isinstance(t, Seq):
            out = Seq(go(t.left), go(t.right))
        elif isinstance(t, Star):
            out = Star(go(t.inner))
        else:
            assert isinstance(t, Var)
            out = go(sig.definition(t.name))
        memo[id(t)] = out
        return out

    return go(t)


def syntactic_atoms(sig: Signature, t: Type) -> frozenset[Atom]:
    """Atoms reachable at the top level of ``t``, unfolding variables.

    Does not enter element content; terminates by guardedness.
    """
    found: set[Atom] = set()
    seen_vars: set[str] = set()

    def walk(node: Type) -> None:
        if isinstance(node, Atom):
            found.add(node)
        elif isinstance(node, (Or, Seq)):
            walk(node.left)
            walk(node.right)
        elif isinstance(node, Star):
            walk(node.inner)
        elif isinstance(node, Var):
            if node.name not in seen_vars:
                seen_vars.add(node.name)
                walk(sig.definition(node.name))

    walk(t)
    return frozenset(found)


# --- typing environments and global declarations ---------------------------


@dataclass(frozen=True)
class TreeBinding:
    """A tree variable: always bound to an atom."""

    atom: Atom

    @property
    def type(self) -> Type:
        return self.atom


@dataclass(frozen=True)
class ForestBinding:
    """A forest variable: bound to an arbitrary (possibly plural) type."""

    type: Type


Binding = Union[TreeBinding, ForestBinding]

# Ordered map from variable name to binding; extended functionally.
TypeEnv = Mapping[str, Binding]


@dataclass(frozen=True)
class FunctionSig:
    params: tuple[Type, ...]
    result: Type


@dataclass(frozen=True)
class ProcedureSig:
    params: tuple[Type, ...]
    input: Type
    output: Type


@dataclass(frozen=True)
class GlobalDecls:
    """Headers for functions and procedures, in separate namespaces."""

    functions: Mapping[str, FunctionSig] = field(default_factory=dict)
    procedures: Mapping[str, ProcedureSig] = field(default_factory=dict)


EMPTY_DECLS = GlobalDecls()
