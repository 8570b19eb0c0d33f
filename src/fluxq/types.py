"""Regular-expression types over XML forests, and recursive type signatures.

A type is a regular expression whose letters are atoms: ``bool``, ``string``,
or an element ``n[t]`` with a nested content type.  Signatures bind type
variables to definitions; definitions may be (mutually) recursive but must be
guarded: walking a definition through ``|``, ``,``, ``*`` and ``()`` without
entering element content never reaches a variable.  That restriction makes
every judgment that unfolds variables at the top level terminate.

A signature owns the tables that ``subtype`` and ``member`` share.  The
step row of a set of alternatives (``union``) groups its heads by label:
``subtype`` reads it as a goal's right-hand side, ``member`` as the
transitions of an automaton state.

Every tree node (types here; query expressions, update statements, values
and ``?`` tests elsewhere) is a slotted, immutable ``Struct`` whose
equality, hash and ``repr`` come from its fields.  Parser spans are not
fields, so golden tests and round-trips compare pure structure.  Every
other record, such as ``GlobalDecls``, is a ``NamedTuple``.
"""

from __future__ import annotations

from functools import partial
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Union

from .diagnostics import Diagnostic, error
from .errors import UndeclaredVariable

_STRUCT_METHODS = """\
def __init__(self, {params}*, span=None):
{sets}    _set_span(self, span)
    _set_hash(self, None)

def __eq__(self, other):
    if other.__class__ is self.__class__:
        return ({mine}) == ({theirs})
    return NotImplemented

def __hash__(self):
    value = self._hash
    if value is None:
        value = hash(({mine}))
        _set_hash(self, value)
    return value

def __repr__(self):
    return f"{name}({shown})"
"""


class Struct:
    """Base of every immutable tree node.

    A subclass lists its fields in ``__slots__``; ``__init_subclass__``
    builds its ``__init__`` (fields by position, ``span=None`` by keyword),
    ``__eq__`` (same class, equal fields in order), ``__hash__`` (that of
    the tuple of fields, cached on first use) and ``__repr__`` once per
    class, by ``exec``.  ``span`` is not a field, so all three ignore it."""

    __slots__ = ("span", "_hash")
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        fields = cls._fields + tuple(cls.__dict__["__slots__"])
        cls._fields = fields
        namespace = {f"set_{f}": getattr(cls, f).__set__ for f in fields}
        namespace.update(_set_span=Struct.span.__set__,
                         _set_hash=Struct._hash.__set__)
        exec(_STRUCT_METHODS.format(
            name=cls.__qualname__,
            params="".join(f"{f}, " for f in fields),
            sets="".join(f"    set_{f}(self, {f})\n" for f in fields),
            mine="".join(f"self.{f}, " for f in fields),
            theirs="".join(f"other.{f}, " for f in fields),
            shown=", ".join(f"{f}={{self.{f}!r}}" for f in fields),
        ), namespace)
        for method in ("__init__", "__eq__", "__hash__", "__repr__"):
            namespace[method].__qualname__ = f"{cls.__qualname__}.{method}"
            setattr(cls, method, namespace[method])

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # copy, deepcopy and pickle rebuild the node through its constructor,
        # since restoring the slots one by one would assign to them
        fields = tuple(getattr(self, f) for f in self._fields)
        return partial(self.__class__, span=self.span), fields


class Type(Struct):
    __slots__ = ()


class Atom(Type):
    """A singular type: every value of an atom is a single tree."""

    __slots__ = ()


class BoolAtom(Atom):
    __slots__ = ()


class StringAtom(Atom):
    __slots__ = ()


class Element(Atom):
    __slots__ = ("label", "content")


class Empty(Type):
    """The type ``()`` whose only value is the empty forest."""

    __slots__ = ()


class Or(Type):
    __slots__ = ("left", "right")


class Seq(Type):
    __slots__ = ("left", "right")


class Star(Type):
    __slots__ = ("inner",)


class Var(Type):
    __slots__ = ("name",)


BOOL = BoolAtom()
STRING = StringAtom()
EMPTY = Empty()

# Not fields: ``bool`` and ``string`` read like elements with content
# ``()`` whose label is their own atom class, as their trees do
# (``values.BoolVal`` and ``StrVal``), so every head is keyed by ``label``
BoolAtom.label, BoolAtom.content = BoolAtom, EMPTY
StringAtom.label, StringAtom.content = StringAtom, EMPTY


def optional(t: Type) -> Type:
    """The ``t?`` derived form: ``t | ()``."""
    return Or(t, EMPTY)


def plus(t: Type) -> Type:
    """The ``t+`` derived form: ``t, t*``."""
    return Seq(t, Star(t))


def union(types: Iterable[Type]) -> frozenset[Type]:
    """The canonical set of alternatives of a union of ``types``, with
    ``|`` flattened into the set, so ``{u|v}`` and ``{u, v}`` are one key.
    Such a set is a subtype goal's right-hand side and a state of the
    membership automaton."""
    out: set[Type] = set()
    stack = list(types)
    while stack:
        t = stack.pop()
        if t.__class__ is Or:
            stack.append(t.left)
            stack.append(t.right)
        else:
            out.add(t)
    return frozenset(out)


def state_of(t: Type) -> frozenset[Type]:
    """``union((t,))``, the state of the one type ``t``, built without the
    flattening walk unless ``t`` is a ``|``."""
    return union((t,)) if t.__class__ is Or else frozenset((t,))


def _seq(left: Type, right: Type) -> Type:
    """Concatenation with unit elimination, for canonical continuations."""
    if isinstance(left, Empty):
        return right
    if isinstance(right, Empty):
        return left
    return Seq(left, right)


# A state's step for one label or atom kind: the candidates (each content,
# as the state that starts it, with its continuation), the next state when
# every candidate's content matches, and the next state for a leaf.
Step = tuple[tuple[tuple[frozenset[Type], Type], ...], frozenset[Type],
             frozenset[Type]]


class Signature:
    """Ordered, immutable map from type-variable names to definition types.

    A signature also owns the tables that ``subtyping`` and ``values``
    derive from it: nullability and linear form by type, and the step row
    of each state (a set of alternatives, see ``union``).  Each entry is a
    pure function of the signature and its key, so the tables fill as
    checks run and are never invalidated; they are outside equality, the
    hash and ``repr``, and a copy starts with them empty."""

    __slots__ = ("_defs", "_nullable", "_linear_forms", "_steps")

    def __init__(self, defs: Mapping[str, Type] | Iterable[tuple[str, Type]] = ()):
        if isinstance(defs, Mapping):
            items = list(defs.items())
        else:
            items = list(defs)
        object.__setattr__(self, "_defs", dict(items))
        # type -> bool, type -> ((atom, continuation), ...), and
        # state -> (accepts, step row)
        object.__setattr__(self, "_nullable", {})
        object.__setattr__(self, "_linear_forms", {})
        object.__setattr__(self, "_steps", {})

    def __setattr__(self, name, value):
        raise AttributeError("Signature is immutable")

    def __reduce__(self):
        # copy, deepcopy and pickle rebuild through the constructor, which
        # also gives the copy empty tables
        return type(self), (list(self._defs.items()),)

    def __contains__(self, name: str) -> bool:
        return name in self._defs

    def __iter__(self) -> Iterator[str]:
        return iter(self._defs)

    def __len__(self) -> int:
        return len(self._defs)

    def __eq__(self, other) -> bool:
        return isinstance(other, Signature) and self._defs == other._defs

    def __hash__(self) -> int:
        # equality ignores the order of the definitions, so the hash does too
        return hash(frozenset(self._defs.items()))

    def __repr__(self) -> str:
        return f"Signature({self._defs!r})"

    def items(self) -> Iterable[tuple[str, Type]]:
        return self._defs.items()

    def definition(self, name: str) -> Type:
        try:
            return self._defs[name]
        except KeyError:
            raise UndeclaredVariable(name) from None

    def nullable(self, t: Type) -> bool:
        """Whether ``()`` is a value of ``t``."""
        cached = self._nullable.get(t)
        if cached is not None:
            return cached
        if isinstance(t, (Empty, Star)):
            out = True
        elif isinstance(t, Atom):
            out = False
        elif isinstance(t, Or):
            out = self.nullable(t.left) or self.nullable(t.right)
        elif isinstance(t, Seq):
            out = self.nullable(t.left) and self.nullable(t.right)
        else:
            assert isinstance(t, Var)
            out = self.nullable(self.definition(t.name))
        self._nullable[t] = out
        return out

    def linear_form(self, t: Type) -> tuple[tuple[Atom, Type], ...]:
        """Head atoms of ``t`` with their continuations: the nonempty values
        of ``t`` are those of some head followed by its continuation."""
        cached = self._linear_forms.get(t)
        if cached is not None:
            return cached
        pairs: list[tuple[Atom, Type]]
        if isinstance(t, Empty):
            pairs = []
        elif isinstance(t, Atom):
            pairs = [(t, EMPTY)]
        elif isinstance(t, Or):
            pairs = list(self.linear_form(t.left))
            pairs += [p for p in self.linear_form(t.right) if p not in pairs]
        elif isinstance(t, Seq):
            pairs = [(a, _seq(k, t.right)) for a, k in self.linear_form(t.left)]
            if self.nullable(t.left):
                pairs += [p for p in self.linear_form(t.right) if p not in pairs]
        elif isinstance(t, Star):
            pairs = [(a, _seq(k, t)) for a, k in self.linear_form(t.inner)]
        else:
            assert isinstance(t, Var)
            pairs = list(self.linear_form(self.definition(t.name)))
        out = tuple(pairs)
        self._linear_forms[t] = out
        return out

    def steps(self, state: frozenset[Type]) -> tuple[bool, dict[object, Step]]:
        """Whether some member of ``state`` is nullable, and its step row: a
        ``Step`` for each ``label`` (an element's name, or the atom class of
        ``bool`` or ``string``) that heads some member, and for nothing
        else.  Candidates appear once each, in first-seen order."""
        cached = self._steps.get(state)
        if cached is not None:
            return cached
        groups: dict[object, dict[tuple[Type, Type], None]] = {}
        for u in state:
            for a, k in self.linear_form(u):
                groups.setdefault(a.label, {})[a.content, k] = None
        row = {key: (tuple((state_of(c), k) for c, k in pairs),
                     union(k for _, k in pairs),
                     union(k for c, k in pairs if self.nullable(c)))
               for key, pairs in groups.items()}
        out = (any(self.nullable(u) for u in state), row)
        self._steps[state] = out
        return out


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


def nodes(t: Type) -> Iterator[Type]:
    """Every distinct node of ``t``, including inside element content,
    without unfolding variables.  A node shared by several parents is
    yielded once, and the walk keeps its own stack: it is linear in the
    number of distinct nodes and does not recurse."""
    seen: set[int] = set()
    stack = [t]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        yield node
        cls = node.__class__
        if cls is Or or cls is Seq:
            stack.append(node.left)
            stack.append(node.right)
        elif cls is Element:
            stack.append(node.content)
        elif cls is Star:
            stack.append(node.inner)


def check_signature(sig: Signature) -> list[Diagnostic]:
    """Well-formedness diagnostics: undeclared references and unguarded definitions.

    Returns one diagnostic per violation; an empty list means the signature
    satisfies both invariants.
    """
    out: list[Diagnostic] = []
    for name, body in sig.items():
        for v in nodes(body):
            if isinstance(v, Var) and v.name not in sig:
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
    for v in nodes(t):
        if isinstance(v, Var) and v.name not in sig:
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


class TreeBinding(Struct):
    """A tree variable: always bound to an atom."""

    __slots__ = ("atom",)

    @property
    def type(self) -> Type:
        return self.atom


class ForestBinding(Struct):
    """A forest variable: bound to an arbitrary (possibly plural) type."""

    __slots__ = ("type",)


Binding = Union[TreeBinding, ForestBinding]

# Ordered map from variable name to binding; extended functionally.
TypeEnv = Mapping[str, Binding]


class GlobalDecls(NamedTuple):
    """A program's ``FunctionDecl`` and ``ProcedureDecl`` nodes by name, in
    separate namespaces, as ``updates.program_decls`` resolves them.  The
    checker types calls against their headers; the interpreter runs their
    bodies."""

    functions: Mapping[str, Struct] = MappingProxyType({})
    procedures: Mapping[str, Struct] = MappingProxyType({})


EMPTY_DECLS = GlobalDecls()
