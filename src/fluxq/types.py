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
transitions of an automaton state.  Every state a row names is one
canonical object per set, so following a row finds its key by identity.

Every tree node is slotted and immutable, and its methods are copies of
plain functions written once per number of fields, so defining a node
class compiles nothing, and importing the module compiles nothing either.
Types are interned (``Type``): building a type returns the one live node
with its class and fields, so equal types are one object, and equality
and the hash are identity's; a type has no span.  Every other
node (query expressions, update statements, values, ``?`` tests and
bindings) is a structural ``Struct``, whose equality, hash and ``repr``
come from its fields; its parser span is not a field, so golden tests and
round-trips compare pure structure.  Every other record, such as
``GlobalDecls``, is a ``NamedTuple``.
"""

from __future__ import annotations

import builtins
import weakref
from functools import partial
from itertools import count
from operator import attrgetter
from types import FunctionType, MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Union

from .diagnostics import Diagnostic, SourceSpan, error
from .errors import UndeclaredVariable

# The methods a node class copies (see ``_Node``), one class of them per
# number of fields; these classes are never instantiated.  In their code
# field ``i`` is the parameter and attribute ``_f{i}``, set through the
# global ``_set_f{i}``, and is written ``chr(i + 1)`` in the text of the
# ``repr``, where the class name is ``chr(0)``.  ``Type`` classes have at
# most two fields, so only the first three hold a ``__new__``, and
# ``Struct`` classes at most five.
class _Fields0:
    def __new__(cls):
        key = (cls,)
        ref = _get(key)
        if ref is not None:
            self = ref()
            if self is not None:
                return self
        self = _new(cls)
        return _intern(key, self)

    def __init__(self, *, span=None):
        _set_span(self, span)
        _set_hash(self, None)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return () == ()
        return NotImplemented

    def __hash__(self):
        value = self._hash
        if value is None:
            value = hash(())
            _set_hash(self, value)
        return value

    def __repr__(self):
        return "\x00()"


class _Fields1:
    def __new__(cls, _f0):
        key = (cls, _f0)
        ref = _get(key)
        if ref is not None:
            self = ref()
            if self is not None:
                return self
        self = _new(cls)
        _set_f0(self, _f0)
        return _intern(key, self)

    def __init__(self, _f0, *, span=None):
        _set_f0(self, _f0)
        _set_span(self, span)
        _set_hash(self, None)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self._f0,) == (other._f0,)
        return NotImplemented

    def __hash__(self):
        value = self._hash
        if value is None:
            value = hash((self._f0,))
            _set_hash(self, value)
        return value

    def __repr__(self):
        return f"\x00(\x01={self._f0!r})"


class _Fields2:
    def __new__(cls, _f0, _f1):
        key = (cls, _f0, _f1)
        ref = _get(key)
        if ref is not None:
            self = ref()
            if self is not None:
                return self
        self = _new(cls)
        _set_f0(self, _f0)
        _set_f1(self, _f1)
        return _intern(key, self)

    def __init__(self, _f0, _f1, *, span=None):
        _set_f0(self, _f0)
        _set_f1(self, _f1)
        _set_span(self, span)
        _set_hash(self, None)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self._f0, self._f1) == (other._f0, other._f1)
        return NotImplemented

    def __hash__(self):
        value = self._hash
        if value is None:
            value = hash((self._f0, self._f1))
            _set_hash(self, value)
        return value

    def __repr__(self):
        return f"\x00(\x01={self._f0!r}, \x02={self._f1!r})"


class _Fields3:
    def __init__(self, _f0, _f1, _f2, *, span=None):
        _set_f0(self, _f0)
        _set_f1(self, _f1)
        _set_f2(self, _f2)
        _set_span(self, span)
        _set_hash(self, None)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return ((self._f0, self._f1, self._f2)
                    == (other._f0, other._f1, other._f2))
        return NotImplemented

    def __hash__(self):
        value = self._hash
        if value is None:
            value = hash((self._f0, self._f1, self._f2))
            _set_hash(self, value)
        return value

    def __repr__(self):
        return (f"\x00(\x01={self._f0!r}, \x02={self._f1!r}, "
                f"\x03={self._f2!r})")


class _Fields4:
    def __init__(self, _f0, _f1, _f2, _f3, *, span=None):
        _set_f0(self, _f0)
        _set_f1(self, _f1)
        _set_f2(self, _f2)
        _set_f3(self, _f3)
        _set_span(self, span)
        _set_hash(self, None)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return ((self._f0, self._f1, self._f2, self._f3)
                    == (other._f0, other._f1, other._f2, other._f3))
        return NotImplemented

    def __hash__(self):
        value = self._hash
        if value is None:
            value = hash((self._f0, self._f1, self._f2, self._f3))
            _set_hash(self, value)
        return value

    def __repr__(self):
        return (f"\x00(\x01={self._f0!r}, \x02={self._f1!r}, "
                f"\x03={self._f2!r}, \x04={self._f3!r})")


class _Fields5:
    def __init__(self, _f0, _f1, _f2, _f3, _f4, *, span=None):
        _set_f0(self, _f0)
        _set_f1(self, _f1)
        _set_f2(self, _f2)
        _set_f3(self, _f3)
        _set_f4(self, _f4)
        _set_span(self, span)
        _set_hash(self, None)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return ((self._f0, self._f1, self._f2, self._f3, self._f4)
                    == (other._f0, other._f1, other._f2, other._f3,
                        other._f4))
        return NotImplemented

    def __hash__(self):
        value = self._hash
        if value is None:
            value = hash((self._f0, self._f1, self._f2, self._f3,
                          self._f4))
            _set_hash(self, value)
        return value

    def __repr__(self):
        return (f"\x00(\x01={self._f0!r}, \x02={self._f1!r}, "
                f"\x03={self._f2!r}, \x04={self._f3!r}, "
                f"\x05={self._f4!r})")


_TEMPLATES = (_Fields0, _Fields1, _Fields2, _Fields3, _Fields4, _Fields5)


class _Node:
    """What ``Struct`` and ``Type`` share: fields listed in ``__slots__``,
    methods copied from templates, and no assignment.

    A class below ``Struct`` or ``Type`` copies the methods its root names
    in ``_methods`` from the plain functions written for its number of
    fields (``_Fields0`` to ``_Fields5``), with ``code.replace``, renaming
    the fields and the class name in, and binds the copies to its own slot
    descriptors.  No source is compiled at all: the templates' code comes
    from the bytecode cache with the module.  Each class has its own code
    objects, so the attribute caches of CPython's specializing interpreter
    stay monomorphic."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _methods: tuple[str, ...] = ()

    def __init_subclass__(cls):
        if _Node in cls.__bases__:
            return  # ``Struct`` or ``Type`` itself
        fields = cls._fields + tuple(cls.__dict__["__slots__"])
        cls._fields = fields
        renamed = {f"_f{i}": f for i, f in enumerate(fields)}
        shown = dict(enumerate((cls.__qualname__, *fields)))
        namespace = {f"_set_f{i}": getattr(cls, f).__set__
                     for i, f in enumerate(fields)}
        namespace.update(__builtins__=builtins, _set_span=Struct.span.__set__,
                         _set_hash=Struct._hash.__set__, _get=_TYPES.get,
                         _new=object.__new__, _intern=_intern)
        template = _TEMPLATES[len(fields)]
        for method in cls._methods:
            fn = getattr(template, method)
            code = fn.__code__
            bound = FunctionType(code.replace(
                co_varnames=tuple(renamed.get(n, n) for n in code.co_varnames),
                co_names=tuple(renamed.get(n, n) for n in code.co_names),
                co_consts=tuple(c.translate(shown) if isinstance(c, str) else c
                                for c in code.co_consts),
            ), namespace, method)
            bound.__kwdefaults__ = fn.__kwdefaults__
            bound.__qualname__ = f"{cls.__qualname__}.{method}"
            setattr(cls, method, staticmethod(bound) if method == "__new__"
                    else bound)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Struct(_Node):
    """Base of every structural tree node: query expressions, update
    statements, values, ``?`` tests and bindings.

    A subclass lists its fields in ``__slots__`` and gets an ``__init__``
    (fields by position, ``span=None`` by keyword), ``__eq__`` (same class,
    equal fields in order), ``__hash__`` (that of the tuple of fields,
    cached on first use) and ``__repr__``.  ``span`` is not a field, so
    equality, the hash and ``repr`` ignore it.  Types are not ``Struct``s:
    they are interned, carry no span and compare by identity (``Type``)."""

    __slots__ = ("span", "_hash")
    _methods = ("__init__", "__eq__", "__hash__", "__repr__")

    def __reduce__(self):
        # copy, deepcopy and pickle rebuild the node through its constructor,
        # since restoring the slots one by one would assign to them
        fields = tuple(getattr(self, f) for f in self._fields)
        return partial(self.__class__, span=self.span), fields


class Type(_Node):
    """Base of the type nodes, which are hash-consed: building a type whose
    class and fields (by identity) are those of a live one returns that
    one, so equal types are one object, and equality and the hash are
    identity's, at C speed and with no walk down the type.  Each class gets
    a ``__new__`` (fields by position) that looks its node up in one table,
    which holds the nodes weakly, and a ``__repr__``.  A node's
    ``_serial`` numbers it in construction order: iterating over a set of
    types in serial order is the same in every process.  A type has no
    span, since it outlives the text it was parsed from; a copy of it is
    the node itself."""

    __slots__ = ("_serial", "__weakref__")
    _methods = ("__new__", "__repr__")

    def __reduce__(self):
        # copy and pickle rebuild the node through its constructor, which
        # finds it, or interns it in another process
        return self.__class__, tuple(getattr(self, f) for f in self._fields)

    def __deepcopy__(self, memo):
        # through ``__reduce__`` it would copy every field first, all the
        # way down the type, to find the same node
        return self


class _Ref(weakref.ref):
    """The table's reference to a type, which knows the node's key."""

    __slots__ = ("key",)


# (class, *fields) -> the live node with them; an entry leaves with its node
_TYPES: dict[tuple, _Ref] = {}
_serials = count()
_set_serial = Type._serial.__set__
_serial_of = attrgetter("_serial")


def _forget(ref: _Ref, table=_TYPES) -> None:
    # a node built again after this one died may hold the key by now
    if table.get(ref.key) is ref:
        del table[ref.key]


def _intern(key: tuple, node: Type) -> Type:
    """Enter the new ``node`` in the table under ``key``, unless another
    thread entered a live node there first, which is then returned."""
    _set_serial(node, next(_serials))
    ref = _Ref(node, _forget)
    ref.key = key
    held = _TYPES.setdefault(key, ref)
    if held is not ref:
        other = held()
        if other is not None:
            return other
        _TYPES[key] = ref
    return node


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


class Declared(NamedTuple):
    """What the parser read of a ``type X = t`` declaration, which
    ``check_signature`` reports at: the declaration's span, every variable
    use written in ``t`` with its span, in written order, and the uses at
    the top level (outside element content), those of a ``t+`` repeated as
    its ``t, t*`` repeats them."""

    span: SourceSpan
    uses: tuple[tuple[str, SourceSpan], ...]
    top: tuple[tuple[str, SourceSpan], ...]


class Signature:
    """Ordered, immutable map from type-variable names to definition types.

    ``declared`` maps a name to what the parser read of its declaration
    (``Declared``); a signature built in code has none, and types carry no
    spans.  Like the tables below, it is outside equality, the hash and
    ``repr``.

    A signature also owns the tables that ``subtyping``, ``values`` and
    ``enumeration`` derive from it: nullability and linear form by type,
    the step row of each state (a set of alternatives, see ``union``), one
    canonical object per state, and the state of each type that a call
    starts from or a row names as a content (``state``).  Each entry is a
    pure function of the signature and its key, so the tables fill as
    checks run and are never invalidated; they are outside equality, the
    hash and ``repr``, and a copy starts with them empty."""

    __slots__ = ("_defs", "_declared", "_nullable", "_linear_forms",
                 "_steps", "_states", "_type_states")

    def __init__(self, defs: Mapping[str, Type] | Iterable[tuple[str, Type]] = (),
                 declared: Mapping[str, Declared] | None = None):
        if isinstance(defs, Mapping):
            items = list(defs.items())
        else:
            items = list(defs)
        object.__setattr__(self, "_defs", dict(items))
        object.__setattr__(self, "_declared", dict(declared or ()))
        # type -> bool, type -> ((atom, continuation), ...),
        # state -> (accepts, step row), state -> its canonical object, and
        # type -> the canonical object of its state
        object.__setattr__(self, "_nullable", {})
        object.__setattr__(self, "_linear_forms", {})
        object.__setattr__(self, "_steps", {})
        object.__setattr__(self, "_states", {})
        object.__setattr__(self, "_type_states", {})

    def __setattr__(self, name, value):
        raise AttributeError("Signature is immutable")

    def __reduce__(self):
        # copy, deepcopy and pickle rebuild through the constructor, which
        # also gives the copy empty tables
        return type(self), (list(self._defs.items()), self._declared)

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
        """Whether ``()`` is a value of ``t``.

        A ``|`` whose left side is not nullable, or a ``,`` whose left side
        is, has its right side's answer, so a chain's right spine is walked
        in a loop, and every node walked gets the answer at its end."""
        table = self._nullable
        out = table.get(t)
        if out is not None:
            return out
        if isinstance(t, (Empty, Star)):
            out = True
        elif isinstance(t, Atom):
            out = False
        elif isinstance(t, Var):
            out = self.nullable(self.definition(t.name))
        else:
            spine = []
            node = t
            while True:
                out = self.nullable(node.left)
                if out is (node.__class__ is Or):
                    break
                node = node.right
                if node.__class__ is not Or and node.__class__ is not Seq:
                    out = self.nullable(node)
                    break
                spine.append(node)
            for node in spine:
                table[node] = out
        table[t] = out
        return out

    def linear_form(self, t: Type) -> tuple[tuple[Atom, Type], ...]:
        """Head atoms of ``t`` with their continuations: the nonempty values
        of ``t`` are those of some head followed by its continuation.

        The pairs of a ``|`` chain, and of a ``,`` chain up to its first
        item that is not nullable, are gathered along its right spine in a
        loop, each pair once, in first-seen order."""
        table = self._linear_forms
        out = table.get(t)
        if out is not None:
            return out
        if isinstance(t, Empty):
            out = ()
        elif isinstance(t, Atom):
            out = ((t, EMPTY),)
        elif isinstance(t, Star):
            out = tuple((a, _seq(k, t)) for a, k in self.linear_form(t.inner))
        elif isinstance(t, Var):
            out = self.linear_form(self.definition(t.name))
        else:
            pairs: dict[tuple[Atom, Type], None] = {}
            node = t
            while True:
                if node.__class__ is Or:
                    for pair in self.linear_form(node.left):
                        pairs[pair] = None
                    node = node.right
                elif node.__class__ is Seq:
                    right = node.right
                    for a, k in self.linear_form(node.left):
                        pairs[a, _seq(k, right)] = None
                    if not self.nullable(node.left):
                        break
                    node = right
                else:
                    for pair in self.linear_form(node):
                        pairs[pair] = None
                    break
            out = tuple(pairs)
        table[t] = out
        return out

    def state(self, t: Type) -> frozenset[Type]:
        """The state of the one type ``t``, ``union((t,))``, as the one
        canonical object the signature keeps for that set (``_states``).
        ``subtype``, ``member`` and ``refute`` enter through it, so a call
        starts with one lookup by the type's identity, and its first step
        row lookup matches its key by identity too."""
        state = self._type_states.get(t)
        if state is None:
            state = union((t,))
            state = self._states.setdefault(state, state)
            self._type_states[t] = state
        return state

    def steps(self, state: frozenset[Type]) -> tuple[bool, dict[object, Step]]:
        """Whether some member of ``state`` is nullable, and its step row: a
        ``Step`` for each ``label`` (an element's name, or the atom class of
        ``bool`` or ``string``) that heads some member, and for nothing
        else.  Candidates appear once each, in first-seen order over the
        members taken in serial order.

        Every state the table holds, as a key or in a row, is one canonical
        object per distinct set (``_states``), so the lookups of ``member``
        and ``subtype`` that follow a row match their key by identity
        instead of comparing equal sets member by member."""
        cached = self._steps.get(state)
        if cached is not None:
            return cached
        states = self._states

        def canonical(s: frozenset[Type]) -> frozenset[Type]:
            return states.setdefault(s, s)

        groups: dict[object, dict[tuple[Type, Type], None]] = {}
        # identity hashes order a set by address; serials order it the same
        # in every process, and so the goals and witnesses read off the row
        for u in sorted(state, key=_serial_of):
            for a, k in self.linear_form(u):
                groups.setdefault(a.label, {})[a.content, k] = None
        row = {key: (tuple((self.state(c), k) for c, k in pairs),
                     canonical(union(k for _, k in pairs)),
                     canonical(union(k for c, k in pairs if self.nullable(c))))
               for key, pairs in groups.items()}
        out = (any(self.nullable(u) for u in state), row)
        self._steps[canonical(state)] = out
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
    """Well-formedness diagnostics: undeclared references, unguarded
    definitions and, in a signature with neither, variables with no value
    (as ``X`` has none under ``X = cons[X]``).

    One diagnostic per violation, at the spans the parser recorded
    (``Declared``): for each definition its undeclared variable uses, then
    its top-level ones, each in reverse written order, and last each
    variable with no value, at its declaration.  A definition built in code
    has no record: it reports each distinct undeclared variable once, all
    without a span.  An empty list means the signature satisfies every
    invariant.
    """
    out: list[Diagnostic] = []
    spans: dict[str, SourceSpan | None] = {}
    for name, body in sig.items():
        text = sig._declared.get(name)
        if text is None:
            spans[name] = None
            uses = [(v.name, None) for v in nodes(body) if v.__class__ is Var]
            top = [(v.name, None) for v in _top_level_vars(body)]
        else:
            spans[name] = text.span
            uses, top = text.uses[::-1], text.top[::-1]
        for v, span in uses:
            if v not in sig:
                out.append(error(
                    f"type variable {v} used in definition of {name} is not declared",
                    rule="signature/undeclared", span=span))
        for v, span in top:
            out.append(error(
                f"top-level variable {v} in definition of {name}",
                rule="signature/guardedness", span=span))
    if out:
        return out
    from .enumeration import _inhabitants  # enumeration imports this module
    value = _inhabitants(sig)
    return [error(f"type variable {name} has no value: its definition "
                  f"admits only infinite trees",
                  rule="signature/uninhabited", span=span)
            for name, span in spans.items() if value(Var(name)) is None]


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
