"""Regular-expression types over XML forests, recursive type signatures, and
the syntax trees of the query and update cores.

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

Every tree node is slotted and immutable.  Its class copies one method,
its constructor, from a plain function written once per number of fields,
so defining a node class compiles nothing, and importing the module
compiles nothing either.  The other methods are written once, on the
base classes, which only trees override (see ``values``).
Types are interned (``Type``): building a type returns the one live node
with its class and fields, so equal types are one object, and equality
and the hash are identity's; a type has no span.  Every other node
(query expressions, update statements, values and bindings) is a
structural ``Struct``, whose equality, hash and ``repr`` come from its
fields; its span is not a field, so golden tests and round-trips compare
pure structure, and a parsed node's span is resolved only when read.
Every other record, such as ``GlobalDecls``, is a ``NamedTuple``.

The query and update syntax lives here too, with ``program_decls``, so the
parser, the interpreter and the printers load no typechecker.
"""

from __future__ import annotations

import builtins
import weakref
from functools import partial
from itertools import count
from operator import attrgetter
from types import FunctionType, MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Union

from .diagnostics import Diagnostic, SourceSpan, UndeclaredVariable

# The constructors a node class copies (see ``_Node``), one per number of
# fields: ``Struct.__init__`` for up to five, and ``Type.__new__`` for up to
# two.  In their code field ``i`` is the parameter ``_f{i}``, set through
# the global ``_set_f{i}``; the copy renames the parameter to the field.


def _init0(self, *, span=None):
    _set_span(self, span)
    _set_hash(self, None)


def _init1(self, _f0, *, span=None):
    _set_f0(self, _f0)
    _set_span(self, span)
    _set_hash(self, None)


def _init2(self, _f0, _f1, *, span=None):
    _set_f0(self, _f0)
    _set_f1(self, _f1)
    _set_span(self, span)
    _set_hash(self, None)


def _init3(self, _f0, _f1, _f2, *, span=None):
    _set_f0(self, _f0)
    _set_f1(self, _f1)
    _set_f2(self, _f2)
    _set_span(self, span)
    _set_hash(self, None)


def _init4(self, _f0, _f1, _f2, _f3, *, span=None):
    _set_f0(self, _f0)
    _set_f1(self, _f1)
    _set_f2(self, _f2)
    _set_f3(self, _f3)
    _set_span(self, span)
    _set_hash(self, None)


def _init5(self, _f0, _f1, _f2, _f3, _f4, *, span=None):
    _set_f0(self, _f0)
    _set_f1(self, _f1)
    _set_f2(self, _f2)
    _set_f3(self, _f3)
    _set_f4(self, _f4)
    _set_span(self, span)
    _set_hash(self, None)


def _new0(cls):
    key = (cls,)
    ref = _get(key)
    if ref is not None:
        self = ref()
        if self is not None:
            return self
    return _intern(key, _new(cls))


def _new1(cls, _f0):
    key = (cls, _f0)
    ref = _get(key)
    if ref is not None:
        self = ref()
        if self is not None:
            return self
    self = _new(cls)
    _set_f0(self, _f0)
    return _intern(key, self)


def _new2(cls, _f0, _f1):
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


class _Node:
    """What ``Struct`` and ``Type`` share: fields listed in ``__slots__``,
    a constructor copied per class, one ``repr``, and no assignment.

    A class below ``Struct`` or ``Type`` copies the constructor its root
    lists in ``_constructors`` for its number of fields, with
    ``code.replace`` renaming the parameters to the fields, so keyword
    arguments and arity errors name them, and the code to ``__init__`` or
    ``__new__``, so frames do too; the copy's globals bind
    ``_set_f{i}`` to the class's own slot descriptors.  No source is
    compiled: the constructors' code comes from the bytecode cache with
    the module.  Each class has its own constructor code, so the caches of
    CPython's specializing interpreter stay monomorphic where nodes are
    built; the other node methods are cold (see ``values`` for trees)."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _constructors: tuple[FunctionType, ...] = ()

    def __init_subclass__(cls):
        if _Node in cls.__bases__:
            return  # ``Struct`` or ``Type`` itself
        fields = cls._fields + tuple(cls.__dict__["__slots__"])
        cls._fields = fields
        renamed = {f"_f{i}": f for i, f in enumerate(fields)}
        namespace = {f"_set_f{i}": getattr(cls, f).__set__
                     for i, f in enumerate(fields)}
        namespace.update(__builtins__=builtins, _set_span=_set_span,
                         _set_hash=_set_hash, _get=_TYPES.get,
                         _new=object.__new__, _intern=_intern)
        template = cls._constructors[len(fields)]
        name = "__new__" if issubclass(cls, Type) else "__init__"
        code = template.__code__
        copy = FunctionType(code.replace(co_name=name, co_varnames=tuple(
            renamed.get(n, n) for n in code.co_varnames)), namespace, name)
        copy.__kwdefaults__ = template.__kwdefaults__
        copy.__qualname__ = f"{cls.__qualname__}.{name}"
        setattr(cls, name, staticmethod(copy) if name == "__new__" else copy)

    def __repr__(self):
        shown = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Struct(_Node):
    """Base of every structural tree node: query expressions, update
    statements, values, ``?`` tests and bindings.

    A subclass lists its fields in ``__slots__`` and gets an ``__init__``
    (fields by position, ``span=None`` by keyword).  ``__eq__`` (same class,
    equal fields in order) and ``__hash__`` (that of the tuple of fields,
    cached in ``_hash`` on first use) are written once here, read
    ``_fields``, and keep their own stack, so no tree is too deep or long
    for them.  ``span`` is not a field, so equality, the hash and ``repr``
    ignore it.  Types are not ``Struct``s: they are interned, carry no span
    and compare by identity (``Type``)."""

    __slots__ = ("_span", "_hash")
    _constructors = (_init0, _init1, _init2, _init3, _init4, _init5)

    @property
    def span(self) -> SourceSpan | None:
        """None, a ``SourceSpan``, or the parser's record resolved to one."""
        return _resolve_span(self._span)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is b:
                continue
            if isinstance(a, Struct) and a.__class__ is b.__class__:
                stack += [(getattr(a, f), getattr(b, f)) for f in a._fields]
            elif a.__class__ is b.__class__ is tuple:
                if len(a) != len(b):
                    return False
                stack += zip(a, b)
            elif a != b:
                return False
        return True

    def __hash__(self):
        value = self._hash
        if value is None:
            # the nodes below, in the fields or in a tuple there, are hashed
            # first, so hashing a node's fields reads cached hashes only
            stack = [self]
            while stack:
                node = stack[-1]
                fields = [getattr(node, f) for f in node._fields]
                pending = [x for v in fields
                           for x in (v if v.__class__ is tuple else (v,))
                           if isinstance(x, Struct) and x._hash is None]
                if pending:
                    stack += pending
                else:
                    _set_hash(stack.pop(), hash(tuple(fields)))
            value = self._hash
        return value

    def __reduce__(self):
        # copy, deepcopy and pickle rebuild the node through its constructor,
        # since restoring the slots one by one would assign to them; the
        # copy's span has its seven fields and not the parsed text
        fields = tuple(getattr(self, f) for f in self._fields)
        return partial(self.__class__, span=self.span), fields


def _resolve_span(span) -> SourceSpan | None:
    """A recorded span as read: the parser records the plain tuple
    ``(begin, end, source)``, which ``source.span`` resolves, and None and
    a ``SourceSpan`` given in code read as they are."""
    if span.__class__ is tuple:
        begin, end, source = span
        return source.span(begin, end)
    return span


_set_span, _set_hash = Struct._span.__set__, Struct._hash.__set__


class Type(_Node):
    """Base of the type nodes, which are hash-consed: building a type whose
    class and fields (by identity) are those of a live one returns that
    one, so equal types are one object, and equality and the hash are
    ``object``'s, at C speed and with no walk down the type.  Each class
    gets a ``__new__`` (fields by position) that looks its node up in one
    table, which holds the nodes weakly.  A node's ``_serial`` numbers it
    in construction order: iterating over a set of types in serial order
    is the same in every process.  A type has no span, since it outlives
    the text it was parsed from; a copy of it is the node itself."""

    __slots__ = ("_serial", "__weakref__")
    _constructors = (_new0, _new1, _new2)

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
    membership automaton.  Each ``|`` node is walked once, so a shared
    subterm (``t | t``, nested) costs one visit, not one per path."""
    out: set[Type] = set()
    seen: set[Type] = set()
    stack = list(types)
    while stack:
        t = stack.pop()
        if t.__class__ is Or:
            if t not in seen:
                seen.add(t)
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
    its ``t, t*`` repeats them, each span recorded as a node records it
    (resolved in a copy of its ``Signature``)."""

    span: tuple
    uses: tuple[tuple[str, tuple], ...]
    top: tuple[tuple[str, tuple], ...]


class Signature:
    """Ordered, immutable map from type-variable names to definition types.

    ``declared`` maps a name to what the parser read of its declaration
    (``Declared``); a signature built in code has none, and types carry no
    spans.  Like the tables below, it is outside equality, the hash and
    ``repr``.

    A signature also owns the tables that ``subtyping`` and ``values``
    derive from it: nullability, linear form and top-level atoms by type
    (``atoms``), the step row of each state (a set of alternatives, see
    ``union``) and its lighter summary (``summary``), one canonical object
    per state, and the state of each type that a call starts from or a row
    names as a content (``state``).  Each entry is a pure function of the
    signature and its key, so the tables fill as checks run and are never
    invalidated; they are outside equality, the hash and ``repr``, and a
    copy starts with them empty."""

    __slots__ = ("_defs", "_declared", "_nullable", "_linear_forms",
                 "_atoms", "_steps", "_summaries", "_states", "_type_states")

    def __init__(self, defs: Mapping[str, Type] | Iterable[tuple[str, Type]] = (),
                 declared: Mapping[str, Declared] | None = None):
        if isinstance(defs, Mapping):
            items = list(defs.items())
        else:
            items = list(defs)
        object.__setattr__(self, "_defs", dict(items))
        object.__setattr__(self, "_declared", dict(declared or ()))
        # type -> bool, type -> ((atom, continuation), ...), type -> its
        # top-level atoms, state -> (accepts, step row), state -> (accepts,
        # head labels, alternatives, star alphabets), state -> its canonical
        # object, and type -> the canonical object of its state
        object.__setattr__(self, "_nullable", {})
        object.__setattr__(self, "_linear_forms", {})
        object.__setattr__(self, "_atoms", {})
        object.__setattr__(self, "_steps", {})
        object.__setattr__(self, "_summaries", {})
        object.__setattr__(self, "_states", {})
        object.__setattr__(self, "_type_states", {})

    def __setattr__(self, name, value):
        raise AttributeError("Signature is immutable")

    def __reduce__(self):
        # copy, deepcopy and pickle rebuild through the constructor, which
        # also gives the copy empty tables; as a node's, each recorded span
        # is resolved, so the copy holds seven fields and not the parsed text
        def resolved(uses):
            return tuple((v, _resolve_span(span)) for v, span in uses)

        declared = {name: Declared(_resolve_span(d.span), resolved(d.uses),
                                   resolved(d.top))
                    for name, d in self._declared.items()}
        return type(self), (list(self._defs.items()), declared)

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

    def atoms(self, t: Type) -> frozenset[Atom]:
        """The atoms of ``t`` at its top level, reached through ``|``,
        ``,``, ``*`` and unfolded variables but not into element content:
        each tree of a value of ``t`` is a value of one of them."""
        out = self._atoms.get(t)
        if out is None:
            out = self._atoms[t] = self._leaves((t,), True) - {EMPTY}
        return out

    def _leaves(self, types: Iterable[Type], deep: bool) -> frozenset[Type]:
        """The nodes reached from ``types`` through ``|`` and unfolded
        variables, and through ``,`` and ``*`` too if ``deep``, that are
        none of those, each node walked once."""
        out: set[Type] = set()
        seen: set[Type] = set()
        stack = list(types)
        while stack:
            t = stack.pop()
            if t in seen:
                continue
            seen.add(t)
            cls = t.__class__
            if cls is Or or (deep and cls is Seq):
                stack += (t.left, t.right)
            elif cls is Var:
                stack.append(self.definition(t.name))
            elif deep and cls is Star:
                stack.append(t.inner)
            else:
                out.add(t)
        return frozenset(out)

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
        states, nullable, state_of = self._states, self.nullable, self.state
        groups: dict[object, dict[tuple[Type, Type], None]] = {}
        # identity hashes order a set by address; serials order it the same
        # in every process, and so the goals and witnesses read off the row
        for u in state if len(state) == 1 else sorted(state, key=_serial_of):
            for a, k in self.linear_form(u):
                groups.setdefault(a.label, {})[a.content, k] = None
        row: dict[object, Step] = {}
        for label, pairs in groups.items():
            # the continuations' union, and the leaf's (those whose content
            # accepts ()), from each continuation's canonical state
            cands, conts, leaves = [], None, None
            for c, k in pairs:
                ks = state_of(k)
                cands.append((state_of(c), k))
                conts = ks if conts is None else conts | ks
                if nullable(c):
                    leaves = ks if leaves is None else leaves | ks
            leaves = leaves or frozenset()
            row[label] = (tuple(cands), states.setdefault(conts, conts),
                          states.setdefault(leaves, leaves))
        out = (any(map(nullable, state)), row)
        self._steps[states.setdefault(state, state)] = out
        return out

    def summary(self, state: frozenset[Type]) -> tuple[
            bool, frozenset, frozenset[Type], tuple[frozenset[Type], ...]]:
        """What ``subtyping`` reads of ``state`` before it needs a step row:
        whether some member is nullable; the labels that head its members,
        which are the keys of its row; its alternatives, the members with
        top-level variables unfolded (and ``|`` flattened); and, for each
        alternative ``u*``, the alternatives of ``u``.  No row is built."""
        cached = self._summaries.get(state)
        if cached is not None:
            return cached
        labels = frozenset([a.label for u in state
                            for a, _ in self.linear_form(u)])
        alternatives = self._leaves(state, False)
        stars = tuple([self._leaves((u.inner,), False)
                       for u in alternatives if u.__class__ is Star])
        out = (any(map(self.nullable, state)), labels, alternatives, stars)
        self._summaries[self._states.setdefault(state, state)] = out
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
    spans: dict[str, tuple | None] = {}  # as ``Declared`` records them
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
                out.append(Diagnostic(
                    f"type variable {v} used in definition of {name} is not declared",
                    rule="signature/undeclared", span=_resolve_span(span)))
        for v, span in top:
            out.append(Diagnostic(
                f"top-level variable {v} in definition of {name}",
                rule="signature/guardedness", span=_resolve_span(span)))
    if out:
        return out
    from .values import inhabitants  # values imports this module
    value = inhabitants(sig)
    return [Diagnostic(f"type variable {name} has no value: its definition "
                       f"admits only infinite trees",
                       rule="signature/uninhabited", span=_resolve_span(span))
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
    shared in ``t`` has one shared image.  A ``|``/``,`` chain's right
    spine is walked in a loop, its left sides mapped in written order."""
    memo: dict[int, Type] = {}

    def go(t: Type) -> Type:
        spine: list[tuple[Type, Type]] = []  # (node, image of its left)
        while (out := memo.get(id(t))) is None:
            cls = t.__class__
            if cls is Or or cls is Seq:
                spine.append((t, go(t.left)))
                t = t.right
                continue
            if cls is Empty:
                out = EMPTY
            elif cls is Star:
                out = Star(go(t.inner))
            elif cls is Var:
                out = go(sig.definition(t.name))
            else:
                out = f(t)
            memo[id(t)] = out
            break
        while spine:
            node, left = spine.pop()
            out = node.__class__(left, out)
            memo[id(node)] = out
        return out

    return go(t)


# --- typing environments ----------------------------------------------------


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


# --- query and update syntax, and a program's declarations -----------------


class QueryExpr(Struct):
    __slots__ = ()


class EmptySeq(QueryExpr):
    __slots__ = ()


class Concat(QueryExpr):
    """A ``,`` list: ``items`` is a tuple of two or more expressions."""

    __slots__ = ("items",)


class Elem(QueryExpr):
    __slots__ = ("label", "content")


class StrLit(QueryExpr):
    __slots__ = ("value",)


class BoolLit(QueryExpr):
    __slots__ = ("value",)


class VarRef(QueryExpr):
    __slots__ = ("name",)


class Let(QueryExpr):
    __slots__ = ("var", "bound", "body")


class If(QueryExpr):
    __slots__ = ("cond", "then", "els")


class Children(QueryExpr):
    """Child projection of a for-bound tree variable."""

    __slots__ = ("var",)


class LabelFilter(QueryExpr):
    """Keep exactly the trees labeled ``label``, in order."""

    __slots__ = ("source", "label")


class For(QueryExpr):
    __slots__ = ("var", "source", "body")


class Call(QueryExpr):
    __slots__ = ("name", "args")


class FunctionDecl(Struct):
    __slots__ = ("name", "params", "result", "body")


class QueryProgram(Struct):
    __slots__ = ("functions", "main", "ascription")


class UpdateStmt(Struct):
    __slots__ = ()


class Skip(UpdateStmt):
    __slots__ = ()


class SeqStmt(UpdateStmt):
    """A ``;`` list: ``items`` is a tuple of two or more statements."""

    __slots__ = ("items",)


class IfStmt(UpdateStmt):
    __slots__ = ("cond", "then", "els")


class LetStmt(UpdateStmt):
    __slots__ = ("var", "bound", "body")


class ProcCall(UpdateStmt):
    __slots__ = ("name", "args")


class Insert(UpdateStmt):
    __slots__ = ("expr",)


class Delete(UpdateStmt):
    __slots__ = ()


class Rename(UpdateStmt):
    __slots__ = ("label",)


class Snapshot(UpdateStmt):
    """Bind a forest variable to the focused value, then update it."""

    __slots__ = ("var", "body")


class Test(UpdateStmt):
    """Run the body only if the focused tree passes the test: ``test`` is
    the label it admits, as ``passes`` reads it."""

    __slots__ = ("test", "body")


# the ``?`` tests written as a keyword, each admitting its atom class; any
# other test (a label or ``*``) admits the label it is written as
TEST_KEYWORDS = {"bool": BoolAtom, "string": StringAtom}


def passes(label, test) -> bool:
    """Does a tree or an atom with head ``label`` pass the ``?`` test
    ``test``, which holds the label it admits (an element's name, ``"*"``
    for any name, or the atom class of ``bool`` or ``string``)?  The
    checker and the interpreter both decide ``?`` here, so they cannot
    disagree."""
    return label == test or test == "*" and label.__class__ is str


class Nav(UpdateStmt):
    """``direction`` is the keyword: left, right, children or iter."""

    __slots__ = ("direction", "body")


class ProcedureDecl(Struct):
    __slots__ = ("name", "params", "input", "output", "body")


class UpdateProgram(Struct):
    __slots__ = ("functions", "procedures", "main", "input", "output")


class GlobalDecls(NamedTuple):
    """A program's ``FunctionDecl`` and ``ProcedureDecl`` nodes by name, in
    separate namespaces, as ``program_decls`` resolves them.  The checker
    types calls against their headers; the interpreter runs their
    bodies."""

    functions: Mapping[str, FunctionDecl] = MappingProxyType({})
    procedures: Mapping[str, ProcedureDecl] = MappingProxyType({})


EMPTY_DECLS = GlobalDecls()


def program_decls(prog: QueryProgram | UpdateProgram
                  ) -> tuple[GlobalDecls, list[Diagnostic]]:
    """A program's declarations by name, and a diagnostic for each
    duplicate: of two declarations with one name the first wins."""
    diags: list[Diagnostic] = []

    def first_of(declared, kind: str) -> dict:
        kept = {}
        for d in declared:
            if d.name in kept:
                diags.append(Diagnostic(f"{kind} {d.name} declared twice",
                                        f"program/duplicate-{kind}", d.span))
            else:
                kept[d.name] = d
        return kept

    decls = GlobalDecls(
        first_of(prog.functions, "function"),
        first_of(prog.procedures if isinstance(prog, UpdateProgram) else (),
                 "procedure"))
    return decls, diags
