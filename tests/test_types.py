"""Signature well-formedness, unfolding, syntactic atom extraction, the
immutable node contracts of `Struct` and of the interned `Type`,
`Signature` as a hashable value, the laws of its nullability and
linear-form tables, and the read-only empty declarations."""

import copy
import gc
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from fluxq import (
    BOOL, BoolAtom, BoolLit, BoolVal, Call, Children, Concat,
    Delete, Elem, Element, Empty, EMPTY, EMPTY_DECLS,
    EMPTY_SIGNATURE, EmptySeq, For, ForestBinding, FunctionDecl,
    GlobalDecls, If, IfStmt,
    Insert, LabelFilter, Let, LetStmt, Nav, Node, Or, ProcCall,
    ProcedureDecl, QueryProgram, Rename, Seq, SeqStmt,
    Signature, Skip, Snapshot, SourceSpan, Star, STRING, StringAtom,
    StrLit, StrVal, TreeBinding, UndeclaredVariable,
    UpdateProgram, Var, VarRef, check_signature, member,
    parse_type, parse_value, refute, subtype, types_upto, values_upto,
)
from fluxq import types, updates
from fluxq.types import Struct, Type, _Node, union


def sig_of(**defs):
    return Signature({name: parse_type(text) for name, text in defs.items()})


LIST_SIG = sig_of(X="nil[] | cons[a[], X]")
TREE_SIG = sig_of(Tree="tree[leaf[string] | node[Tree*]]")

SPAN = SourceSpan("f", 0, 1, 1, 1, 1, 2)
SRC = Path(__file__).resolve().parent.parent / "src"


def struct_cases(span=None):
    """One node of every concrete node class; ``span`` is given to the
    outermost node only, unless it is a type, which takes none."""
    x, e, s = VarRef("x"), EmptySeq(), Skip()
    return [
        BoolAtom(), StringAtom(), Empty(), Element("a", EMPTY),
        Or(BOOL, STRING), Seq(BOOL, STRING), Star(BOOL), Var("X"),
        TreeBinding(BOOL, span=span),
        ForestBinding(STRING, span=span),
        EmptySeq(span=span), Concat((e, x), span=span),
        Elem("a", e, span=span), StrLit("s", span=span),
        BoolLit(True, span=span), VarRef("x", span=span),
        Let("y", e, x, span=span), If(BoolLit(True), e, x, span=span),
        Children("x", span=span), LabelFilter(x, "a", span=span),
        For("y", x, VarRef("y"), span=span), Call("f", (x,), span=span),
        FunctionDecl("f", (("x", BOOL),), BOOL, x, span=span),
        QueryProgram((), e, EMPTY, span=span),
        Skip(span=span), SeqStmt((s, Delete()), span=span),
        IfStmt(BoolLit(True), s, Delete(), span=span),
        LetStmt("y", e, s, span=span), ProcCall("p", (x,), span=span),
        Insert(e, span=span), Delete(span=span), Rename("b", span=span),
        Snapshot("y", s, span=span), updates.Test("a", s, span=span),
        Nav("left", s, span=span),
        ProcedureDecl("p", (), EMPTY, EMPTY, s, span=span),
        UpdateProgram((), (), s, EMPTY, EMPTY, span=span),
        BoolVal(True, span=span), StrVal("s", span=span),
        Node("a", (StrVal("s"),), span=span),
    ]


def concrete_structs() -> set[type]:
    """Every ``Struct`` or ``Type`` class that has no subclass."""
    found, stack = set(), [Struct, Type]
    while stack:
        cls = stack.pop()
        subclasses = cls.__subclasses__()
        if not subclasses and cls not in (Struct, Type):
            found.add(cls)
        stack.extend(subclasses)
    return found


def _class_name(node) -> str:
    return type(node).__name__


def field_values(node) -> tuple:
    return tuple(getattr(node, f) for f in type(node)._fields)


class TestCheckSignature:
    def test_recursion_through_elements_is_allowed(self):
        assert check_signature(LIST_SIG) == []

    def test_mutual_recursion_is_allowed(self):
        sig = sig_of(A="a[B]", B="b[A?]")
        assert check_signature(sig) == []

    def test_top_level_variable_is_rejected(self):
        sig = Signature({"X": parse_type("() | a[],X")})
        diags = check_signature(sig)
        assert len(diags) == 1
        assert "top-level variable X" in diags[0].message
        assert diags[0].rule == "signature/guardedness"

    def test_top_level_variable_under_star_is_rejected(self):
        sig = Signature({"Y": Star(Var("Y"))})
        assert len(check_signature(sig)) == 1

    def test_undeclared_reference_is_reported(self):
        sig = Signature({"X": parse_type("a[Missing]")})
        diags = check_signature(sig)
        assert len(diags) == 1
        assert "Missing" in diags[0].message

    def test_empty_signature(self):
        assert check_signature(EMPTY_SIGNATURE) == []

    def test_one_diagnostic_per_violation(self):
        sig = Signature({"X": Or(Var("X"), parse_type("a[Zed]"))})
        assert len(check_signature(sig)) == 2


class TestUnfold:
    def test_returns_definition_verbatim(self):
        assert LIST_SIG.definition("X") == parse_type("nil[] | cons[a[], X]")

    def test_tree_definition(self):
        assert TREE_SIG.definition("Tree") == parse_type(
            "tree[leaf[string] | node[Tree*]]")

    def test_absent_variable_raises(self):
        with pytest.raises(UndeclaredVariable):
            EMPTY_SIGNATURE.definition("X")


class TestSyntacticAtoms:
    def test_sequence_of_atoms(self):
        atoms = EMPTY_SIGNATURE.atoms(parse_type("b[]*,c[]?"))
        assert atoms == {Element("b", EMPTY), Element("c", EMPTY)}

    def test_empty_type_has_no_atoms(self):
        assert EMPTY_SIGNATURE.atoms(EMPTY) == frozenset()

    def test_recursive_signature_stops_at_element_content(self):
        atoms = LIST_SIG.atoms(Var("X"))
        assert atoms == {Element("nil", EMPTY),
                         Element("cons", Seq(Element("a", EMPTY), Var("X")))}

    def test_base_atoms(self):
        atoms = EMPTY_SIGNATURE.atoms(parse_type("bool,string"))
        assert atoms == {BOOL, STRING}

    def test_undeclared_variable_raises(self):
        with pytest.raises(UndeclaredVariable):
            EMPTY_SIGNATURE.atoms(Var("Nope"))


class TestSummary:
    """``Signature.summary``: what ``subtyping`` reads of a state before it
    needs its step row."""

    def test_summary_of_a_state(self):
        sig = sig_of(X="a[X*] | b[]")
        state = sig.state(parse_type("X | c[]* | ()"))
        accepts, labels, alternatives, stars = sig.summary(state)
        assert accepts and labels == {"a", "b", "c"}
        assert alternatives == {parse_type(t)
                                for t in ("a[X*]", "b[]", "c[]*", "()")}
        assert stars == (frozenset([parse_type("c[]")]),)
        assert sig.summary(state) is sig._summaries[state]
        assert not sig._steps

    def test_star_alphabets_unfold_variables(self):
        sig = sig_of(X="a[X*] | b[]")
        accepts, labels, alternatives, stars = sig.summary(
            sig.state(parse_type("(X | c[])*,d[] | e[]")))
        assert not accepts and labels == {"a", "b", "c", "d", "e"}
        assert stars == ()
        _, _, _, stars = sig.summary(sig.state(parse_type("(X | c[])* | e[]")))
        assert stars == (frozenset(parse_type(t)
                                   for t in ("a[X*]", "b[]", "c[]")),)


class TestUnion:
    def test_a_shared_alternative_is_walked_once(self):
        # T_{k+1} = T_k | T_k has 2^40 paths to b[] but 41 nodes.  A
        # ``union`` that walked every path would never return, so the calls
        # run in a child process that a timeout stops.
        script = (
            "import sys\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "from fluxq import Or, Signature, member, parse_type, parse_value,"
            " subtype\n"
            "t = b = parse_type('b[]')\n"
            "for _ in range(40):\n"
            "    t = Or(t, t)\n"
            "sig = Signature()\n"
            "print(sig.state(t) == {b}, subtype(sig, t, parse_type('b[]*')),\n"
            "      member(sig, parse_value('b[]'), t),\n"
            "      member(sig, parse_value('a[]'), t))\n")
        try:
            run = subprocess.run([sys.executable, "-c", script, str(SRC)],
                                 capture_output=True, text=True, timeout=60)
        except subprocess.TimeoutExpired:
            pytest.fail("union of a 41-node shared type ran past 60 s")
        assert (run.returncode, run.stdout) == (
            0, "True True True False\n"), run.stderr


class TestImmutability:
    def test_signature_rejects_mutation(self):
        with pytest.raises(AttributeError):
            LIST_SIG._defs = {}

    def test_every_struct_class_has_a_case(self):
        assert {type(node) for node in struct_cases()} == concrete_structs()

    @pytest.mark.parametrize("node", struct_cases(), ids=_class_name)
    def test_fields_cannot_be_assigned_or_deleted(self, node):
        for name in (*type(node)._fields, "span", "extra"):
            with pytest.raises(AttributeError):
                setattr(node, name, None)
            with pytest.raises(AttributeError):
                delattr(node, name)

    @pytest.mark.parametrize("plain, spanned",
                             zip(struct_cases(), struct_cases(SPAN)),
                             ids=[_class_name(n) for n in struct_cases()])
    def test_span_is_outside_equality_hash_and_repr(self, plain, spanned):
        if isinstance(plain, Type):  # a type has no span: it is one node
            assert plain is spanned and not hasattr(plain, "span")
            return
        assert plain.span is None and spanned.span is SPAN
        assert plain == spanned
        assert hash(plain) == hash(spanned)
        assert repr(plain) == repr(spanned)

    @pytest.mark.parametrize(
        "node", struct_cases() + struct_cases(SPAN),
        ids=[f"{kind}-{_class_name(n)}" for kind in ("plain", "spanned")
             for n in struct_cases()])
    def test_copy_deepcopy_and_pickle(self, node):
        for twin in (copy.copy(node), copy.deepcopy(node),
                     pickle.loads(pickle.dumps(node))):
            assert type(twin) is type(node)
            assert twin == node and hash(twin) == hash(node)
            if isinstance(node, Type):
                assert twin is node
            else:
                assert twin.span == node.span

    def test_equality_needs_the_same_class_and_fields(self):
        assert Element("a", EMPTY) != Element("b", EMPTY)
        assert Or(BOOL, STRING) != Seq(BOOL, STRING)
        assert Or(BOOL, STRING) != Or(STRING, BOOL)
        assert BoolAtom() != StringAtom()
        assert Skip() != Delete()

    def test_pinned_reprs(self):
        t = parse_type("a[b[]*,c[]?]")
        assert repr(t) == (
            "Element(label='a', content=Seq(left=Star(inner=Element("
            "label='b', content=Empty())), right=Or(left=Element(label='c', "
            "content=Empty()), right=Empty())))")
        assert hash(t) == hash(parse_type("a[b[]*,c[]?]"))
        assert repr(parse_value('a["x",true]')) == (
            "(Node(label='a', children=(StrVal(value='x'), "
            "BoolVal(value=True))),)")

    @pytest.mark.parametrize("node", struct_cases(), ids=_class_name)
    def test_repr_names_each_field(self, node):
        # the value classes write out their ``__repr__``; it must not drift
        # from the one every other node takes
        shown = ", ".join(f"{f}={v!r}" for f, v in
                          zip(type(node)._fields, field_values(node)))
        assert repr(node) == f"{_class_name(node)}({shown})"


class TestConstruction:
    """How each ``Struct`` class's methods behave, and that building them
    compiles no source per class."""

    def test_fields_by_position_and_span_by_keyword(self):
        for cls, args in ((Empty, (EMPTY,)), (Var, ()), (Var, ("X", "Y")),
                          (Element, ("a",)), (Or, (BOOL, STRING, EMPTY)),
                          (Var, ("X", SPAN)), (Empty, (SPAN,)),
                          (VarRef, ()), (VarRef, ("x", SPAN))):
            with pytest.raises(TypeError):
                cls(*args)
        for cls in (Var, VarRef):
            with pytest.raises(TypeError):
                cls("X", spam=SPAN)
        assert Element(content=EMPTY, label="a") is Element("a", EMPTY)
        assert Elem(content=EmptySeq(), label="a") == Elem("a", EmptySeq())
        assert VarRef("x", span=SPAN).span is SPAN
        with pytest.raises(TypeError):  # a type takes no span
            Var("X", span=SPAN)

    @pytest.mark.parametrize("node, fields", [
        (EmptySeq(), ()), (VarRef("x"), ("x",)),
        (Elem("a", StrLit("s")), ("a", StrLit("s"))),
        (Node("a", ()), ("a", ())), (FunctionDecl("f", (), BOOL, EmptySeq()),
                                     ("f", (), BOOL, EmptySeq())),
    ] + [(node, field_values(node)) for node in struct_cases()
         if isinstance(node, Struct) and type(node) not in
         (EmptySeq, VarRef, Elem, Node, FunctionDecl)],
        ids=lambda x: _class_name(x) if isinstance(x, Struct) else "")
    def test_hash_is_that_of_the_field_tuple(self, node, fields):
        assert hash(node) == hash(fields)
        assert hash(node) == hash(fields)  # the cached value

    @pytest.mark.parametrize("build", [
        lambda: Empty(), lambda: Var("X"), lambda: Element("a", STRING),
        lambda: Star(Or(Seq(BOOL, Var("X")), EMPTY)),
    ], ids=["Empty", "Var", "Element", "Star"])
    def test_a_type_is_one_node_hashed_by_identity(self, build):
        node = build()
        assert build() is node
        assert hash(node) == object.__hash__(node)
        assert node == build() and node != Var("Y")

    def test_the_table_holds_types_weakly(self):
        t = Element("held_weakly", STRING)
        key = (Element, "held_weakly", STRING)
        assert types._TYPES[key]() is t
        serial = t._serial
        del t
        gc.collect()
        assert key not in types._TYPES
        again = Element("held_weakly", STRING)
        assert types._TYPES[key]() is again and again._serial > serial
        # a parent holds its fields, so they stay interned while it lives
        parent = Star(Element("held_by_a_parent", EMPTY))
        gc.collect()
        assert parent.inner is Element("held_by_a_parent", EMPTY)

    def test_serials_follow_construction(self):
        first = Element("built_first", EMPTY)
        second = Seq(first, Element("built_second", EMPTY))
        assert first._serial < second.right._serial < second._serial

    def test_each_class_has_its_own_code(self):
        # CPython specializes attribute access per code object, so a
        # constructor shared by Or, Seq, Element... would see many classes
        classes = concrete_structs()
        for root, name in ((Struct, "__init__"), (Type, "__new__")):
            family = {cls for cls in classes if issubclass(cls, root)}
            codes = {id(getattr(cls, name).__code__) for cls in family}
            assert len(codes) == len(family), name
            for cls in family:
                method = getattr(cls, name)
                assert method.__qualname__ == f"{cls.__qualname__}.{name}"
                assert method.__code__.co_name == name  # as frames show it
        # the other methods are written once, on the base, except where
        # trees write out their ``repr`` and ``Node`` its hash
        own_hash, own_repr = {Node}, {BoolVal, StrVal, Node}
        for cls in classes:
            base = Struct if issubclass(cls, Struct) else object
            assert cls.__eq__ is base.__eq__, cls
            assert cls.__hash__ is (cls.__dict__["__hash__"]
                                    if cls in own_hash else base.__hash__), cls
            assert cls.__repr__ is (cls.__dict__["__repr__"]
                                    if cls in own_repr else _Node.__repr__), cls
            if base is object:  # a type's equality and hash run in C
                assert not {"_hash", "span"} & set(dir(cls)), cls

    def test_import_compiles_no_source_per_class(self):
        # counts every compile of source text that the package itself asks
        # for: compile() calls, and exec/eval of a string
        script = f"""\
import builtins, sys
sys.path.insert(0, {str(SRC)!r})
sources = []
def counting(real, is_source):
    def wrapper(*args, **kwargs):
        caller = sys._getframe(1).f_globals.get("__name__", "")
        if caller.partition(".")[0] == "fluxq" and is_source(args[0]):
            sources.append(caller)
        return real(*args, **kwargs)
    return wrapper
reals = builtins.compile, builtins.exec, builtins.eval
builtins.compile = counting(builtins.compile, lambda source: True)
builtins.exec, builtins.eval = (counting(real, lambda source: isinstance(
    source, (str, bytes))) for real in reals[1:])
import fluxq.cli
builtins.compile, builtins.exec, builtins.eval = reals
from fluxq.types import _Node
classes, stack = [], [_Node]
while stack:
    subclasses = stack.pop().__subclasses__()
    classes += subclasses
    stack += subclasses
print(len(sources), len({{cls._fields for cls in classes}}), len(classes))
"""
        run = subprocess.run([sys.executable, "-c", script],
                             capture_output=True, text=True, timeout=60)
        assert run.returncode == 0, run.stderr
        compiles, field_tuples, classes = map(int, run.stdout.split())
        assert classes >= 44 and field_tuples < classes
        assert compiles <= field_tuples


class TestDeepTrees:
    """``==`` and ``hash`` walk a tree with their own stack, so trees of any
    depth compare and hash, and a hash is still that of the field tuple."""

    DEPTH = 10_000

    def deep(self, leaf: str = "b[]"):
        return parse_value("a[" * self.DEPTH + leaf + "]" * self.DEPTH)

    def test_10000_deep_values_compare_and_hash(self):
        v, w, other = self.deep(), self.deep(), self.deep('"b"')
        assert v == w and not v != w and hash(v) == hash(w)
        assert v != other and not v == other
        assert other == self.deep('"b"')
        assert len({v[0], w[0], other[0]}) == 2

    def test_a_deep_hash_is_that_of_the_field_tuple(self):
        (v,) = self.deep()
        inner = v
        for _ in range(self.DEPTH // 2):
            (inner,) = inner.children
        assert hash(inner) == hash((inner.label, inner.children))
        assert hash(v) == hash((v.label, v.children))

    def test_10000_deep_queries_compare_and_hash(self):
        def nest(leaf):
            e = leaf
            for _ in range(self.DEPTH):
                e = Elem("a", e)
            return e
        e, f = nest(EmptySeq()), nest(EmptySeq())
        assert e == f and hash(e) == hash(f)
        assert e != nest(StrLit("s"))

    def test_shared_subtrees_are_hashed_once(self):
        # 60 levels of ``a[x, x]``: 2^60 paths, 61 distinct nodes
        v = Node("b", ())
        for _ in range(60):
            v = Node("a", (v, v))
        assert hash(v) == hash(("a", v.children))


class TestSignatureValue:
    """A signature is a hashable, copyable value; the tables that
    ``subtyping`` fills on it are outside its equality, hash and ``repr``."""

    def test_hash_agrees_with_equality(self):
        a, b = parse_type("a[]"), parse_type("b[X?]")
        forward = Signature([("X", a), ("Y", b)])
        backward = Signature([("Y", b), ("X", a)])
        assert forward == backward and hash(forward) == hash(backward)
        assert {forward: 1}[backward] == 1
        assert forward != Signature([("X", a)])
        assert hash(EMPTY_SIGNATURE) == hash(Signature())

    def test_copy_deepcopy_and_pickle_start_with_empty_tables(self):
        sig = sig_of(X="a[X*] | b[]", Y="c[X]")
        assert subtype(sig, Var("Y"), parse_type("c[b[]|a[X*]]"))
        assert sig.atoms(Var("Y"))
        assert (sig._linear_forms and sig._steps and sig._nullable
                and sig._states and sig._type_states and sig._summaries
                and sig._atoms)
        for twin in (copy.copy(sig), copy.deepcopy(sig),
                     pickle.loads(pickle.dumps(sig))):
            assert type(twin) is Signature and twin is not sig
            assert twin == sig and hash(twin) == hash(sig)
            assert repr(twin) == repr(sig)
            assert list(twin.items()) == list(sig.items())
            assert not (twin._linear_forms or twin._steps
                        or twin._nullable or twin._states
                        or twin._type_states or twin._summaries
                        or twin._atoms)
            assert subtype(twin, Var("Y"), parse_type("c[b[]|a[X*]]"))

    def test_filled_tables_leave_equality_hash_and_repr(self):
        sig = sig_of(X="a[X*] | b[]")
        before = (hash(sig), repr(sig))
        assert subtype(sig, parse_type("a[b[]],b[]"), parse_type("X*"))
        assert (sig._linear_forms and sig._steps and sig._nullable
                and sig._states and sig._type_states)
        fresh = sig_of(X="a[X*] | b[]")
        assert sig == fresh and fresh == sig
        assert (hash(sig), repr(sig)) == before == (hash(fresh), repr(fresh))

    def test_step_rows_name_canonical_states(self):
        # every row key, and every state a row names, is the one object the
        # signature keeps for its set, so a lookup that follows a row finds
        # its key by identity; that holds in any order of calls, though a
        # canonical state need not be named by a row
        def named(sig):
            out = list(sig._steps)
            for _, row in sig._steps.values():
                for starts, nexts, leaf in row.values():
                    out += [start for start, _ in starts] + [nexts, leaf]
            assert all(sig._states[state] is state for state in out)
            return out

        sig = sig_of(Tree="tree[leaf[string] | node[Tree*]]")
        doc = parse_value('tree[node[tree[leaf["a"]],tree[leaf["b"]]]]')
        assert member(sig, doc, Var("Tree"))
        assert subtype(sig, parse_type("tree[leaf[string]]"), Var("Tree"))
        states = sig._states
        assert len(named(sig)) > len(states)
        twin = frozenset([STRING])
        assert states[twin] is not twin
        assert sig.steps(twin) is sig._steps[twin]
        # the tables refuse a[] <: b[]|c[] from the right side's summary
        fresh = Signature()
        assert not subtype(fresh, parse_type("a[]"), parse_type("b[]|c[]"))
        right = fresh.state(parse_type("b[]|c[]"))
        assert list(fresh._summaries) == [right] and not named(fresh)
        assert fresh._states[right] is right

    def test_a_type_has_one_canonical_state(self):
        # ``subtype``, ``member`` and ``refute`` enter through ``state``:
        # the set ``union((t,))``, as the one object ``_states`` keeps
        sig = sig_of(X="a[X*] | b[]")
        for text in ("X", "a[]", "a[]|b[]|X", "(a[]|b[])*", "()"):
            t = parse_type(text)
            state = sig.state(t)
            assert state == union([t]) and sig.state(t) is state
            assert sig._states[state] is state
            assert sig._type_states[t] is state
        assert sig.state(parse_type("b[]|a[]|X")) is sig.state(
            parse_type("a[]|b[]|X"))
        fresh = sig_of(X="a[X*] | b[]")
        rights = [parse_type(text) for text in ("a[]|X", "(a[]|b[])*", "c[]")]
        assert subtype(fresh, parse_type("a[]"), rights[0])
        assert member(fresh, parse_value("b[]"), rights[1])
        assert refute(fresh, parse_type("b[]"), rights[2]) is not None
        assert set(rights) <= set(fresh._type_states)


REC_SIG = sig_of(X="a[X*] | b[]")
TABLE_CASES = ([(EMPTY_SIGNATURE, t) for t in types_upto(4, ("a", "b"))]
               + [(REC_SIG, parse_type(text))
                  for text in ("X", "X*", "a[X]", "X,X")])


class TestTableLaws:
    """``Signature.nullable`` and ``Signature.linear_form``, which
    ``subtype`` and ``member`` both read, agree with the values
    ``values_upto`` enumerates; neither ``subtype`` nor ``member`` judges
    them.  Each law is exact within the bounds, since every value it
    splits or joins stays inside them."""

    DEPTH, WIDTH = 3, 2  # X* has 5,551 values here

    def values(self, sig, t):
        return values_upto(sig, t, self.DEPTH, self.WIDTH)

    def test_nullable_iff_the_empty_forest_is_a_value(self):
        for sig, t in TABLE_CASES:
            assert sig.nullable(t) == (() in self.values(sig, t)), t

    def test_linear_form_splits_and_joins_the_values(self):
        for sig, t in TABLE_CASES:
            values = self.values(sig, t)
            parts = [(self.values(sig, head), self.values(sig, cont))
                     for head, cont in sig.linear_form(t)]
            # every nonempty value is one tree of a head, then a value of
            # that head's continuation
            for v in values - {()}:
                assert any(v[:1] in heads and v[1:] in conts
                           for heads, conts in parts), (t, v)
            # and every such concatenation within the bounds is a value
            for heads, conts in parts:
                for tree in heads:
                    for rest in conts:
                        if len(rest) < self.WIDTH:
                            assert tree + rest in values, (t, tree, rest)

    @staticmethod
    def recursive_linear_form(sig, t):
        """The linear form by structural recursion, with each side's pairs
        once, in first-seen order."""
        go = TestTableLaws.recursive_linear_form
        if isinstance(t, Empty):
            return []
        if isinstance(t, (BoolAtom, StringAtom, Element)):
            return [(t, EMPTY)]
        if isinstance(t, Or):
            pairs = go(sig, t.left)
            return pairs + [p for p in go(sig, t.right) if p not in pairs]
        if isinstance(t, Seq):
            pairs = [(a, types._seq(k, t.right)) for a, k in go(sig, t.left)]
            if sig.nullable(t.left):
                pairs += [p for p in go(sig, t.right) if p not in pairs]
            return pairs
        if isinstance(t, Star):
            return [(a, types._seq(k, t)) for a, k in go(sig, t.inner)]
        return go(sig, sig.definition(t.name))

    def test_linear_form_keeps_the_recursive_order(self):
        # goal counts and witnesses read the pairs in this order
        for sig, t in TABLE_CASES + [
                (REC_SIG, parse_type("(a[] | X | b[]), (X | a[]*), X*"))]:
            assert list(sig.linear_form(t)) == self.recursive_linear_form(
                sig, t), t

    def test_long_chains_are_walked_in_a_loop(self):
        sig = Signature()
        optional = parse_type(", ".join(["a[]?"] * 10_000))
        assert sig.nullable(optional)
        pairs = sig.linear_form(optional)
        assert len(pairs) == 10_000
        # in written order: each continuation is one item shorter
        node = optional
        for head, cont in pairs:
            assert head == Element("a", EMPTY) and cont is node.right
            node = cont
        alts = parse_type(" | ".join(f"a{i}[]" for i in range(10_000)))
        assert not sig.nullable(alts)
        assert [head.label for head, _ in sig.linear_form(alts)] == [
            f"a{i}" for i in range(10_000)]


class TestGlobalDecls:
    """The shared empty declarations cannot be changed; a program's own
    declarations are whatever mappings it is built with."""

    def test_empty_decls_are_read_only(self):
        decl = FunctionDecl("f", (), EMPTY, EmptySeq())
        with pytest.raises(TypeError):
            EMPTY_DECLS.functions["f"] = decl
        with pytest.raises(TypeError):
            EMPTY_DECLS.procedures["p"] = decl
        with pytest.raises(AttributeError):
            EMPTY_DECLS.functions = {}
        assert GlobalDecls().functions == {} == GlobalDecls().procedures

    def test_built_with_given_mappings(self):
        proc = ProcedureDecl("p", (), EMPTY, EMPTY, Skip())
        decls = GlobalDecls(procedures={"p": proc})
        assert decls.procedures["p"] is proc
        assert decls.functions == {}


class TestDerivedForms:
    def test_plus_normalizes_to_seq_star(self):
        assert parse_type("a[]+") == parse_type("a[],a[]*")

    def test_question_normalizes_to_or_empty(self):
        assert parse_type("c[]?") == Or(Element("c", EMPTY), EMPTY)

    def test_empty_brackets_normalize(self):
        assert parse_type("n[]") == parse_type("n[()]")
