"""Signature well-formedness, unfolding, syntactic atom extraction, the
immutable node contract of `Struct`, `Signature` as a hashable value, and
the read-only empty declarations."""

import copy
import pickle

import pytest

from fluxq import (
    BOOL, BoolAtom, BoolLit, BoolTest, BoolVal, Call, Children, Concat,
    Delete, Direction, Elem, Element, Empty, EMPTY, EMPTY_DECLS,
    EMPTY_SIGNATURE, EmptySeq, For, ForestBinding, FunctionDecl,
    GlobalDecls, If, IfStmt,
    Insert, LabelFilter, LabelTest, Let, LetStmt, Nav, Node, Or, ProcCall,
    ProcedureDecl, QueryProgram, Rename, Seq, SeqStmt,
    Signature, Skip, Snapshot, SourceSpan, Star, STRING, StringAtom,
    StringTest, StrLit, StrVal, TreeBinding, UndeclaredVariable,
    UpdateProgram, Var, VarRef, WildcardTest, check_signature, parse_type,
    parse_value, subtype, syntactic_atoms,
)
from fluxq import updates
from fluxq.types import Struct


def sig_of(**defs):
    return Signature({name: parse_type(text) for name, text in defs.items()})


LIST_SIG = sig_of(X="nil[] | cons[a[], X]")
TREE_SIG = sig_of(Tree="tree[leaf[string] | node[Tree*]]")

SPAN = SourceSpan("f", 0, 1, 1, 1, 1, 2)


def struct_cases(span=None):
    """One node of every concrete ``Struct`` class; ``span`` is given to
    the outermost node only."""
    x, e, s = VarRef("x"), EmptySeq(), Skip()
    return [
        BoolAtom(span=span), StringAtom(span=span), Empty(span=span),
        Element("a", EMPTY, span=span), Or(BOOL, STRING, span=span),
        Seq(BOOL, STRING, span=span), Star(BOOL, span=span),
        Var("X", span=span), TreeBinding(BOOL, span=span),
        ForestBinding(STRING, span=span),
        EmptySeq(span=span), Concat(e, x, span=span),
        Elem("a", e, span=span), StrLit("s", span=span),
        BoolLit(True, span=span), VarRef("x", span=span),
        Let("y", e, x, span=span), If(BoolLit(True), e, x, span=span),
        Children("x", span=span), LabelFilter(x, "a", span=span),
        For("y", x, VarRef("y"), span=span), Call("f", (x,), span=span),
        FunctionDecl("f", (("x", BOOL),), BOOL, x, span=span),
        QueryProgram((), e, EMPTY, span=span),
        Skip(span=span), SeqStmt(s, Delete(), span=span),
        IfStmt(BoolLit(True), s, Delete(), span=span),
        LetStmt("y", e, s, span=span), ProcCall("p", (x,), span=span),
        Insert(e, span=span), Delete(span=span), Rename("b", span=span),
        Snapshot("y", s, span=span), updates.Test(LabelTest("a"), s, span=span),
        Nav(Direction.LEFT, s, span=span),
        ProcedureDecl("p", (), EMPTY, EMPTY, s, span=span),
        UpdateProgram((), (), s, EMPTY, EMPTY, span=span),
        BoolVal(True, span=span), StrVal("s", span=span),
        Node("a", (StrVal("s"),), span=span),
        LabelTest("a", span=span), WildcardTest(span=span),
        BoolTest(span=span), StringTest(span=span),
    ]


def concrete_structs() -> set[type]:
    """Every ``Struct`` class that has no subclass."""
    found, stack = set(), [Struct]
    while stack:
        cls = stack.pop()
        subclasses = cls.__subclasses__()
        if not subclasses and cls is not Struct:
            found.add(cls)
        stack.extend(subclasses)
    return found


def _class_name(node) -> str:
    return type(node).__name__


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
        atoms = syntactic_atoms(EMPTY_SIGNATURE, parse_type("b[]*,c[]?"))
        assert atoms == {Element("b", EMPTY), Element("c", EMPTY)}

    def test_empty_type_has_no_atoms(self):
        assert syntactic_atoms(EMPTY_SIGNATURE, EMPTY) == frozenset()

    def test_recursive_signature_stops_at_element_content(self):
        atoms = syntactic_atoms(LIST_SIG, Var("X"))
        assert atoms == {Element("nil", EMPTY),
                         Element("cons", Seq(Element("a", EMPTY), Var("X")))}

    def test_base_atoms(self):
        atoms = syntactic_atoms(EMPTY_SIGNATURE, parse_type("bool,string"))
        assert atoms == {BOOL, STRING}

    def test_undeclared_variable_raises(self):
        with pytest.raises(UndeclaredVariable):
            syntactic_atoms(EMPTY_SIGNATURE, Var("Nope"))


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
        assert sig._linear_forms and sig._steps and sig._nullable
        for twin in (copy.copy(sig), copy.deepcopy(sig),
                     pickle.loads(pickle.dumps(sig))):
            assert type(twin) is Signature and twin is not sig
            assert twin == sig and hash(twin) == hash(sig)
            assert repr(twin) == repr(sig)
            assert list(twin.items()) == list(sig.items())
            assert not (twin._linear_forms or twin._steps
                        or twin._nullable)
            assert subtype(twin, Var("Y"), parse_type("c[b[]|a[X*]]"))

    def test_filled_tables_leave_equality_hash_and_repr(self):
        sig = sig_of(X="a[X*] | b[]")
        before = (hash(sig), repr(sig))
        assert subtype(sig, parse_type("a[b[]],b[]"), parse_type("X*"))
        assert sig._linear_forms and sig._steps and sig._nullable
        fresh = sig_of(X="a[X*] | b[]")
        assert sig == fresh and fresh == sig
        assert (hash(sig), repr(sig)) == before == (hash(fresh), repr(fresh))


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
