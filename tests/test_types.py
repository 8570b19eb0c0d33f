"""Signature well-formedness, unfolding, and syntactic atom extraction."""

import pytest

from fluxq import (
    BOOL, Element, EMPTY, EMPTY_SIGNATURE, Or, Seq, Signature, Star, STRING,
    UndeclaredVariable, Var, check_signature, parse_type, syntactic_atoms,
)


def sig_of(**defs):
    return Signature({name: parse_type(text) for name, text in defs.items()})


LIST_SIG = sig_of(X="nil[] | cons[a[], X]")
TREE_SIG = sig_of(Tree="tree[leaf[string] | node[Tree*]]")


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

    def test_type_nodes_are_frozen_and_hashable(self):
        t = parse_type("a[b[]*,c[]?]")
        with pytest.raises(Exception):
            t.label = "z"
        assert hash(t) == hash(parse_type("a[b[]*,c[]?]"))


class TestDerivedForms:
    def test_plus_normalizes_to_seq_star(self):
        assert parse_type("a[]+") == parse_type("a[],a[]*")

    def test_question_normalizes_to_or_empty(self):
        assert parse_type("c[]?") == Or(Element("c", EMPTY), EMPTY)

    def test_empty_brackets_normalize(self):
        assert parse_type("n[]") == parse_type("n[()]")
