"""The package's records are plain ``collections`` named tuples: each keeps
its fields, defaults, docstring and methods on a ``tuple`` base, and
copies and pickles as a named tuple does; the suite records too, which
``oracle`` loads.  The type aliases accept the classes they name."""

import copy
import pickle
from collections.abc import Mapping
from pathlib import Path
from types import MappingProxyType

import pytest

import fluxq
from fluxq import (
    BOOL, EMPTY, EMPTY_DECLS, FALSE, TRUE, Diagnostic, ForestBinding,
    GlobalDecls, Node, Runtime, SourceSpan, StrVal, TreeBinding,
    parse_program,
)
from fluxq import suites, types, values
from fluxq.evaluator import DEFAULT_RECURSION_LIMIT
from fluxq.suites import GenConfig, Language, SuiteReport, SuiteResult
from fluxq.types import Declared, program_decls

LEAVES = Path(__file__).resolve().parent.parent / "samples" / "leaves.muxq"
SPAN = SourceSpan("f.muxq", 0, 3, 1, 1, 1, 4)
DECLS = program_decls(parse_program(LEAVES.read_text(), str(LEAVES))[0])[0]

# each record class, its fields, its defaults and one instance
RECORDS = [
    (Diagnostic, ("message", "rule", "span"), {"span": None},
     Diagnostic("no", "query/call", SPAN)),
    (SourceSpan, ("file", "begin", "end", "begin_line", "begin_col",
                  "end_line", "end_col"), {}, SPAN),
    (Declared, ("span", "uses", "top"), {},
     Declared((0, 9), (("X", (4, 5)),), (("X", (4, 5)),))),
    (GlobalDecls, ("functions", "procedures"),
     {"functions": {}, "procedures": {}}, DECLS),
    (Runtime, ("decls", "recursion_limit"),
     {"decls": EMPTY_DECLS, "recursion_limit": DEFAULT_RECURSION_LIMIT},
     Runtime(DECLS, 7)),
    (SuiteResult, ("name", "cases", "failures", "skipped"), {"skipped": 0},
     SuiteResult("probe", 2, ["bad"])),
    (SuiteReport, ("results",), {},
     SuiteReport([SuiteResult("probe", 2, ["bad"])])),
    (GenConfig, ("labels", "depth", "width", "seed", "cases"),
     {"labels": ("a", "b", "c"), "depth": 3, "width": 3, "seed": 42,
      "cases": 100}, GenConfig(("a", "b"), 2, 1, 7, 5)),
    # module-level functions, so that the record pickles
    (Language, ("name", "iteration", "closed_env", "term", "synth", "run",
                "show", "body", "iterate"), {},
     Language("update", "iter", suites.gen_env, suites.gen_typed_stmt,
              suites.synth_stmt, suites.apply_update, suites.stmt_str,
              suites.gen_typed_stmt, suites.synth_iter)),
]
IDS = [cls.__name__ for cls, *_ in RECORDS]
# the records with methods or a class docstring subclass their field tuple
SUBCLASSED = [SourceSpan, SuiteResult, SuiteReport, GenConfig, Language]


@pytest.mark.parametrize("cls, fields, defaults, record", RECORDS, ids=IDS)
def test_fields_and_defaults(cls, fields, defaults, record):
    assert cls._fields == fields
    assert cls._field_defaults == defaults
    assert all(getattr(record, f) is record[i] for i, f in enumerate(fields))
    # a docstring of its own, not the generated ``Name(field, ...)``
    assert not cls.__doc__.startswith(cls.__name__ + "(")


def test_empty_declarations_are_read_only():
    assert GlobalDecls() == EMPTY_DECLS
    for table in EMPTY_DECLS:
        assert type(table) is MappingProxyType and not table


@pytest.mark.parametrize("cls, fields, defaults, record", RECORDS, ids=IDS)
def test_asdict_and_replace(cls, fields, defaults, record):
    assert record._asdict() == dict(zip(fields, record))
    changed = record._replace(**{fields[-1]: None})
    assert type(changed) is cls
    assert changed[:-1] == record[:-1] and changed[-1] is None
    assert record[-1] is not None


@pytest.mark.parametrize("cls, fields, defaults, record", RECORDS, ids=IDS)
def test_pickle_and_deepcopy_round_trip(cls, fields, defaults, record):
    for again in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record),
                  copy.copy(record)):
        assert type(again) is cls
        assert again == record


@pytest.mark.parametrize("cls", [Diagnostic, Declared, GlobalDecls, Runtime,
                                 *(cls.__bases__[0] for cls in SUBCLASSED)])
def test_records_stand_on_tuple(cls):
    assert cls.__bases__ == (tuple,)


@pytest.mark.parametrize("cls", SUBCLASSED, ids=lambda cls: cls.__name__)
def test_subclasses_add_no_field_and_no_dict(cls):
    record = next(row[-1] for row in RECORDS if row[0] is cls)
    assert cls.__bases__[0]._fields == cls._fields
    assert not hasattr(record, "__dict__")


def test_span_subclasses_its_fields_and_checks_its_order():
    assert SourceSpan.__bases__[0]._fields == SourceSpan._fields
    with pytest.raises(ValueError, match="span begin 4 > end 3"):
        SourceSpan("f.muxq", 4, 3, 1, 5, 1, 4)


def test_diagnostic_renders_its_location():
    assert Diagnostic("no", "query/call", SPAN).render() == (
        "f.muxq:1:1: error: no [query/call]")
    assert Diagnostic("no", "query/call").render() == "error: no [query/call]"


def test_aliases_accept_the_classes_they_name():
    for tree in (TRUE, FALSE, StrVal("w"), Node("a", (TRUE,))):
        assert isinstance(tree, fluxq.Tree) and isinstance(tree, values.Tree)
    assert not isinstance(EMPTY, fluxq.Tree)
    for binding in (TreeBinding(BOOL), ForestBinding(EMPTY)):
        assert isinstance(binding, types.Binding)
    assert not isinstance(BOOL, types.Binding)
    assert types.TypeEnv.__origin__ is Mapping
    assert types.TypeEnv.__args__ == (str, types.Binding)
    assert fluxq.ValueEnv.__origin__ is Mapping
    assert fluxq.ValueEnv.__args__ == (str, values.Forest)
