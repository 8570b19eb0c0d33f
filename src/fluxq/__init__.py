"""Regular-expression types over XML forests, with structural subtyping,
algorithmic typecheckers for a query core and an update core, a reference
interpreter, and bounded enumeration oracles for validating the type
system's metatheory at small scale.

The public names below are imported on first access (PEP 562), each from
its home module, so ``import fluxq.cli`` loads only the modules its
commands run and not, say, the random suites."""

import sys as _sys

# each public name's home module, by module
_EXPORTS = {
    "diagnostics": "Diagnostic SourceSpan",
    "enumeration": "refute types_upto values_upto witness",
    "errors": "EvalError FluxqError GenerationError ParseError "
              "RecursionLimitExceeded TypeCheckFailure UndeclaredVariable",
    "evaluator": "Runtime ValueEnv apply_update conforms eval_query "
                 "runtime_for_query_program runtime_for_update_program",
    "generators": "GenConfig gen_env gen_sub_env gen_subtype_of gen_type "
                  "gen_typed_expr gen_typed_stmt",
    "parser": "parse_expr parse_program parse_signature parse_stmt "
              "parse_type parse_value",
    "printer": "type_str value_str",
    "queries": "BoolLit Call Children Concat Elem EmptySeq For FunctionDecl "
               "If LabelFilter Let QueryExpr QueryProgram StrLit VarRef "
               "check_expr check_query_program filter_label synth_expr "
               "synth_for",
    "subtyping": "BoolTest LabelTest StringTest TestKind WildcardTest "
                 "env_subtype subtype test_subtype",
    "suites": "SuiteReport SuiteResult run_suites",
    "types": "Atom BOOL BoolAtom Element Empty EMPTY EMPTY_SIGNATURE "
             "EMPTY_DECLS ForestBinding GlobalDecls Or Seq Signature Star "
             "STRING StringAtom TreeBinding Type TypeEnv Var "
             "check_signature syntactic_atoms",
    "unparse": "expr_str program_str signature_str stmt_str",
    "updates": "Delete Direction IfStmt Insert LetStmt Multiplicity Nav "
               "ProcCall ProcedureDecl Rename SeqStmt Skip Snapshot Test "
               "UpdateProgram UpdateStmt check_program check_stmt "
               "check_update_program synth_iter synth_stmt",
    "values": "BoolVal FALSE Forest Node StrVal TRUE Tree forest member",
}
# public name -> the module that defines it; a module is its own home
_HOME = {name: module for module, names in _EXPORTS.items()
         for name in names.split()}
_HOME.update((module, module) for module in _EXPORTS)

__all__ = [name for name in _HOME if name not in _EXPORTS]
__version__ = "0.1.0"


def __getattr__(name: str):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    __import__(f"{__name__}.{home}")
    module = _sys.modules[f"{__name__}.{home}"]
    value = module if home == name else getattr(module, name)
    globals()[name] = value  # later accesses do not come here
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | _HOME.keys())
