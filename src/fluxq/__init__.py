"""Regular-expression types over XML forests, with structural subtyping,
algorithmic typecheckers for a query core and an update core, a reference
interpreter, and bounded enumeration oracles for validating the type
system's metatheory at small scale."""

from .diagnostics import Diagnostic, SourceSpan
from .enumeration import refute, types_upto, values_upto, witness
from .errors import (
    EvalError, FluxqError, GenerationError, ParseError,
    RecursionLimitExceeded, TypeCheckFailure, UndeclaredVariable,
)
from .evaluator import (
    Runtime, ValueEnv, apply_update, conforms, eval_query,
    runtime_for_query_program, runtime_for_update_program,
)
from .generators import (
    GenConfig, gen_env, gen_sub_env, gen_subtype_of, gen_type,
    gen_typed_expr, gen_typed_stmt,
)
from .parser import (
    parse_expr, parse_program, parse_signature, parse_stmt, parse_type,
    parse_value,
)
from .printer import type_str, value_str
from .queries import (
    BoolLit, Call, Children, Concat, Elem, EmptySeq, For, FunctionDecl, If,
    LabelFilter, Let, QueryExpr, QueryProgram, StrLit, VarRef, check_expr,
    check_query_program, filter_label, synth_expr, synth_for,
)
from .subtyping import (
    BoolTest, LabelTest, StringTest, TestKind, WildcardTest, atom_subtype,
    env_subtype, subtype, test_subtype,
)
from .suites import SuiteReport, SuiteResult, run_suites
from .types import (
    Atom, BOOL, BoolAtom, Element, Empty, EMPTY, EMPTY_SIGNATURE, EMPTY_DECLS,
    ForestBinding, GlobalDecls, Or, Seq, Signature, Star, STRING, StringAtom,
    TreeBinding, Type, TypeEnv, Var,
    check_signature, syntactic_atoms,
)
from .unparse import expr_str, program_str, signature_str, stmt_str
from .updates import (
    Delete, Direction, IfStmt, Insert, LetStmt, Multiplicity, Nav, ProcCall,
    ProcedureDecl, Rename, SeqStmt, Skip, Snapshot, Test, UpdateProgram,
    UpdateStmt, check_program, check_stmt, check_update_program, synth_iter,
    synth_stmt,
)
from .values import (
    BoolVal, FALSE, Forest, Node, StrVal, TRUE, Tree, forest, member,
)

__version__ = "0.1.0"
