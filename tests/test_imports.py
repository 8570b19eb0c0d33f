"""What a cold ``fluxq`` process imports.  ``import fluxq.cli`` loads the
modules that ``check`` runs and no others, compiles no source, and
``fluxq`` resolves its public names on first access.  Each probe runs in a
fresh ``python -S`` interpreter, so no site hook preloads a module."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SAMPLES = ROOT / "samples"
# each sample's ``check`` arguments beyond the file
CHECK_ARGS = {"leaves.muxq": [], "children.muxq": ["--tree", "x=a[b[]*,c[]?]"],
              "insert_after.flux": [], "leafupd.flux": []}
# what ``check`` does not run
UNUSED = ("fluxq.suites", "fluxq.generators", "fluxq.evaluator",
          "fluxq.unparse", "random")
# the public names of ``fluxq`` (``atom_subtype`` left the list; it is
# ``subtype`` itself)
EXPORTS = """
    Diagnostic SourceSpan refute types_upto values_upto witness EvalError
    FluxqError GenerationError ParseError RecursionLimitExceeded
    TypeCheckFailure UndeclaredVariable Runtime ValueEnv apply_update
    conforms eval_query runtime_for_query_program runtime_for_update_program
    GenConfig gen_env gen_sub_env gen_subtype_of gen_type gen_typed_expr
    gen_typed_stmt parse_expr parse_program parse_signature parse_stmt
    parse_type parse_value type_str value_str BoolLit Call Children Concat
    Elem EmptySeq For FunctionDecl If LabelFilter Let QueryExpr QueryProgram
    StrLit VarRef check_expr check_query_program filter_label synth_expr
    synth_for BoolTest LabelTest StringTest TestKind WildcardTest
    env_subtype subtype test_subtype SuiteReport SuiteResult run_suites Atom
    BOOL BoolAtom Element Empty EMPTY EMPTY_SIGNATURE EMPTY_DECLS
    ForestBinding GlobalDecls Or Seq Signature Star STRING StringAtom
    TreeBinding Type TypeEnv Var check_signature syntactic_atoms expr_str
    program_str signature_str stmt_str Delete Direction IfStmt Insert
    LetStmt Multiplicity Nav ProcCall ProcedureDecl Rename SeqStmt Skip
    Snapshot Test UpdateProgram UpdateStmt check_program check_stmt
    check_update_program synth_iter synth_stmt BoolVal FALSE Forest Node
    StrVal TRUE Tree forest member __version__
""".split()


def probe(script: str, *args: str):
    """The JSON that ``script`` prints, run by ``python -S`` with ``src``
    first on ``sys.path``."""
    run = subprocess.run(
        [sys.executable, "-S", "-c",
         f"import sys\nsys.path.insert(0, {str(ROOT / 'src')!r})\n{script}",
         *args], capture_output=True, text=True, timeout=60, cwd=ROOT)
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout.splitlines()[-1])


def test_cli_import_leaves_out_what_check_does_not_run():
    loaded = probe("import json\nimport fluxq.cli\n"
                   "print(json.dumps(sorted(sys.modules)))")
    assert not set(UNUSED) & set(loaded), sorted(set(UNUSED) & set(loaded))
    assert "fluxq.enumeration" in loaded  # ``check_signature`` runs it


@pytest.mark.parametrize("sample", sorted(CHECK_ARGS))
def test_check_loads_no_module_after_the_import(sample):
    script = """\
import contextlib, io, json
import fluxq.cli
before = set(sys.modules)
with contextlib.redirect_stdout(io.StringIO()) as out:
    code = fluxq.cli.main(["--json", "check", *sys.argv[1:]])
status = json.loads(out.getvalue())["status"]
print(json.dumps([code, status, sorted(
    m for m in set(sys.modules) - before if m.split(".")[0] == "fluxq")]))
"""
    code, status, new = probe(script, str(SAMPLES / sample),
                              *CHECK_ARGS[sample])
    assert (code, status) == (0, "ok")
    assert new == []


def test_cli_import_compiles_nothing_in_fluxq():
    script = """\
import builtins, json
calls = []

def watch(name):
    real = getattr(builtins, name)

    def watched(*args, **kwargs):
        caller = sys._getframe(1).f_globals.get("__name__", "")
        if caller.split(".")[0] == "fluxq":
            calls.append([name, caller])
        return real(*args, **kwargs)
    setattr(builtins, name, watched)

for name in ("compile", "exec", "eval"):
    watch(name)
import fluxq.cli
print(json.dumps(calls))
"""
    assert probe(script) == []


def test_every_public_name_resolves_lazily():
    script = f"""\
import json
import fluxq
first = sorted(n for n in vars(fluxq) if not n.startswith("_"))
names = {EXPORTS!r}
missing = []
for name in names:
    try:
        exec(f"from fluxq import {{name}}")
    except ImportError:
        missing.append(name)
print(json.dumps([first, missing, sorted(set(names) - set(dir(fluxq)))]))
"""
    first, missing, undirected = probe(script)
    # only the module's own names are there before the first access
    assert first == []
    assert missing == [] and undirected == []


def test_names_resolve_to_their_home_modules():
    import fluxq
    from fluxq import parser, subtyping, suites
    assert fluxq.subtype is subtyping.subtype
    assert fluxq.parse_type is parser.parse_type
    assert fluxq.run_suites is suites.run_suites
    assert fluxq.suites is suites
    assert set(fluxq.__all__) == set(EXPORTS) - {"__version__"}


def test_unknown_attribute_raises_attribute_error():
    import fluxq
    with pytest.raises(AttributeError, match="no attribute 'atom_subtype'"):
        fluxq.atom_subtype
    with pytest.raises(AttributeError):
        fluxq.no_such_name
    with pytest.raises(ImportError):
        from fluxq import no_such_name  # noqa: F401
    assert not hasattr(fluxq, "cli_main")
