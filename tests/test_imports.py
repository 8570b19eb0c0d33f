"""What a cold ``fluxq`` process imports.  ``import fluxq.cli`` loads the
modules that ``check`` runs and no others, neither ``json`` nor
``typing`` among them, compiles no source, and ``fluxq`` resolves its
public names on first access.  Each probe runs in a fresh ``python -S``
interpreter, so no site hook preloads a module, and prints what it found
as a Python literal, so the probe itself loads nothing.  No module of the
package takes a private name from another, but for the checker helpers
that ``updates`` shares with ``queries``."""

import ast
import os
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
UNUSED = ("fluxq.suites", "fluxq.evaluator", "fluxq.enumeration", "random")
# what only ``--json`` output uses, and what no command uses
LATE = ("json", "typing")
# the package's modules that ``import fluxq.cli`` loads
CHECK_MODULES = ["fluxq", "fluxq.cli", "fluxq.diagnostics", "fluxq.parser",
                 "fluxq.printer", "fluxq.queries", "fluxq.subtyping",
                 "fluxq.types", "fluxq.updates", "fluxq.values"]
# the typecheckers, and the inclusion decision they call
CHECKERS = ("fluxq.queries", "fluxq.updates", "fluxq.subtyping")
# the package's modules that ``import fluxq.parser`` loads: the syntax
# lives in ``types``, beside the types
PARSER_MODULES = ["fluxq", "fluxq.diagnostics", "fluxq.parser",
                  "fluxq.types", "fluxq.values"]
# the package's modules that ``import fluxq.printer`` loads: it writes
# every form the parser reads, from the same syntax
PRINTER_MODULES = ["fluxq", "fluxq.diagnostics", "fluxq.printer",
                   "fluxq.types", "fluxq.values"]
# the private names one module may import from another, by importer
SHARED_PRIVATE = {("updates", "queries"): {"_arguments", "_ascribe",
                                           "_condition", "_fail"}}
# the public names of ``fluxq`` (``atom_subtype`` left the list, as it is
# ``subtype`` itself, and so did ``witness``, as ``values.inhabitants(sig)``
# gives the same value)
EXPORTS = """
    Diagnostic SourceSpan refute types_upto values_upto EvalError
    FluxqError ParseError RecursionLimitExceeded
    TypeCheckFailure UndeclaredVariable Runtime ValueEnv apply_update
    eval_query runtime_for_query_program runtime_for_update_program
    GenConfig gen_env gen_sub_env gen_subtype_of gen_type gen_typed_expr
    gen_typed_stmt parse_expr parse_program parse_signature parse_stmt
    parse_type parse_value type_str value_str BoolLit Call Children Concat
    Elem EmptySeq For FunctionDecl If LabelFilter Let QueryExpr QueryProgram
    StrLit VarRef check_expr check_query_program filter_label synth_expr
    synth_for subtype SuiteReport SuiteResult run_suites Atom
    BOOL BoolAtom Element Empty EMPTY EMPTY_SIGNATURE EMPTY_DECLS
    ForestBinding GlobalDecls Or Seq Signature Star STRING StringAtom
    TreeBinding Type TypeEnv Var check_signature passes
    expr_str program_str signature_str stmt_str Delete IfStmt Insert LetStmt
    Multiplicity Nav ProcCall ProcedureDecl Rename SeqStmt Skip Snapshot
    Test UpdateProgram UpdateStmt check_program check_stmt
    check_update_program synth_iter synth_stmt BoolVal FALSE Forest Node
    StrVal TRUE Tree member __version__
""".split()


def probe(script: str, *args: str):
    """The literal that ``script`` prints last, run by ``python -S`` with
    ``src`` first on ``sys.path``."""
    run = subprocess.run(
        [sys.executable, "-S", "-c",
         f"import sys\nsys.path.insert(0, {str(ROOT / 'src')!r})\n{script}",
         *args], capture_output=True, text=True, timeout=60, cwd=ROOT)
    assert run.returncode == 0, run.stderr
    return ast.literal_eval(run.stdout.splitlines()[-1])


def modules_after(module: str) -> list[str]:
    """Every module loaded after a fresh ``import module``, sorted."""
    return probe(f"import {module}\nprint(repr(sorted(sys.modules)))")


def test_cli_import_leaves_out_what_check_does_not_run():
    loaded = modules_after("fluxq.cli")
    assert not set(UNUSED) & set(loaded), sorted(set(UNUSED) & set(loaded))
    # ``check_signature`` finds inhabitants in ``values``, not ``enumeration``
    assert [m for m in loaded if m.split(".")[0] == "fluxq"] == CHECK_MODULES


@pytest.mark.parametrize("module", ["fluxq.cli", "fluxq.evaluator",
                                    "fluxq.suites"])
def test_import_loads_neither_json_nor_typing(module):
    loaded = modules_after(module)
    assert module in loaded
    assert not set(LATE) & set(loaded), sorted(set(LATE) & set(loaded))


def test_cli_runs_as_a_module_without_site():
    run = subprocess.run(
        [sys.executable, "-S", "-m", "fluxq.cli", "check",
         str(SAMPLES / "leaves.muxq")], capture_output=True, text=True,
        timeout=60, env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert (run.returncode, run.stdout, run.stderr) == (
        0, "leaf[string]*\n", "")


def loaded_by(module: str) -> list[str]:
    """The ``fluxq`` modules a fresh ``import module`` loads, sorted."""
    return [m for m in modules_after(module) if m.split(".")[0] == "fluxq"]


def test_parser_loads_only_the_syntax():
    assert loaded_by("fluxq.parser") == PARSER_MODULES


def test_printer_loads_only_the_syntax():
    assert loaded_by("fluxq.printer") == PRINTER_MODULES


@pytest.mark.parametrize("module", ["fluxq.parser", "fluxq.evaluator",
                                    "fluxq.printer"])
def test_parser_interpreter_and_unparser_load_no_checker(module):
    loaded = loaded_by(module)
    assert module in loaded
    assert not set(CHECKERS) & set(loaded), sorted(set(CHECKERS) & set(loaded))


def test_enumeration_does_not_load_subtyping():
    loaded = modules_after("fluxq.enumeration")
    assert "fluxq.enumeration" in loaded
    assert "fluxq.subtyping" not in loaded


# runs ``main`` on the arguments after the flags that ``sys.argv[1]``
# lists, and prints its exit code, its output and the modules it loaded
CHECK_SCRIPT = """\
import contextlib, io
import fluxq.cli
before = set(sys.modules)
with contextlib.redirect_stdout(io.StringIO()) as out:
    code = fluxq.cli.main([*sys.argv[1].split(), "check", *sys.argv[2:]])
print(repr([code, out.getvalue(), sorted(set(sys.modules) - before)]))
"""


def run_check(flags: str, sample: str) -> tuple[int, str, list[str]]:
    """``check`` of ``sample`` after ``import fluxq.cli``, in a fresh
    process: its exit code, its output and the modules it loaded."""
    return probe(CHECK_SCRIPT, flags, str(SAMPLES / sample),
                 *CHECK_ARGS[sample])


@pytest.mark.parametrize("sample", sorted(CHECK_ARGS))
def test_check_loads_no_module_after_the_import(sample):
    code, out, new = run_check("", sample)
    assert code == 0 and out.endswith("\n"), out
    assert not set(LATE) & set(new), sorted(set(LATE) & set(new))
    assert [m for m in new if m.split(".")[0] == "fluxq"] == []


@pytest.mark.parametrize("sample", sorted(CHECK_ARGS))
def test_json_check_loads_json_and_no_other_fluxq_module(sample):
    code, out, new = run_check("--json", sample)
    assert code == 0 and '"status": "ok"' in out, out
    assert "json" in new and "typing" not in new
    assert [m for m in new if m.split(".")[0] == "fluxq"] == []


def test_json_oracle_loads_json_and_no_typing():
    script = """\
import contextlib, io
import fluxq.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = fluxq.cli.main(["--json", "oracle", "--cases", "1"])
print(repr([code, "json" in sys.modules, "typing" in sys.modules]))
"""
    assert probe(script) == [0, True, False]


def test_cli_import_compiles_nothing_in_fluxq():
    script = """\
import builtins
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
print(repr(calls))
"""
    assert probe(script) == []


def test_every_public_name_resolves_lazily():
    script = f"""\
import fluxq
first = sorted(n for n in vars(fluxq) if not n.startswith("_"))
names = {EXPORTS!r}
missing = []
for name in names:
    try:
        exec(f"from fluxq import {{name}}")
    except ImportError:
        missing.append(name)
print(repr([first, missing, sorted(set(names) - set(dir(fluxq)))]))
"""
    first, missing, undirected = probe(script)
    # only the module's own names are there before the first access
    assert first == []
    assert missing == [] and undirected == []


def test_names_resolve_to_their_home_modules():
    import fluxq
    from fluxq import diagnostics, parser, subtyping, suites, types, values
    assert fluxq.subtype is subtyping.subtype
    assert fluxq.refute is subtyping.refute
    assert fluxq.member is values.member
    assert fluxq.ParseError is diagnostics.ParseError
    assert fluxq.parse_type is parser.parse_type
    assert fluxq.run_suites is suites.run_suites
    assert fluxq.suites is suites
    assert fluxq.Concat is types.Concat
    assert fluxq.GenConfig is suites.GenConfig
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


def test_no_module_imports_a_private_name_of_another():
    found = {}
    for path in sorted((ROOT / "src" / "fluxq").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level:
                home = node.module or ""
            elif (node.module or "").split(".")[0] == "fluxq":
                home = node.module.partition(".")[2]
            else:
                continue
            private = {a.name for a in node.names if a.name.startswith("_")}
            if private:
                found.setdefault((path.stem, home), set()).update(private)
    assert found == SHARED_PRIVATE
