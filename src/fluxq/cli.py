"""Command-line interface.

Subcommands: ``check`` (typecheck a program file), ``type`` (print the
synthesized type of the main query or update), ``subtype`` (decide inclusion
of two types), ``eval`` (run a query program), ``run-update`` (apply an
update program to a value of its declared input type), and ``oracle`` (run
the bounded property suites).  Exit codes: 0 success; 1 a check or suite
failure; 2 a usage error, an unreadable file, a closed stdout, a parse error,
or a type, program or recursive evaluation nested past Python's recursion
limit (``limit/depth``).  Values of any depth are processed.

Importing the module loads what ``check``, ``type`` and ``subtype`` run;
the evaluator (``eval``, ``run-update``) and the random suites
(``oracle``) are imported by their commands.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

# ``check_signature`` imports ``enumeration`` in its body, since
# enumeration imports types; it is loaded here, with the rest of ``check``
from . import enumeration  # noqa: F401
from .diagnostics import Diagnostic
from .errors import FluxqError, ParseError, TypeCheckFailure
from .parser import (
    parse_binding, parse_env_bindings, parse_program, parse_signature,
    parse_type, parse_value,
)
from .printer import type_str, value_str
from .queries import QueryProgram
from .subtyping import subtype
from .types import (
    Atom, Element, EMPTY_SIGNATURE, ForestBinding, Signature, TreeBinding,
    check_signature, check_type_declared, nodes,
)
from .updates import (
    UpdateProgram, annotation_diags, check_program, program_decls,
    synth_main,
)
from .values import member


def _read(path: str) -> str:
    """The text of ``path``; a file that cannot be read or is not UTF-8
    ends the run with exit 2."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(2)
    except UnicodeDecodeError as exc:
        print(f"error: {path}: {exc}", file=sys.stderr)
        raise SystemExit(2)


def _check_signature(sig: Signature, as_json: bool,
                     leave: str | None = None) -> None:
    """Report an ill-formed signature and end the run with exit 1; the
    diagnostics of rule ``leave`` are left to the caller."""
    diags = [d for d in check_signature(sig) if d.rule != leave]
    if diags:
        raise SystemExit(_report(None, diags, as_json))


def _load(args, kind: type = object, leave: str | None = None) -> tuple:
    """The program of ``args.file`` and its checked signature: the one way
    a subcommand takes in a program.  A program that is not a ``kind``
    ends the run with exit 2.  ``leave`` is as in ``_check_signature``."""
    prog, sig = parse_program(_read(args.file), args.file)
    if not isinstance(prog, kind):
        what = "a query" if kind is QueryProgram else "an update"
        print(f"{args.command} expects {what} program", file=sys.stderr)
        raise SystemExit(2)
    _check_signature(sig, args.json, leave)
    return prog, sig


def _labels_in(sig: Signature, prog) -> tuple[str, ...]:
    roots = [body for _, body in sig.items()]
    if isinstance(prog, QueryProgram):
        roots.append(prog.ascription)
    else:
        roots += [prog.input, prog.output]
    labels = {node.label for root in roots for node in nodes(root)
              if isinstance(node, Element)}
    return tuple(sorted(labels)) or ("a", "b")


def _diagnostic_json(d: Diagnostic) -> dict:
    return {"severity": d.severity, "message": d.message, "rule": d.rule,
            "span": None if d.span is None else d.span._asdict()}


def _report(program_type: str | None, diagnostics: list[Diagnostic],
            as_json: bool) -> int:
    ok = not any(d.severity == "error" for d in diagnostics)
    if as_json:
        print(json.dumps({"status": "ok" if ok else "error",
                          "type": program_type if ok else None,
                          "diagnostics": [_diagnostic_json(d)
                                          for d in diagnostics]},
                         indent=2))
    else:
        for d in diagnostics:
            print(d.render(), file=sys.stderr)
        if ok:
            print("ok" if program_type is None else program_type)
    return 0 if ok else 1


def _print_value(value, as_json: bool) -> int:
    print(json.dumps({"value": value_str(value)}) if as_json
          else value_str(value))
    return 0


def _parse_type_env(args) -> dict:
    """``--var x=TYPE`` forest bindings and ``--tree x=TYPE`` tree bindings."""
    env: dict = {}
    for spec in args.var or []:
        name, text = parse_binding(spec, "NAME=TYPE")
        env[name] = ForestBinding(parse_type(text))
    for spec in args.tree or []:
        name, text = parse_binding(spec, "NAME=TYPE")
        atom = parse_type(text)
        if not isinstance(atom, Atom):
            raise ParseError(f"--tree binding for {name} must be an atomic "
                             f"type, got {type_str(atom)}")
        env[name] = TreeBinding(atom)
    return env


def cmd_check(args) -> int:
    env = _parse_type_env(args)
    prog, sig = _load(args)
    main, diags = check_program(sig, prog, env)
    return _report(None if main is None else type_str(main), diags, args.json)


def cmd_type(args) -> int:
    """Print the main's synthesized type.

    Checks the signature and the declared variables of every annotation and
    of the environment, then synthesizes the main against the declared
    headers.  Function and procedure bodies, duplicate declarations and the
    main's own ascription are not checked; ``check`` checks them."""
    env = _parse_type_env(args)
    prog, sig = _load(args)
    decls, _ = program_decls(prog)
    diags = annotation_diags(sig, prog, decls, env)
    if diags:
        return _report(None, diags, args.json)
    try:
        main = synth_main(decls, sig, env, prog)
    except TypeCheckFailure as exc:
        return _report(None, [exc.diagnostic], args.json)
    return _report(type_str(main), [], args.json)


def cmd_subtype(args) -> int:
    sig = parse_signature(_read(args.sig), args.sig) if args.sig else EMPTY_SIGNATURE
    _check_signature(sig, args.json)
    t1 = parse_type(args.left)
    t2 = parse_type(args.right)
    check_type_declared(sig, t1)
    check_type_declared(sig, t2)
    result = subtype(sig, t1, t2)
    if args.json:
        print(json.dumps({"left": type_str(t1), "right": type_str(t2),
                          "subtype": result}))
    else:
        print("subtype" if result else "not a subtype")
    return 0 if result else 1


def cmd_eval(args) -> int:
    from .evaluator import eval_query, runtime_for_query_program
    prog, _ = _load(args, QueryProgram)
    env = parse_env_bindings(args.env or [])
    rt = runtime_for_query_program(prog, recursion_limit=args.recursion_limit)
    return _print_value(eval_query(rt, env, prog.main), args.json)


def cmd_run_update(args) -> int:
    from .evaluator import apply_update, runtime_for_update_program
    prog, sig = _load(args, UpdateProgram)
    value = parse_value(args.input)
    if not member(sig, value, prog.input):
        print(f"error: the input is not a value of the declared input type "
              f"{type_str(prog.input)}", file=sys.stderr)
        return 1
    env = parse_env_bindings(args.env or [])
    rt = runtime_for_update_program(prog, recursion_limit=args.recursion_limit)
    return _print_value(apply_update(rt, env, value, prog.main), args.json)


def cmd_oracle(args) -> int:
    from .generators import GenConfig
    from .suites import run_suites
    labels, sig = ("a", "b", "c"), None
    if args.file:
        # a variable with no value is reported by the suite that looks for
        # one, types-inhabited-at-small-bounds, with the other suites
        prog, sig = _load(args, leave="signature/uninhabited")
        labels = _labels_in(sig, prog)
    cfg = GenConfig(labels=labels, depth=args.max_depth, width=args.max_width,
                    seed=args.seed, cases=args.cases)
    report = run_suites(cfg, sig or None)
    print(json.dumps(report.to_json(), indent=2) if args.json
          else report.summary())
    return 0 if report.ok else 1


def natural(text: str) -> int:
    """The argparse type of the numeric flags: an integer of at least 0.
    argparse reports the ``ValueError`` as ``invalid natural value``."""
    value = int(text)
    if value < 0:
        raise ValueError(text)
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared by every
    later ``main`` call of the process.  It holds no per-call state:
    ``parse_args`` returns a fresh namespace, the ``append`` flags default
    to ``None``, and usage errors and ``--help`` write to the ``sys.stderr``
    and ``sys.stdout`` current at the call.  Callers must not change it."""
    top = argparse.ArgumentParser(
        prog="fluxq",
        description="Typecheck, evaluate, and property-test programs over "
                    "regular-expression types for XML forests.")
    top.add_argument("--json", action="store_true",
                     help="machine-readable output")
    top.add_argument("--max-depth", type=natural, default=3, metavar="N",
                     help="value enumeration depth bound (default 3)")
    top.add_argument("--max-width", type=natural, default=3, metavar="N",
                     help="forest length bound for enumeration (default 3)")
    top.add_argument("--recursion-limit", type=natural, default=256,
                     metavar="N",
                     help="call depth limit for evaluation (default 256)")
    sub = top.add_subparsers(dest="command", required=True)

    typed = argparse.ArgumentParser(add_help=False)
    typed.add_argument("file")
    typed.add_argument("--var", action="append", metavar="NAME=TYPE",
                       help="ambient forest-variable binding for the main query")
    typed.add_argument("--tree", action="append", metavar="NAME=TYPE",
                       help="ambient tree-variable binding (atomic type)")

    p = sub.add_parser("check", parents=[typed],
                       help="typecheck a program file")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("type", parents=[typed],
                       help="print the synthesized type of the main query or "
                            "update")
    p.set_defaults(func=cmd_type)

    p = sub.add_parser("subtype", help="decide t1 <: t2")
    p.add_argument("left", metavar="T1")
    p.add_argument("right", metavar="T2")
    p.add_argument("--sig", metavar="FILE",
                   help="file of `type X = t` declarations")
    p.set_defaults(func=cmd_subtype)

    p = sub.add_parser("eval", help="evaluate a query program")
    p.add_argument("file")
    p.add_argument("--env", action="append", metavar="BINDINGS",
                   help="variable bindings, e.g. 'x=a[],b[]; y=true'")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("run-update", help="apply an update program to a value")
    p.add_argument("file")
    p.add_argument("--input", required=True, metavar="VALUE")
    p.add_argument("--env", action="append", metavar="BINDINGS")
    p.set_defaults(func=cmd_run_update)

    p = sub.add_parser("oracle", help="run the bounded property suites")
    p.add_argument("file", nargs="?",
                   help="optional program file supplying the signature and "
                        "label universe")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--cases", type=natural, default=100, metavar="N",
                   help="cases per random suite (default 100)")
    p.set_defaults(func=cmd_oracle)

    return top


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()  # a reader that went away shows here, not at exit
        return code
    except SystemExit as exc:  # argparse's usage errors, _read and _load
        return exc.code or 0
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except FluxqError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:  # later writes, at shutdown too, go nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2
    except RecursionError:
        print("error: input nested or sequenced too deeply to process "
              "(limit/depth)", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
