"""Command-line interface.

Subcommands: ``check`` (typecheck a program file), ``type`` (print the
synthesized type of the main query or update), ``subtype`` (decide inclusion
of two types), ``eval`` (run a query program), ``run-update`` (apply an
update program to a value of its declared input type), and ``oracle`` (run
the bounded property suites).  Exit codes: 0 success, 1 check/suite failure, 2 usage or parse
errors, or a type or program nested or sequenced beyond Python's recursion
limit (``limit/depth``); values of any depth are processed.
"""

from __future__ import annotations

import argparse
import json
import sys

from .diagnostics import CheckReport, Diagnostic
from .errors import FluxqError, ParseError, TypeCheckFailure
from .evaluator import (
    runtime_for_query_program, runtime_for_update_program, eval_query,
    apply_update,
)
from .generators import GenConfig
from .parser import (
    parse_env_bindings, parse_program, parse_signature, parse_type,
    parse_value,
)
from .printer import type_str, value_str
from .queries import QueryProgram
from .subtyping import subtype
from .suites import run_suites
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
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _labels_in(sig: Signature, prog) -> tuple[str, ...]:
    roots = [body for _, body in sig.items()]
    if isinstance(prog, QueryProgram):
        roots.append(prog.ascription)
    elif isinstance(prog, UpdateProgram):
        roots += [prog.input, prog.output]
    labels = {node.label for root in roots for node in nodes(root)
              if isinstance(node, Element)}
    return tuple(sorted(labels)) or ("a", "b")


def _report(program_type: str | None, diagnostics: list[Diagnostic],
            as_json: bool) -> int:
    ok = not any(d.severity == "error" for d in diagnostics)
    if as_json:
        report = CheckReport("ok" if ok else "error",
                             program_type if ok else None,
                             tuple(diagnostics))
        print(json.dumps(report.to_json(), indent=2))
    else:
        for d in diagnostics:
            print(d.render(), file=sys.stderr)
        if ok and program_type is not None:
            print(program_type)
        elif ok:
            print("ok")
    return 0 if ok else 1


def _parse_type_env(args) -> dict:
    """``--var x=TYPE`` forest bindings and ``--tree x=TYPE`` tree bindings."""
    env: dict = {}
    for spec in args.var or []:
        name, _, text = spec.partition("=")
        env[name.strip().lstrip("$")] = ForestBinding(parse_type(text))
    for spec in getattr(args, "tree", None) or []:
        name, _, text = spec.partition("=")
        atom = parse_type(text)
        if not isinstance(atom, Atom):
            raise ParseError(f"--tree binding for {name} must be an atomic "
                             f"type, got {type_str(atom)}", 0, 1, 1)
        env[name.strip().lstrip("$")] = TreeBinding(atom)
    return env


def cmd_check(args) -> int:
    env = _parse_type_env(args)
    prog, sig = parse_program(_read(args.file), args.file)
    diags = check_signature(sig)
    if diags:
        return _report(None, diags, args.json)
    main, diags = check_program(sig, prog, env)
    return _report(None if main is None else type_str(main), diags, args.json)


def cmd_type(args) -> int:
    """Print the main's synthesized type.

    Checks the signature and the declared variables of every annotation and
    of the environment, then synthesizes the main against the declared
    headers.  Function and procedure bodies, duplicate declarations and the
    main's own ascription are not checked; ``check`` checks them."""
    env = _parse_type_env(args)
    prog, sig = parse_program(_read(args.file), args.file)
    decls, _ = program_decls(prog)
    diags = check_signature(sig) or annotation_diags(sig, prog, decls, env)
    if diags:
        return _report(None, diags, args.json)
    try:
        main = synth_main(decls, sig, env, prog)
    except TypeCheckFailure as exc:
        return _report(None, [exc.diagnostic], args.json)
    return _report(type_str(main), [], args.json)


def cmd_subtype(args) -> int:
    sig = parse_signature(_read(args.sig), args.sig) if args.sig else EMPTY_SIGNATURE
    bad = check_signature(sig)
    if bad:
        return _report(None, bad, args.json)
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
    prog, sig = parse_program(_read(args.file), args.file)
    if not isinstance(prog, QueryProgram):
        print("eval expects a query program", file=sys.stderr)
        return 2
    env = parse_env_bindings(args.env or [])
    rt = runtime_for_query_program(prog, recursion_limit=args.recursion_limit)
    result = eval_query(rt, env, prog.main)
    if args.json:
        print(json.dumps({"value": value_str(result)}))
    else:
        print(value_str(result))
    return 0


def cmd_run_update(args) -> int:
    prog, sig = parse_program(_read(args.file), args.file)
    if not isinstance(prog, UpdateProgram):
        print("run-update expects an update program", file=sys.stderr)
        return 2
    bad = check_signature(sig)
    if bad:
        return _report(None, bad, args.json)
    value = parse_value(args.input)
    if not member(sig, value, prog.input):
        print(f"error: the input is not a value of the declared input type "
              f"{type_str(prog.input)}", file=sys.stderr)
        return 1
    env = parse_env_bindings(args.env or [])
    rt = runtime_for_update_program(prog, recursion_limit=args.recursion_limit)
    result = apply_update(rt, env, value, prog.main)
    if args.json:
        print(json.dumps({"value": value_str(result)}))
    else:
        print(value_str(result))
    return 0


def cmd_oracle(args) -> int:
    if args.file:
        prog, sig = parse_program(_read(args.file), args.file)
        bad = check_signature(sig)
        if bad:
            return _report(None, bad, args.json)
        labels = _labels_in(sig, prog)
        use_sig = sig if len(sig) else None
    else:
        labels = ("a", "b", "c")
        use_sig = None
    cfg = GenConfig(labels=labels, depth=args.max_depth, width=args.max_width,
                    seed=args.seed, cases=args.cases)
    report = run_suites(cfg, use_sig)
    if args.json:
        print(json.dumps(report.to_json(), indent=2))
    else:
        print(report.summary())
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="fluxq",
        description="Typecheck, evaluate, and property-test programs over "
                    "regular-expression types for XML forests.")
    top.add_argument("--json", action="store_true",
                     help="machine-readable output")
    top.add_argument("--max-depth", type=int, default=3, metavar="N",
                     help="value enumeration depth bound (default 3)")
    top.add_argument("--max-width", type=int, default=3, metavar="N",
                     help="forest length bound for enumeration (default 3)")
    top.add_argument("--recursion-limit", type=int, default=256, metavar="N",
                     help="call depth limit for evaluation (default 256)")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="typecheck a program file")
    p.add_argument("file")
    p.add_argument("--var", action="append", metavar="NAME=TYPE",
                   help="ambient forest-variable binding for the main query")
    p.add_argument("--tree", action="append", metavar="NAME=TYPE",
                   help="ambient tree-variable binding (atomic type)")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("type", help="print the synthesized type of the main "
                                    "query or update")
    p.add_argument("file")
    p.add_argument("--var", action="append", metavar="NAME=TYPE")
    p.add_argument("--tree", action="append", metavar="NAME=TYPE")
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
    p.add_argument("--cases", type=int, default=100, metavar="N",
                   help="cases per random suite (default 100)")
    p.set_defaults(func=cmd_oracle)

    return top


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FluxqError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RecursionError:
        print("error: input nested or sequenced too deeply to process "
              "(limit/depth)", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
