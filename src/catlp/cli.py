"""Command-line surface.

Exit codes: 0 success, 1 usage, parse or input errors, 2 guard or
program-class violations, 3 oracle divergence.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache

from . import golden
from .abstraction import checked_primes, classify_cubes
from .analysis import cycle_report, dependency_graph, format_translation, to_dot
from .core import CAtom, Program, is_model, select, set_key
from .errors import CatlpError, GuardError, NotAModelError, ParseError, ProgramClassError
from .fixpoint import fixpoint_stable, to_positive_basic
from .parser import format_program, load_program, parse_constraint, parse_interpretation
from .reduct import gl_reduct, is_stable, reduct_json, stable_models

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_GUARD = 2
EXIT_DIVERGENCE = 3


def _load_file(path: str) -> Program:
    # No newline translation: a lone "\r" is whitespace, as for ``load_program``.
    with open(path, encoding="utf-8", newline="") as handle:
        return load_program(handle.read())


def _cmd_solve(args) -> int:
    program = _load_file(args.file)
    models = stable_models(program)
    if args.json:
        print(json.dumps({"models": [list(set_key(m)) for m in models]}))
        return EXIT_OK
    if not models:
        print("no stable models")
        return EXIT_OK
    shown = models if args.all else models[:1]
    for model in shown:
        print("{%s}" % ", ".join(set_key(model)))
    if not args.all and len(models) > 1:
        print(f"({len(models) - 1} more; use --all)")
    return EXIT_OK


def _fixpoint_verdict(program: Program, interpretation: frozenset[str]) -> bool:
    rewritten = to_positive_basic(program)
    try:
        return fixpoint_stable(rewritten, interpretation)
    except NotAModelError:
        return False


def _cmd_check(args) -> int:
    program = _load_file(args.file)
    interpretation = parse_interpretation(args.interpretation)
    verdicts = {}
    if args.oracle in ("reduct", "both"):
        verdicts["reduct"] = is_stable(program, interpretation)
    if args.oracle in ("fixpoint", "both"):
        verdicts["fixpoint"] = _fixpoint_verdict(program, interpretation)
    if len(set(verdicts.values())) > 1:
        print("oracle divergence: %s" % verdicts, file=sys.stderr)
        return EXIT_DIVERGENCE
    verdict = next(iter(verdicts.values()))
    if verdict:
        print("stable")
    elif not is_model(interpretation, program):
        print("not stable (not a model)")
    else:
        print("not stable")
    return EXIT_OK


def _cmd_reduct(args) -> int:
    program = _load_file(args.file)
    interpretation = parse_interpretation(args.interpretation)
    reduct = gl_reduct(program, interpretation)
    if args.json:
        print(json.dumps(reduct_json(reduct)))
    else:
        sys.stdout.write(format_program(reduct) or "\n")
    return EXIT_OK


def _abstract_json(catom: CAtom, classify: bool) -> dict:
    atoms, cubes = checked_primes(catom)
    names = cache(lambda mask: list(select(atoms, mask)))
    data = {
        "domain": list(atoms),
        "lattices": [{"base": names(base), "free": names(free)} for base, free in cubes],
    }
    if classify:
        flags = classify_cubes(len(atoms), cubes)
        data["monotone"] = flags.monotone
        data["antimonotone"] = flags.antimonotone
        data["convex"] = flags.convex
    return data


def _cmd_abstract(args) -> int:
    if (args.file is None) == (args.catom is None):
        print("abstract: give a FILE or --catom EXPR (not both)", file=sys.stderr)
        return EXIT_INPUT
    if args.catom is not None:
        print(json.dumps(_abstract_json(parse_constraint(args.catom), args.classify)))
        return EXIT_OK
    program = _load_file(args.file)
    print(json.dumps([_abstract_json(c.catom, args.classify)
                      for c in program.compiled.catoms]))
    return EXIT_OK


def _cmd_translate(args) -> int:
    program = _load_file(args.file)
    sys.stdout.write(format_translation(program))
    return EXIT_OK


def _cmd_depgraph(args) -> int:
    program = _load_file(args.file)
    graph = dependency_graph(program)
    if args.dot:
        print(to_dot(graph))
    else:
        for u, v, sign in sorted(graph.edges):
            print(f"{u} -{sign}-> {v}")
    if args.report:
        report = cycle_report(graph)
        print(f"positive_cycle={report.has_positive_cycle}")
        print(f"odd_cycle={report.has_odd_cycle}")
        print(f"even_cycle={report.has_even_cycle}")
        print(f"even_cycle_literal={report.has_even_cycle_literal}")
        print(f"call_consistent={report.call_consistent}")
        print(f"acyclic={report.acyclic}")
    return EXIT_OK


def _cmd_selftest(args) -> int:
    failures = 0
    for case in golden.CASES:
        try:
            case.check()
        except AssertionError as exc:
            failures += 1
            print(f"FAIL {case.name}: {exc}")
        else:
            print(f"ok {case.name}")
    print(f"{len(golden.CASES) - failures}/{len(golden.CASES)} cases passed")
    return EXIT_OK if failures == 0 else EXIT_INPUT


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="catlp",
        description="Stable models for propositional programs with constraint atoms.")
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="enumerate stable models")
    solve.add_argument("file")
    solve.add_argument("--all", action="store_true", help="print every model")
    solve.add_argument("--json", action="store_true", help="JSON output")
    solve.set_defaults(func=_cmd_solve)

    check = sub.add_parser("check", help="check one interpretation for stability")
    check.add_argument("file")
    check.add_argument("-I", "--interpretation", required=True,
                       help="comma-separated atoms (empty string for the empty set)")
    check.add_argument("--oracle", choices=("reduct", "fixpoint", "both"),
                       default="reduct")
    check.set_defaults(func=_cmd_check)

    reduct = sub.add_parser("reduct", help="print the transformed program")
    reduct.add_argument("file")
    reduct.add_argument("-I", "--interpretation", required=True)
    reduct.add_argument("--json", action="store_true")
    reduct.set_defaults(func=_cmd_reduct)

    abstract = sub.add_parser("abstract", help="print abstract constraint forms")
    abstract.add_argument("file", nargs="?")
    abstract.add_argument("--catom", help="a single constraint expression")
    abstract.add_argument("--classify", action="store_true",
                          help="add monotone/antimonotone/convex flags")
    abstract.set_defaults(func=_cmd_abstract)

    translate = sub.add_parser("translate", help="print the ordinary translation")
    translate.add_argument("file")
    translate.set_defaults(func=_cmd_translate)

    depgraph = sub.add_parser("depgraph", help="print the dependency graph")
    depgraph.add_argument("file")
    depgraph.add_argument("--dot", action="store_true", help="GraphViz output")
    depgraph.add_argument("--report", action="store_true", help="cycle summary")
    depgraph.set_defaults(func=_cmd_depgraph)

    selftest = sub.add_parser("selftest", help="run the built-in worked examples")
    selftest.set_defaults(func=_cmd_selftest)

    return parser


@cache
def _arg_parser() -> argparse.ArgumentParser:
    """The parser ``run`` reuses, built at its first call, not at import."""
    return build_arg_parser()


def run(argv: list[str] | None = None) -> int:
    """Run one command and return its exit code.

    May be called repeatedly in one process; the parser is built once, at
    the first call.  A usage error leaves argparse's message on stderr and
    gives 1; ``-h``/``--help`` prints help and gives 0.
    """
    try:
        args = _arg_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code else EXIT_OK
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (GuardError, ProgramClassError) as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except OSError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_INPUT
    except CatlpError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_INPUT


def main() -> None:
    sys.exit(run())
