"""Print the CLI's answers over a fixed corpus, so two checkouts can be diffed.

For the golden program texts of ``catlp.golden`` and for seeded programs of
the five ``tests/generators`` families, this runs ``solve --all --json``,
``translate``, ``depgraph --report``, ``depgraph --dot`` and ``abstract FILE
--classify``, plus ``check`` (the reduct oracle alone, since the fixpoint
oracle refuses disjunctive programs), ``check --oracle both``, ``reduct
--json`` and ``reduct`` for the empty, the full and two seeded
interpretations over the program's vocabulary.  Then it runs ``abstract
--catom EXPR --classify`` on each distinct body c-atom of the golden
programs (a body atom as its one-atom c-atom) and on the golden c-atoms,
written out by ``format_catom``.  Last come malformed inputs, one per kind of parse
error: each malformed program through ``solve``, each malformed ``-I``
list through ``check`` on a golden program, and each malformed expression
through ``abstract --catom``, so the ``parse error: LINE:COLUMN: ...``
lines and exit codes are compared too.  For each command it prints the argv (with the program's
label in place of its temporary file), the exit code, stdout, and stderr
lines prefixed with ``stderr:``.

Run it against the ``catlp`` on ``PYTHONPATH`` and compare the outputs::

    PYTHONPATH=src python tests/cli_corpus.py > new.txt
    PYTHONPATH=../other/src python tests/cli_corpus.py > old.txt
    diff old.txt new.txt

Only the standard library and ``catlp`` are used; pytest does not collect
this file.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import random
import shlex
import sys
import tempfile
from typing import Iterator

from catlp import cli, golden
from catlp.core import CAtom, Program, literal_catom, set_key
from catlp.parser import format_catom, format_program, load_program

import generators

FAMILIES = (
    generators.random_positive_basic_program,
    generators.random_basic_program,
    generators.random_ordinary_program,
    generators.random_normal_constraint_program,
    generators.random_disjunctive_constraint_program,
)


#: One malformed program per kind of parse error, with comments, tabs and
#: both line endings around the fault.
MALFORMED_PROGRAMS = (
    "a :-\r\n\tb,\r\n\t$ c.",
    "% head\n\ta. % tail\n  #minimize b.",
    "a :- b\r\n% c.\r\n\tc.",
    "x.\n\ty :- not\t:- z.",
    "p :- #sum{a=1,\r\n\tb=2} % >=\r\n\t 3.",
    "a.\n% __beta_b.\n\tb :- c, __theta_c.",
    "x :-\r\n\t[a,b :\r\n {a}, {c}].",
    "x.\ny :- #count{b=1,\n c=1, b=3} >= 2.",
    "a.\n\tb :- % open\n",
)

#: Malformed ``-I`` lists: missing, doubled and trailing separators, a
#: stray character, a reserved name and a keyword.
MALFORMED_INTERPRETATIONS = ("a b", "a,,b", "a,", "a,\t$", "a, __bot", "not")

#: Malformed ``--catom`` expressions, each on one line so that its argv
#: prints on one line: trailing input, a second literal, an unfinished
#: aggregate, a set outside the domain and an unknown directive.
MALFORMED_CATOMS = ("1 {a,\tb} 2\tx", "a, b", "#sum{a=1} >=", "[a : {b}]", "not #max{a}")


def golden_texts() -> dict[str, str]:
    """The program texts of ``catlp.golden``, by constant name."""
    return {name: value for name, value in vars(golden).items()
            if name.isupper() and isinstance(value, str)}


def corpus(per_family: int) -> Iterator[tuple[str, str]]:
    """``(label, program text)`` pairs: the golden texts, then each family."""
    yield from golden_texts().items()
    for family in FAMILIES:
        rng = random.Random(family.__name__)
        for index in range(per_family):
            yield f"{family.__name__}#{index}", format_program(family(rng))


def interpretations(program: Program, label: str) -> list[str]:
    """The empty, the full and two seeded subsets of the vocabulary, as -I lists."""
    atoms = list(set_key(program.language))
    rng = random.Random(label)
    chosen = [[], atoms] + [[a for a in atoms if rng.random() < 0.5] for _ in range(2)]
    return [",".join(subset) for subset in chosen]


def commands(text: str, label: str) -> list[list[str]]:
    """The argv of every command run on one program, ``FILE`` for its path."""
    argvs = [
        ["solve", "FILE", "--all", "--json"],
        ["translate", "FILE"],
        ["depgraph", "FILE", "--report"],
        ["depgraph", "FILE", "--dot"],
        ["abstract", "FILE", "--classify"],
    ]
    for listed in interpretations(load_program(text), label):
        argvs.append(["check", "FILE", "-I", listed])
        argvs.append(["check", "FILE", "-I", listed, "--oracle", "both"])
        argvs.append(["reduct", "FILE", "-I", listed, "--json"])
        argvs.append(["reduct", "FILE", "-I", listed])
    return argvs


def golden_catoms() -> list[str]:
    """The distinct body c-atoms of the golden programs, then the golden
    c-atoms, as ``--catom`` texts."""
    catoms = [literal_catom(literal)
              for text in golden_texts().values()
              for rule in load_program(text).rules for literal in rule.body]
    catoms += [value for value in vars(golden).values() if isinstance(value, CAtom)]
    return list(dict.fromkeys(map(format_catom, catoms)))


def run(argv: list[str], path: str, label: str, out) -> None:
    """Run one command in process and print what it did."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.run([path if arg == "FILE" else arg for arg in argv])
    shown = shlex.join(label if arg == "FILE" else arg for arg in argv)
    print(f"$ catlp {shown}", file=out)
    print(f"exit {code}", file=out)
    out.write(stdout.getvalue())
    for line in stderr.getvalue().splitlines():
        print(f"stderr: {line}", file=out)


def run_malformed(path: str, out) -> None:
    """Run the malformed inputs, writing programs to ``path``."""
    for index, text in enumerate(MALFORMED_PROGRAMS):
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        run(["solve", "FILE", "--all", "--json"], path, f"malformed#{index}", out)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(golden.EVEN_LOOP)
    for listed in MALFORMED_INTERPRETATIONS:
        run(["check", "FILE", "-I", listed], path, "EVEN_LOOP", out)
    for text in MALFORMED_CATOMS:
        run(["abstract", "--catom", text], "", "", out)


def main(argv: list[str] | None = None, out=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--per-family", type=int, default=25,
                        help="seeded programs per generator family (default 25)")
    args = parser.parse_args(argv)
    out = out or sys.stdout
    with tempfile.TemporaryDirectory() as scratch:
        path = os.path.join(scratch, "program.lp")
        for label, text in corpus(args.per_family):
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
            for command in commands(text, label):
                run(command, path, label, out)
        for text in golden_catoms():
            run(["abstract", "--catom", text, "--classify"], "", "", out)
        run_malformed(path, out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
