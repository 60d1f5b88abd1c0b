"""The three closed-loop workloads: which families, at which sizes, make a pass.

Family shapes and sizes are fixed per workload.  Each pass draws fresh
instances from the run's random stream: random programs, random constraint
atoms, candidates and atom orders change from pass to pass, so a run
averages over many draws and every seed asks for about the same work.
"""

from __future__ import annotations

import random

from families import (
    Command,
    aggregate_constraint,
    analysis_programs,
    choice_program,
    even_loop_program,
    negated_loop_programs,
    pair_programs,
    random_constraint,
    random_ordinary_program,
    shift_program,
)


def _aggregates(rng, n):
    return [command for kind in ("count", "sum", "window")
            for command in analysis_programs(kind, n, *aggregate_constraint(rng, kind, n))]


def _random_catoms(rng, n):
    return analysis_programs("random_catom", n, *random_constraint(rng, n))


#: workload -> (family generator, sizes of a full pass, size of a smoke pass)
WORKLOADS = {
    # Candidate loop and per-candidate reduct: naming, size bound, least model.
    "solve": [
        (choice_program, (5, 6, 7, 7, 8), 3),
        (even_loop_program, (3, 4), 2),
        (shift_program, ((2, 3), (3, 3), (3, 3), (3, 4), (3, 4)), (2, 3)),
        (random_ordinary_program, (8, 9, 10, 11, 11), 4),
    ],
    # One large reduct per command: minimal models and the fixpoint oracle.
    "check": [
        (pair_programs, (5, 6, 7, 8, 8), 2),
        (negated_loop_programs, (5, 6, 7, 8), 2),
    ],
    # Desugaring, cold abstract forms and the analysis passes; no reduct.
    "analyze": [
        (_aggregates, (6, 7, 8, 9), 4),
        (_random_catoms, (5, 6, 7), 3),
    ],
}


def build_pass(workload: str, rng: random.Random, smoke: bool = False) -> list[Command]:
    """The commands of one pass, references included, in a fixed order."""
    commands: list[Command] = []
    for make, sizes, smoke_size in WORKLOADS[workload]:
        for size in (smoke_size,) if smoke else sizes:
            commands += make(rng, size)
    return commands
