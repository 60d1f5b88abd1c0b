"""Independent stability oracle via conditional satisfaction.

A set R conditionally satisfies a constraint atom w.r.t. a context S when R
satisfies it outright and every interpolant between R and S (restricted to
the domain) stays admissible.  Iterating the induced one-step operator from
the empty set underneath a candidate model yields a fixpoint; the candidate
is stable exactly when it equals that fixpoint.  The operator is defined on
positive basic programs; a normal program is read as its rewrite
(:func:`to_positive_basic`), which pushes ``not`` into complement constraints.

The operator runs on ``Program.compiled``, the masks the reduct reads too,
where ``not C`` already is C's complement, and on a ``core.CandidateBits``
space whose candidates are the contexts: one step (:func:`_step`) and one
ascent (:func:`_stable`) are written once, on per-atom bitsets of
candidates, and run on a space of one candidate (``tp_step``,
``fixpoint_stable``) and on a space of every model
(``fixpoint_stable_models``).  A step fires a rule for the candidates whose
lower set holds ``pos``, for which neither set meets ``neg``, and whose
lower set conditionally satisfies each body c-atom with respect to the
candidate: ``CandidateBits.split`` of its table with the lower sets.  The
``neg`` test is conditional satisfaction of ``not a``'s rewrite ``[a :
{}]``, table ``0b01``: it fails when a is in the lower set, and when a is in
the context the fold ``t &= t >> 1`` empties the table.  The module imports
only ``core`` and ``errors``: past the parse, the compile and core's sets of
candidates, conversions and :func:`core.interval` it shares no code with the
reduct or the abstract forms, so the two oracles stay independent.
"""

from __future__ import annotations

from itertools import compress
from typing import Iterable

from .core import (CandidateBits, CAtom, Literal, Program, Rule, head_atom_name, indices, interval,
                   literal_catom, position, set_bits)
from .errors import InvariantError, NotAModelError, ProgramClassError, check_guard


def cond_satisfies(lower: Iterable[str], upper: Iterable[str], catom: CAtom) -> bool:
    """Conditional satisfaction, by the step's fold: ``lower`` satisfies the atom (its
    first test) and every set up to ``upper`` (within the domain) is admissible."""
    return interval(catom.table, position(catom.atoms, lower), position(catom.atoms, upper))


def _step(space: CandidateBits, candidates: int, lower: list[int]) -> list[int]:
    """One operator step for each of ``candidates`` as context, from the lower sets ``lower``.

    Per atom, ``lower`` holds the candidates whose lower set holds it, and
    so does the result for the sets the step derives.  On a space of more
    than one candidate, each lower set lies inside its candidate, as
    ``CandidateBits.split`` needs.
    """
    holds, derived = space.holds, [0] * space.n
    for head, pos, neg, heads, body in space.compiled.rules:
        fired = candidates
        for i in indices(pos):
            fired &= lower[i]
        for i in indices(neg):
            fired &= ~(lower[i] | holds[i])
        for c in body:
            if not fired:
                break
            fired &= space.split(c, c.catom.table, lower)
        if fired:
            for i in indices(head | sum(c.domain for c in heads)):
                derived[i] |= fired
    return derived


def _stable(space: CandidateBits, candidates: int) -> int:
    """Of ``candidates``, all models, those the ascent from the empty set reaches exactly."""
    lower = [0] * space.n
    # Monotone ascent inside each model: one extra round detects the fixpoint.
    for _ in range(space.n + 2):
        derived = _step(space, candidates, lower)
        if derived == lower:
            for found, held in zip(lower, space.holds):
                candidates &= ~(found ^ held)
            return candidates
        lower = derived
    raise InvariantError("fixpoint iteration exceeded its bound")


def tp_step(program: Program, lower: Iterable[str], context: Iterable[str]) -> frozenset[str]:
    """One operator step on sets, ignoring atoms outside the vocabulary; positive basic
    programs only (:class:`ProgramClassError` otherwise)."""
    for rule in program.rules:
        if len(rule.head) != 1 or head_atom_name(rule.head[0]) is None:
            raise ProgramClassError("the fixpoint operator requires single elementary heads")
        if not all(lit.positive for lit in rule.body):
            raise ProgramClassError("the fixpoint operator requires negation-free bodies")
    compiled = program.compiled
    space = CandidateBits(compiled, compiled.mask(context))
    below = CandidateBits(compiled, compiled.mask(lower)).holds  # the lower set's bit per atom
    return frozenset(compress(compiled.atoms, _step(space, space.full, below)))


def _refuse_unless_normal(program: Program) -> None:
    """Raise what :func:`to_positive_basic` raises, in its order, or nothing."""
    for rule in program.rules:
        if len(rule.head) != 1:
            raise ProgramClassError("the rewrite requires non-disjunctive rules")
        if head_atom_name(rule.head[0]) is None:
            raise ProgramClassError("the rewrite requires elementary heads")
        for lit in rule.body:
            if not lit.positive and lit.is_constraint:
                check_guard("complement_domain", len(lit.item.domain))


def fixpoint_stable(program: Program, interpretation: Iterable[str]) -> bool:
    """Stability via the fixpoint of the conditional one-step operator.

    Takes normal programs, refused and read as :func:`to_positive_basic` does.
    Raises :class:`NotAModelError` unless the interpretation is a model: the
    iteration is only well-behaved underneath models.  An atom outside the vocabulary
    has no bit (``CompiledProgram.mask``) and is never derived: a model holding one is not stable.
    """
    _refuse_unless_normal(program)
    compiled = program.compiled
    candidate = frozenset(interpretation)
    space = CandidateBits(compiled, compiled.mask(candidate))
    if not space.models():
        raise NotAModelError(
            "{%s} is not a model of the program" % ", ".join(sorted(candidate)))
    return candidate <= compiled.bit.keys() and bool(_stable(space, space.full))


def to_positive_basic(program: Program) -> Program:
    """Rewrite a normal constraint program into negation-free basic form.

    ``not a`` becomes the one-atom constraint admitting only the empty set;
    a negated constraint becomes its complement.  Heads are left untouched.
    This is the paper's rewrite spelled out; :func:`fixpoint_stable` reads a
    normal program this way without building it.
    """
    _refuse_unless_normal(program)
    rules = [Rule(rule.head, tuple(lit if lit.positive else Literal.constraint(literal_catom(lit))
                                   for lit in rule.body))
             for rule in program.rules]
    return Program(tuple(rules), program.declared_atoms)


def fixpoint_stable_models(program: Program) -> tuple[frozenset[str], ...]:
    """All stable models under the fixpoint oracle, of a program :func:`fixpoint_stable` takes.

    The ``stable_language`` guard is checked before any enumeration; one
    ascent runs from every model that one all-candidates model test finds,
    all at once, and ``CandidateBits.answers`` renders the stable ones.
    """
    _refuse_unless_normal(program)
    check_guard("stable_language", len(program.language))
    space = CandidateBits(program.compiled)
    return space.answers(set_bits(_stable(space, space.models())))
