"""Independent stability oracle via conditional satisfaction.

A set R conditionally satisfies a constraint atom w.r.t. a context S when R
satisfies it outright and every interpolant between R and S (restricted to
the domain) stays admissible.  Iterating the induced one-step operator from
the empty set underneath a candidate model yields a fixpoint; the candidate
is stable exactly when it equals that fixpoint.  This route only needs
negation-free programs with elementary heads, so normal constraint programs
are first rewritten by pushing ``not`` into complement constraints.
Conditional satisfaction is read off each c-atom's truth table, and the
module imports only ``core`` and ``errors``: it shares no code with the
reduct or the abstract forms, so the two oracles stay independent.
"""

from __future__ import annotations

from typing import Iterable

from .core import (
    CAtom,
    Literal,
    Program,
    Rule,
    candidate_models,
    head_atom_name,
    is_model,
    literal_catom,
    satisfies_catom,
    set_key,
)
from .errors import InvariantError, NotAModelError, ProgramClassError


def cond_satisfies(lower: Iterable[str], upper: Iterable[str], catom: CAtom) -> bool:
    """Conditional satisfaction of a constraint atom.

    ``lower`` must satisfy the atom and every set between ``lower`` and
    ``upper`` (within the domain) must be admissible.  Folding the table
    once per atom i of the interval, ``t &= t >> 2**i``, leaves bit x set
    when the sets x and x + {i} both are; after every fold, the bit of the
    interval's bottom says whether the whole interval is admissible.  That
    is one big-integer step per interval atom, and no set is enumerated.
    """
    low = frozenset(lower)
    if not satisfies_catom(low, catom):
        return False
    bottom = low & catom.domain
    top = frozenset(upper) & catom.domain
    if not bottom <= top:
        return True  # no interpolants to check
    table, base = catom.table, 0
    for i, atom in enumerate(catom.atoms):
        if atom in bottom:
            base |= 1 << i
        elif atom in top:
            table &= table >> (1 << i)
    return bool(table >> base & 1)


def tp_step(program: Program, lower: Iterable[str], context: Iterable[str]) -> frozenset[str]:
    """One application of the conditional one-step operator.

    Raises :class:`ProgramClassError` unless the program is positive basic,
    a verdict ``Program.basic_refusal`` finds once per program, not once per
    step.
    """
    if program.basic_refusal:
        raise ProgramClassError(f"the fixpoint operator requires {program.basic_refusal}")
    low = frozenset(lower)
    ctx = frozenset(context)
    derived: set[str] = set()
    for rule in program.rules:
        head = head_atom_name(rule.head[0])
        if head in derived:
            continue
        fired = True
        for lit in rule.body:
            if lit.is_atom:
                if lit.item not in low:
                    fired = False
                    break
            elif not cond_satisfies(low, ctx, lit.item):
                fired = False
                break
        if fired:
            derived.add(head)
    return frozenset(derived)


def fixpoint_stable(program: Program, interpretation: Iterable[str]) -> bool:
    """Stability via the fixpoint of the conditional one-step operator.

    Raises :class:`NotAModelError` when the interpretation is not a model;
    the iteration is only well-behaved underneath models.
    """
    candidate = frozenset(interpretation)
    if not is_model(candidate, program):
        raise NotAModelError(
            "{%s} is not a model of the program" % ", ".join(sorted(candidate)))
    return _ascent(program, candidate)


def _ascent(program: Program, model: frozenset[str]) -> bool:
    """Is the model the fixpoint the operator reaches from the empty set? (no model test)"""
    current: frozenset[str] = frozenset()
    # Monotone ascent inside the model: one extra round detects the fixpoint.
    for _ in range(len(program.language) + 2):
        nxt = tp_step(program, current, model)
        if nxt == current:
            return current == model
        current = nxt
    raise InvariantError("fixpoint iteration exceeded its bound")


def to_positive_basic(program: Program) -> Program:
    """Rewrite a normal constraint program into negation-free basic form.

    ``not a`` becomes the one-atom constraint admitting only the empty set;
    a negated constraint becomes its complement.  Heads are left untouched.
    """
    rules = []
    for rule in program.rules:
        if len(rule.head) != 1:
            raise ProgramClassError("the rewrite requires non-disjunctive rules")
        if head_atom_name(rule.head[0]) is None:
            raise ProgramClassError("the rewrite requires elementary heads")
        body = tuple(lit if lit.positive else Literal.constraint(literal_catom(lit))
                     for lit in rule.body)
        rules.append(Rule(rule.head, body))
    return Program(tuple(rules), program.declared_atoms)


def fixpoint_stable_models(program: Program) -> tuple[frozenset[str], ...]:
    """All stable models under the fixpoint oracle (models only, by definition).

    Vocabularies beyond the ``stable_language`` guard raise ``GuardError``
    before any enumeration.
    """
    out = [c for c in candidate_models(program) if _ascent(program, c)]
    return tuple(sorted(out, key=set_key))
