"""Independent stability oracle via conditional satisfaction.

A set R conditionally satisfies a constraint atom w.r.t. a context S when R
satisfies it outright and every interpolant between R and S (restricted to
the domain) stays admissible.  Iterating the induced one-step operator from
the empty set underneath a candidate model yields a fixpoint; the candidate
is stable exactly when it equals that fixpoint.  The operator is defined on
positive basic programs; a normal program is read as its rewrite
(:func:`to_positive_basic`), which pushes ``not`` into complement constraints.

The operator runs on ``Program.compiled``, the masks the reduct reads too,
where ``not C`` already is C's complement.  A step from ``lower`` under
``context`` fires a rule when ``pos ⊆ lower``, ``neg ∩ (lower ∪ context) = ∅``
and each body c-atom conditionally satisfies the pair.  The ``neg`` test is
conditional satisfaction of ``not a``'s rewrite ``[a : {}]``, table ``0b01``:
it fails when a ∈ lower, and when a ∈ context the fold ``t &= t >> 1``
empties the table.  The module imports only ``core`` and ``errors``: past the
parse, the compile and core's conversions between sets and bits
(``CompiledProgram.mask``, ``position``, ``CandidateBits.answers``) it shares
no code with the reduct or the abstract forms, so the two oracles stay independent.
"""

from __future__ import annotations

from typing import Iterable

from .core import (CAtom, CandidateBits, CompiledProgram, Literal, Program, Rule, head_atom_name,
                   indices, literal_catom, position, set_bits)
from .errors import InvariantError, NotAModelError, ProgramClassError, check_guard


def _interval(table: int, low: int, top: int) -> bool:
    """Are ``low`` and, when ``low ⊆ top``, every index between them set bits of ``table``?

    Each fold ``t &= t >> 2**i``, once per interval atom i, leaves bit x set
    when x and x + {i} both are, so the bit of ``low`` then answers for the
    whole interval: one big-integer step per atom, and no set is enumerated.
    """
    if not table >> low & 1:
        return False
    if low & ~top:
        return True  # no interpolants to check
    for i in indices(top & ~low):
        table &= table >> (1 << i)
    return bool(table >> low & 1)


def cond_satisfies(lower: Iterable[str], upper: Iterable[str], catom: CAtom) -> bool:
    """Conditional satisfaction, by the step's fold: ``lower`` satisfies the atom (its
    first test) and every set up to ``upper`` (within the domain) is admissible."""
    return _interval(catom.table, position(catom.atoms, lower), position(catom.atoms, upper))


def _step(compiled: CompiledProgram, lower: int, context: int) -> int:
    """One application of the conditional one-step operator, on vocabulary masks."""
    derived = 0
    seen = lower | context
    for head, pos, neg, heads, body in compiled.rules:
        if head & derived or pos & ~lower or neg & seen:
            continue
        for c in body:
            if not _interval(c.catom.table, c.position(lower), c.position(context)):
                break
        else:
            derived |= head
            for c in heads:
                derived |= c.domain
    return derived


def tp_step(program: Program, lower: Iterable[str], context: Iterable[str]) -> frozenset[str]:
    """One operator step on sets, ignoring atoms outside the vocabulary; positive basic
    programs only (:class:`ProgramClassError` otherwise)."""
    for rule in program.rules:
        if len(rule.head) != 1 or head_atom_name(rule.head[0]) is None:
            raise ProgramClassError("the fixpoint operator requires single elementary heads")
        if not all(lit.positive for lit in rule.body):
            raise ProgramClassError("the fixpoint operator requires negation-free bodies")
    compiled = program.compiled
    low, ctx = map(compiled.mask, (lower, context))
    return frozenset(compiled.atoms_of(_step(compiled, low, ctx)))


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
    m = compiled.mask(candidate)
    if not CandidateBits(compiled, m).models():
        raise NotAModelError(
            "{%s} is not a model of the program" % ", ".join(sorted(candidate)))
    return candidate <= compiled.bit.keys() and _ascent(compiled, m)


def _ascent(compiled: CompiledProgram, model: int) -> bool:
    """Is the model the fixpoint the operator reaches from the empty set? (no model test)"""
    current = 0
    # Monotone ascent inside the model: one extra round detects the fixpoint.
    for _ in range(len(compiled.atoms) + 2):
        nxt = _step(compiled, current, model)
        if nxt == current:
            return current == model
        current = nxt
    raise InvariantError("fixpoint iteration exceeded its bound")


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

    The ``stable_language`` guard is checked before any enumeration; the
    ascent runs from each model that one all-candidates model test finds,
    and ``CandidateBits.answers`` renders the stable ones.
    """
    _refuse_unless_normal(program)
    check_guard("stable_language", len(program.language))
    space = CandidateBits(program.compiled)
    return space.answers(k for k in set_bits(space.models())
                         if _ascent(space.compiled, space.mask(k)))
