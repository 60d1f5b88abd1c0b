"""The generalized reduct and stable-model machinery.

Given a candidate interpretation, a program is simplified in four steps:
rules with falsified negative literals or falsified body constraints are
dropped; the remaining negative literals are removed; each body constraint is
routed through a ``__theta_`` atom defined by one rule per satisfiable set;
each head constraint becomes ``__bot`` when falsified, otherwise a
``__beta_`` atom tied to the constrained atoms.  The result is an ordinary
positive program whose minimal models decide stability: the candidate is
stable when stripping the introduced atoms from some minimal model gives the
candidate back.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Iterable, Iterator

from .abstraction import abstract_of, satisfiable_sets
from .core import (
    CAtom,
    Literal,
    Program,
    Rule,
    candidate_models,
    satisfies_catom,
    set_key,
)
from .errors import InvariantError, NameCollisionError, ProgramClassError, check_guard

#: The false atom produced for falsified head constraints.
BOT = "__bot"


_NEGATED_CATOM = "negated c-atoms must be replaced by complements before the reduct"


def theta_atom(catom: CAtom) -> str:
    """The body-replacement atom; identical c-atoms share one name."""
    return "__theta_" + catom.digest


def beta_atom(catom: CAtom) -> str:
    """The head-replacement atom; identical c-atoms share one name."""
    return "__beta_" + catom.digest


@dataclass(frozen=True)
class ReductRule:
    """A positive ordinary rule, possibly disjunctive."""

    head: tuple[str, ...]
    body: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "head", tuple(self.head))
        object.__setattr__(self, "body", tuple(self.body))
        if not self.head:
            raise ValueError("a rule needs at least one head atom")


@dataclass(frozen=True)
class ReductProgram:
    """A positive constraint-free program plus the special atoms it introduced."""

    rules: tuple[ReductRule, ...]
    gamma: frozenset[str] = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "rules", tuple(self.rules))
        object.__setattr__(self, "gamma", frozenset(self.gamma))

    @cached_property
    def atoms(self) -> frozenset[str]:
        found: set[str] = set()
        for rule in self.rules:
            found.update(rule.head)
            found.update(rule.body)
        return frozenset(found)

    @property
    def is_normal(self) -> bool:
        return all(len(r.head) == 1 for r in self.rules)

    def to_program(self) -> Program:
        """View as a core Program (special atoms become ordinary atoms)."""
        return Program(tuple(
            Rule(r.head, tuple(Literal.atom(b) for b in r.body)) for r in self.rules))


def as_reduct_program(program: Program) -> ReductProgram:
    """Convert a positive ordinary program for the model enumerators."""
    rules = []
    for rule in program.rules:
        head = []
        for element in rule.head:
            if not isinstance(element, str):
                raise ProgramClassError("constraint atoms are not allowed here")
            head.append(element)
        body = []
        for lit in rule.body:
            if not (lit.positive and lit.is_atom):
                raise ProgramClassError("only positive atom bodies are allowed here")
            body.append(lit.item)
        rules.append(ReductRule(tuple(head), tuple(body)))
    return ReductProgram(tuple(rules), frozenset())


def claim_name(owners: dict[str, CAtom], name: str, catom: CAtom) -> None:
    """Record ``catom`` as the owner of an introduced ``name``.

    Raises :class:`NameCollisionError` when a distinct c-atom owns it already.
    """
    if owners.setdefault(name, catom) != catom:
        raise NameCollisionError(
            f"distinct constraint atoms over {{{', '.join(sorted(catom.domain))}}} and "
            f"{{{', '.join(sorted(owners[name].domain))}}} both map to {name}")


def gl_reduct(program: Program, interpretation: Iterable[str]) -> ReductProgram:
    """Apply the four transformation steps for the given candidate.

    Raises :class:`NameCollisionError` when two distinct c-atoms would share
    an introduced name, and :class:`InvariantError` when the result breaks
    ``reduct_size_bound``.
    """
    candidate = frozenset(interpretation)
    emitted: list[ReductRule] = []
    theta_defs: dict[CAtom, list[ReductRule]] = {}
    beta_defs: dict[CAtom, list[ReductRule]] = {}
    owners: dict[str, CAtom] = {}  # introduced name -> its c-atom; keys form gamma

    for rule in program.rules:
        if _rule_dropped(rule, candidate):
            continue
        blocks: list[list[ReductRule]] = []
        body: list[str] = []
        for lit in rule.body:
            if lit.is_atom:
                if lit.positive:
                    body.append(lit.item)
                # Satisfied negative literals simply vanish.
            else:
                catom = lit.item
                name = theta_atom(catom)
                body.append(name)
                if catom not in theta_defs:
                    claim_name(owners, name, catom)
                    covers = sorted(
                        satisfiable_sets(abstract_of(catom), candidate), key=set_key)
                    theta_defs[catom] = [
                        ReductRule((name,), set_key(w)) for w in covers]
                    blocks.append(theta_defs[catom])
        head: list[str] = []
        for element in rule.head:
            if isinstance(element, str):
                head.append(element)
                continue
            catom = element
            if not satisfies_catom(candidate, catom):
                head.append(BOT)
                continue
            name = beta_atom(catom)
            head.append(name)
            if catom not in beta_defs:
                claim_name(owners, name, catom)
                true_part = sorted(candidate & catom.domain)
                false_part = sorted(catom.domain - candidate)
                defs = [ReductRule((atom,), (name,)) for atom in true_part]
                defs += [ReductRule((BOT,), (atom, name)) for atom in false_part]
                defs.append(ReductRule((name,), tuple(true_part)))
                beta_defs[catom] = defs
                blocks.append(defs)
        if len(head) > 1:
            # The false atom cannot decide a disjunction; drop it unless alone.
            head = [h for h in dict.fromkeys(head) if h != BOT] or [BOT]
        emitted.append(ReductRule(tuple(head), tuple(body)))
        for block in blocks:
            emitted.extend(block)

    result = ReductProgram(tuple(emitted), frozenset(owners))
    bound = reduct_size_bound(program)
    if len(result.rules) > bound:
        raise InvariantError(
            f"the reduct has {len(result.rules)} rules, above its size bound of {bound}")
    return result


def _rule_dropped(rule: Rule, candidate: frozenset[str]) -> bool:
    for lit in rule.body:
        if not lit.positive:
            if lit.is_constraint:
                raise ProgramClassError(_NEGATED_CATOM)
            if lit.item in candidate:
                return True
        elif lit.is_constraint and not satisfies_catom(candidate, lit.item):
            return True
    return False


def reduct_size_bound(program: Program) -> int:
    """Rule-count bound for any reduct of the program.

    One transformed rule per source rule, plus per distinct c-atom at most
    its sublattice count (body role) and domain size plus one (head role).
    """
    catoms = program.catoms
    if not catoms:
        return len(program.rules)
    widest = max(len(abstract_of(c).lattices) for c in catoms)
    largest = max(len(c.domain) for c in catoms)
    return len(program.rules) + len(catoms) * (widest + largest + 1)


def least_model(reduct: ReductProgram) -> frozenset[str]:
    """The least model of a non-disjunctive positive program."""
    if not reduct.is_normal:
        raise ProgramClassError("the least model requires single-atom heads")
    derived: set[str] = set()
    changed = True
    while changed:
        changed = False
        for rule in reduct.rules:
            if rule.head[0] not in derived and all(b in derived for b in rule.body):
                derived.add(rule.head[0])
                changed = True
    return frozenset(derived)


def _compile(reduct: ReductProgram, index: dict[str, int]) -> list[tuple[int, int]]:
    """Rules as (head, body) bit masks over ``index``.

    Rules whose body leaves ``index`` are dropped and head atoms outside it
    are ignored: neither matters for sets drawn from ``index`` alone.
    """
    compiled = []
    for rule in reduct.rules:
        if not all(a in index for a in rule.body):
            continue
        head = body = 0
        for a in rule.head:
            if a in index:
                head |= 1 << index[a]
        for a in rule.body:
            body |= 1 << index[a]
        compiled.append((head, body))
    return compiled


def _is_model_mask(mask: int, compiled: list[tuple[int, int]]) -> bool:
    return all(body & mask != body or head & mask for head, body in compiled)


def _has_smaller_model(mask: int, compiled: list[tuple[int, int]]) -> bool:
    """Is some proper subset of ``mask`` a model?"""
    # Only rules whose body fits inside the mask can fail on a subset of it.
    relevant = [(head & mask, body) for head, body in compiled if body & mask == body]
    sub = mask
    while sub:
        sub = (sub - 1) & mask
        if _is_model_mask(sub, relevant):
            return True
    return False


def _minimal_extensions(
    compiled: list[tuple[int, int]], base: int, free: range
) -> Iterator[int]:
    """Models ``base | G``, G a set of ``free`` bits, minimal among such sets.

    Sets are tried by increasing size of G, and a set containing a model
    already yielded is skipped, since that model sits inside it.
    """
    found: list[int] = []
    for size in range(len(free) + 1):
        for combo in combinations(free, size):
            mask = base
            for i in combo:
                mask |= 1 << i
            if any(prior & mask == prior for prior in found):
                continue
            if _is_model_mask(mask, compiled):
                found.append(mask)
                yield mask


def minimal_models(reduct: ReductProgram) -> tuple[frozenset[str], ...]:
    """All subset-minimal models, enumerated over the program's atoms."""
    atoms = sorted(reduct.atoms)
    check_guard("minimal_models", len(atoms))
    compiled = _compile(reduct, {a: i for i, a in enumerate(atoms)})
    models = [
        frozenset(atoms[i] for i in range(len(atoms)) if mask >> i & 1)
        for mask in _minimal_extensions(compiled, 0, range(len(atoms)))
    ]
    return tuple(sorted(models, key=set_key))


def _has_minimal_witness(reduct: ReductProgram, candidate: frozenset[str]) -> bool:
    """Is ``candidate | G`` a minimal model of the reduct for some G in gamma?"""
    gamma = sorted(reduct.gamma & reduct.atoms)
    check_guard("minimal_models", len(candidate) + len(gamma))
    if candidate & reduct.gamma or not candidate <= reduct.atoms:
        return False  # no set of reduct atoms strips to the candidate
    atoms = sorted(candidate) + gamma
    compiled = _compile(reduct, {a: i for i, a in enumerate(atoms)})
    base = (1 << len(candidate)) - 1
    return any(
        not _has_smaller_model(mask, compiled)
        for mask in _minimal_extensions(compiled, base, range(len(candidate), len(atoms))))


def is_stable(program: Program, interpretation: Iterable[str]) -> bool:
    """Does the candidate reproduce itself through its reduct?

    A normal reduct is decided by its least model.  For a disjunctive one
    the candidate is stable when some minimal model N has N - gamma equal
    to it, so only the sets ``candidate | G`` with G drawn from gamma are
    tried.  A set containing an earlier model is skipped; each other model
    is tested against all of its proper subsets, and the first minimal one
    ends the search.  Worst case: at most ``3**|gamma| * 2**|candidate|``
    model tests.  A ``GuardError`` is raised before any enumeration when
    the pool ``|candidate| + |gamma|`` exceeds the ``minimal_models`` guard.
    """
    candidate = frozenset(interpretation)
    reduct = gl_reduct(program, candidate)
    if reduct.is_normal:
        return least_model(reduct) - reduct.gamma == candidate
    return _has_minimal_witness(reduct, candidate)


def stable_models(program: Program) -> tuple[frozenset[str], ...]:
    """All stable models, enumerated over subsets of the vocabulary.

    Stable models are models, so only ``candidate_models`` are tried and no
    reduct is built for a non-model.  Vocabularies beyond the
    ``stable_language`` guard raise ``GuardError`` before any enumeration.
    """
    candidates = candidate_models(program)
    if any(lit.is_constraint and not lit.positive
           for rule in program.rules for lit in rule.body):
        raise ProgramClassError(_NEGATED_CATOM)
    out = [candidate for candidate in candidates if is_stable(program, candidate)]
    return tuple(sorted(out, key=set_key))


def format_reduct(reduct: ReductProgram) -> str:
    """Plain-text rendering, one rule per line."""
    lines = []
    for rule in reduct.rules:
        head = " | ".join(rule.head)
        if rule.body:
            lines.append(f"{head} :- {', '.join(rule.body)}.")
        else:
            lines.append(f"{head}.")
    return "\n".join(lines)


def reduct_json(reduct: ReductProgram) -> dict:
    """JSON-ready structure for audit output."""
    return {
        "rules": [{"head": list(r.head), "body": list(r.body)} for r in reduct.rules],
        "gamma": sorted(reduct.gamma),
    }
