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

The steps run on the bit masks of ``Program.compiled``, and stability is
decided there: a normal result by its least fixpoint, a disjunctive one by
testing its only possible minimal witness.  Introduced atoms are bits, not
names; only ``gl_reduct``, which renders a reduct, mints their names.
``stable_models`` runs the least fixpoint for every candidate at once, one
bit per candidate (``core.CandidateBits``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations
from typing import Iterable, Sequence

from .abstraction import abstract_of
from .core import (
    CAtom,
    CandidateBits,
    CompiledCAtom,
    CompiledProgram,
    Literal,
    Program,
    Rule,
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


#: ``_reducer`` keeps the reduct masks of at most this many programs (least
#: recently used first out); ``stable_models`` works on one at a time.
REDUCER_CACHE_SIZE = 8


class _Reduction:
    """The reduct of a program for one candidate, on masks."""

    __slots__ = ("kept", "rules", "covers", "betas", "disjunctive")

    def __init__(self, kept, rules, covers, betas, disjunctive):
        self.kept: list[int] = kept  # indices of the kept rules
        self.rules: list[tuple[int, int]] = rules  # (head bits, body bits) per kept rule
        self.covers: dict[CompiledCAtom, list[int]] = covers  # bases per body c-atom met
        self.betas: dict[CompiledCAtom, int] = betas  # true part per satisfied head c-atom
        self.disjunctive: bool = disjunctive  # a kept rule keeps two head elements


class _Reducer:
    """A program ready for reducts on bit masks.

    The vocabulary bits are those of ``Program.compiled``; the bits above
    them stand for introduced atoms: bit n is ``__bot``, and the c-atom of
    index i has its ``__theta_`` atom at bit n + 1 + 2i and its ``__beta_``
    atom at bit n + 2 + 2i.  Every c-atom has bits of its own, so deciding
    stability needs no names.
    """

    def __init__(self, compiled: CompiledProgram):
        if compiled.negated_catoms:
            raise ProgramClassError(_NEGATED_CATOM)
        n = len(compiled.atoms)
        self.compiled = compiled
        self.bot = 1 << n
        self.visible = (1 << n + 1) - 1  # the vocabulary and ``__bot``
        self.theta = [1 << n + 1 + 2 * c.index for c in compiled.catoms]
        self.beta = [1 << n + 2 + 2 * c.index for c in compiled.catoms]
        self._members: dict[CompiledCAtom, list[tuple[int, int]]] = {}

    def members(self, catom: CompiledCAtom) -> list[tuple[int, int]]:
        """The (base, top) masks of the abstract-form members of ``catom``, built once."""
        members = self._members.get(catom)
        if members is None:
            bit = self.compiled.bit.__getitem__
            members = []
            for member in abstract_of(catom.catom).lattices:
                base = sum(map(bit, member.base))
                members.append((base, base | sum(map(bit, member.free))))
            self._members[catom] = members  # only once complete: readers may share it
        return members

    def covers(self, catom: CompiledCAtom, m: int) -> list[int]:
        """Bases of the abstract-form members of ``catom`` that cover ``m``.

        The list is empty exactly when ``m`` falsifies ``catom``.  The
        members are built at the first query that satisfies it; until then
        a query is answered by its solutions alone, so a c-atom that no
        query satisfies never gets an abstract form.
        """
        restricted = m & catom.domain
        if (catom not in self._members and frozenset(
                self.compiled.atoms_of(restricted)) not in catom.catom.solutions):
            return []
        return [base for base, top in self.members(catom)
                if restricted & base == base and restricted | top == top]

    def reduce(self, m: int) -> _Reduction:
        """The four transformation steps for the candidate ``m``.

        A rule is kept when ``m`` has none of its negated atoms and satisfies
        each body c-atom, that is, some abstract-form member covers ``m``.
        Its body becomes the positive atoms plus the ``__theta_`` bits; its
        head becomes the head atoms plus the ``__beta_`` bits of the
        satisfied head c-atoms, or ``__bot`` when that leaves nothing.
        """
        kept: list[int] = []
        rules: list[tuple[int, int]] = []
        covers: dict[CompiledCAtom, list[int]] = {}
        betas: dict[CompiledCAtom, int] = {}
        disjunctive = False
        theta, beta = self.theta, self.beta
        for index, (head, pos, neg, head_catoms, body_catoms, _) in enumerate(
                self.compiled.rules):
            if m & neg:
                continue
            body = pos
            for c in body_catoms:
                bases = covers.get(c)
                if bases is None:
                    bases = covers[c] = self.covers(c, m)
                if not bases:
                    break
                body |= theta[c.index]
            else:
                for c in head_catoms:
                    true = m & c.domain
                    if true in c.solutions:
                        head |= beta[c.index]
                        betas[c] = true
                if head & head - 1:
                    disjunctive = True
                kept.append(index)
                rules.append((head or self.bot, body))
        return _Reduction(kept, rules, covers, betas, disjunctive)


@lru_cache(maxsize=REDUCER_CACHE_SIZE)
def _reducer(compiled: CompiledProgram) -> _Reducer:
    return _Reducer(compiled)


def _least_fixpoint(rules: list[tuple[int, int]]) -> int:
    """Least model of definite rules ``(head bit, body bits)``."""
    derived = 0
    while True:
        waiting = []
        for head, body in rules:
            if body & derived == body:
                derived |= head
            else:
                waiting.append((head, body))
        if len(waiting) == len(rules):
            return derived
        rules = waiting


def _gamma_rules(reducer: _Reducer, reduction: _Reduction) -> list[tuple[int, int]]:
    """The defining rules of the introduced bits of the reduct.

    ``__theta_ :- base`` for each covering base of each body c-atom met,
    and ``__beta_ :-`` the true part of each satisfied head c-atom, as
    ``(bit, body bits)``; every body lies inside the candidate.  A
    ``__theta_`` bit of a dropped rule may be defined too: no kept rule
    holds it, so it derives nothing else.
    """
    rules = [(reducer.theta[c.index], base)
             for c, bases in reduction.covers.items() for base in bases]
    rules += [(reducer.beta[c.index], true) for c, true in reduction.betas.items()]
    return rules


def _definitions(reducer: _Reducer, reduction: _Reduction) -> list[tuple[int, int]]:
    """The rules of a reduct as ``(head bits, body bits)``.

    The kept rules, the ``_gamma_rules``, and per satisfied head c-atom
    ``a :- __beta_`` for each true atom a.  Its ``__bot :- a, __beta_``
    rules, one per false atom a, are left out: they fire only once an atom
    outside the candidate is derived, and no set stripping to the candidate
    holds one.
    """
    rules = reduction.rules + _gamma_rules(reducer, reduction)
    for c, true in reduction.betas.items():
        beta = reducer.beta[c.index]
        rules += [(1 << i, beta) for i in range(true.bit_length()) if true >> i & 1]
    return rules


def gl_reduct(program: Program, interpretation: Iterable[str]) -> ReductProgram:
    """Apply the four transformation steps for the given candidate.

    The steps run on masks (``_Reducer.reduce``); this renders the result
    with the introduced atom names, rule by rule in source order.  Raises
    :class:`NameCollisionError` when two distinct c-atoms of the program
    would share an introduced name, and :class:`InvariantError` when the
    result breaks ``reduct_size_bound``.
    """
    reducer = _reducer(program.compiled)
    compiled = reducer.compiled
    theta_names = {c: theta_atom(c.catom) for c in compiled.body_catoms}
    beta_names = {c: beta_atom(c.catom) for c in compiled.head_catoms}
    owners: dict[str, CAtom] = {}
    for role in (theta_names, beta_names):
        for c, name in role.items():
            claim_name(owners, name, c.catom)
    m = compiled.mask(a for a in frozenset(interpretation) if a in compiled.bit)
    reduction = reducer.reduce(m)
    atoms_of = compiled.atoms_of
    emitted: list[ReductRule] = []
    gamma: set[str] = set()

    for index in reduction.kept:
        rule = program.rules[index]
        _, _, _, heads, bodies, _ = compiled.rules[index]
        head_catoms, body_catoms = iter(heads), iter(bodies)
        blocks: list[list[ReductRule]] = []
        body: list[str] = []
        for lit in rule.body:
            if lit.is_atom:
                if lit.positive:
                    body.append(lit.item)
                # Satisfied negative literals simply vanish.
                continue
            c = next(body_catoms)
            name = theta_names[c]
            body.append(name)
            if name not in gamma:
                gamma.add(name)
                bases = sorted({atoms_of(base) for base in reduction.covers[c]})
                blocks.append([ReductRule((name,), base) for base in bases])
        head: list[str] = []
        for element in rule.head:
            if isinstance(element, str):
                head.append(element)
                continue
            c = next(head_catoms)
            true = reduction.betas.get(c)
            if true is None:
                head.append(BOT)
                continue
            name = beta_names[c]
            head.append(name)
            if name not in gamma:
                gamma.add(name)
                true_part = atoms_of(true)
                defs = [ReductRule((atom,), (name,)) for atom in true_part]
                defs += [ReductRule((BOT,), (atom, name))
                         for atom in atoms_of(c.domain & ~m)]
                defs.append(ReductRule((name,), true_part))
                blocks.append(defs)
        if len(head) > 1:
            # The false atom cannot decide a disjunction; drop it unless alone.
            head = [h for h in dict.fromkeys(head) if h != BOT] or [BOT]
        emitted.append(ReductRule(tuple(head), tuple(body)))
        for block in blocks:
            emitted.extend(block)

    result = ReductProgram(tuple(emitted), frozenset(gamma))
    bound = reduct_size_bound(program)
    if len(result.rules) > bound:
        raise InvariantError(
            f"the reduct has {len(result.rules)} rules, above its size bound of {bound}")
    return result


def reduct_size_bound(program: Program) -> int:
    """Rule-count bound for any reduct of the program.

    One transformed rule per source rule, plus per distinct c-atom at most
    its sublattice count (body role) and domain size plus one (head role).
    Only body c-atoms are given an abstract form.
    """
    catoms = program.compiled.catoms
    if not catoms:
        return len(program.rules)
    body = program.compiled.body_catoms + program.compiled.negated_catoms
    widest = max((len(abstract_of(c.catom).lattices) for c in body), default=0)
    largest = max(len(c.catom.domain) for c in catoms)
    return len(program.rules) + len(catoms) * (widest + largest + 1)


def least_model(reduct: ReductProgram) -> frozenset[str]:
    """The least model of a non-disjunctive positive program."""
    if not reduct.is_normal:
        raise ProgramClassError("the least model requires single-atom heads")
    atoms = tuple(reduct.atoms)
    derived = _least_fixpoint(_compile(reduct, atoms))
    return frozenset(a for i, a in enumerate(atoms) if derived >> i & 1)


def _compile(reduct: ReductProgram, atoms: Sequence[str]) -> list[tuple[int, int]]:
    """Rules as (head, body) bit masks, atom ``atoms[i]`` at bit i.

    ``atoms`` holds every atom of the reduct; an atom may repeat in a rule.
    """
    bit = {a: 1 << i for i, a in enumerate(atoms)}
    compiled = []
    for rule in reduct.rules:
        head = body = 0
        for a in rule.head:
            head |= bit[a]
        for a in rule.body:
            body |= bit[a]
        compiled.append((head, body))
    return compiled


def _is_model_mask(mask: int, compiled: list[tuple[int, int]]) -> bool:
    return all(body & mask != body or head & mask for head, body in compiled)


def minimal_models(reduct: ReductProgram) -> tuple[frozenset[str], ...]:
    """All subset-minimal models, enumerated over the program's atoms.

    Sets are tried by increasing size, and a set containing a model already
    found is skipped, since that model sits inside it.
    """
    atoms = sorted(reduct.atoms)
    check_guard("minimal_models", len(atoms))
    compiled = _compile(reduct, atoms)
    found: list[int] = []
    for size in range(len(atoms) + 1):
        for combo in combinations(range(len(atoms)), size):
            mask = sum(1 << i for i in combo)
            if any(prior & mask == prior for prior in found):
                continue
            if _is_model_mask(mask, compiled):
                found.append(mask)
    models = [frozenset(atoms[i] for i in range(len(atoms)) if mask >> i & 1)
              for mask in found]
    return tuple(sorted(models, key=set_key))


def _has_minimal_witness(reducer: _Reducer, reduction: _Reduction, m: int) -> bool:
    """Is ``m | gamma`` a minimal model of the reduct?

    Gamma is the introduced bits of the kept rules.  Each has defining rules
    with bodies inside ``m`` (``_gamma_rules``), so every model holding ``m``
    holds gamma, and ``m | gamma`` is the only possible witness.  A smaller
    minimal model has a visible part V, a proper subset of ``m``, and its
    gamma part is def(V), the bits with a defining body inside V: a
    ``__theta_`` bit that no base in V forces heads no other rule, so it can
    be dropped, and ``a :- __beta_`` puts the true part of a ``__beta_`` bit
    into V.  So ``m`` is stable iff ``V | def(V)`` is a model for V = ``m``
    and for no proper subset V of ``m``: at most ``2**|m|`` model tests,
    which is what the ``minimal_models`` guard counts.  These sets satisfy
    the defining rules and ``a :- __beta_`` by construction, so only the
    kept rules are tested, as they are: a rule whose body leaves ``m |
    gamma`` never fires on a set inside it, a head atom outside it is in no
    tested set, and a ``__theta_`` bit in def(V) that no kept body holds is
    in no kept rule, so it changes no test.
    """
    check_guard("minimal_models", m.bit_count())
    defining = _gamma_rules(reducer, reduction)
    sub = m
    while True:
        closed = sub
        for bit, body in defining:
            if body & sub == body:
                closed |= bit
        if _is_model_mask(closed, reduction.rules) != (sub == m):
            return False  # m | gamma is not a model, or not a minimal one
        if not sub:
            return True
        sub = (sub - 1) & m


def is_stable(program: Program, interpretation: Iterable[str]) -> bool:
    """Does the candidate reproduce itself through its reduct?

    This decides one candidate, for the ``check`` command and the golden
    checks, and is the reference for ``stable_models``, which decides all
    candidates at once.  A candidate with an atom outside the
    vocabulary is not stable.  The reduct is computed and decided on masks,
    with no introduced names.  A normal one is decided by its least model, a
    disjunctive one by its only possible witness, ``candidate | gamma``
    (``_has_minimal_witness``), in at most ``2**|candidate|`` model tests.
    A ``GuardError`` is raised before that scan when ``|candidate|`` exceeds
    the ``minimal_models`` guard.
    """
    reducer = _reducer(program.compiled)
    try:
        m = reducer.compiled.mask(frozenset(interpretation))
    except KeyError:
        return False  # no set of reduct atoms strips to the candidate
    reduction = reducer.reduce(m)
    if reduction.disjunctive:
        return _has_minimal_witness(reducer, reduction, m)
    return _least_fixpoint(_definitions(reducer, reduction)) & reducer.visible == m


def stable_models(program: Program) -> tuple[frozenset[str], ...]:
    """All stable models, decided for every candidate at once.

    Vocabularies beyond the ``stable_language`` guard raise ``GuardError``
    before any bitset is built; negated c-atoms raise before any candidate
    is tried, models or not.  Every subset of the vocabulary is a bit of
    one integer (``CandidateBits``), and the reduct's least fixpoint runs
    on those integers for all models at once (``_normal_stable_bits``).  A
    model whose reduct keeps a rule with two head elements is decided alone,
    by ``_has_minimal_witness`` on its reduct, as ``is_stable`` does.
    """
    check_guard("stable_language", len(program.language))
    reducer = _reducer(program.compiled)  # rejects negated c-atoms
    space = CandidateBits(reducer.compiled)
    models = space.models()
    stable, disjunctive = _normal_stable_bits(reducer, space, models)
    out = list(space.sets(stable))
    for k in space.indices(models & disjunctive):
        m = space.mask(k)
        if _has_minimal_witness(reducer, reducer.reduce(m), m):
            out.append(frozenset(reducer.compiled.atoms_of(m)))
    return tuple(sorted(out, key=set_key))


def _normal_stable_bits(reducer: _Reducer, space: CandidateBits, models: int) -> tuple[int, int]:
    """The models stable through a normal reduct, and those with a disjunctive one.

    A rule is kept by the candidates with none of its negated atoms that
    satisfy each body c-atom.  Its active head elements are its head atoms
    and its satisfied head c-atoms: two or more make the reduct
    disjunctive, none make the head ``__bot``.  Bitset ``derived[i]`` holds
    the candidates whose reduct derives atom i so far, and ``derived[n]``
    those that derive ``__bot``.  A body c-atom is derived once some base of
    a member that covers the candidate is derived: per distinct base, one
    coverage bitset ANDed with the derived bitsets of its atoms.  A head
    c-atom that is the only active element derives the candidate's true
    part of its domain.  Candidates do not interact, so what a rule derives
    for a disjunctive candidate is harmless; such candidates are dropped at
    the end.  The ``__bot :- a, __beta_`` rules are left out, as in
    ``_definitions``.  A candidate is stable when it derives itself and
    not ``__bot``.
    """
    n, satisfied, holds = space.n, space.satisfied, space.holds
    disjunctive = 0
    rules = []  # (kept, positive body atoms, body c-atoms, [(target, mask or None)])
    for head, pos, neg, heads, body, _ in space.compiled.rules:
        kept = models & space.cubes([(0, neg)])
        for c in body:
            kept &= satisfied(c)
        if not kept:
            continue
        atoms = [i for i in range(n) if head >> i & 1]
        positive = [i for i in range(n) if pos >> i & 1]
        heads = tuple(dict.fromkeys(heads))
        one = two = 0  # candidates satisfying at least one, two head c-atoms
        for c in heads:
            two |= one & satisfied(c)
            one |= satisfied(c)
        if len(atoms) > 1:
            disjunctive |= kept
        elif atoms:
            disjunctive |= kept & one
            rules.append((kept, positive, body, [(atoms[0], None)]))
        else:
            disjunctive |= kept & two
            rules.append((kept & ~one, positive, body, [(n, None)]))
            for c in heads:
                true = [(i, holds[i]) for i in range(n) if c.domain >> i & 1]
                rules.append((kept & satisfied(c), positive, body, true))

    covers = {}  # body c-atom -> [(base atoms, candidates a member of that base covers)]
    for c in dict.fromkeys(c for _, _, body, _ in rules for c in body):
        by_base: dict[int, list[tuple[int, int]]] = {}
        for base, top in reducer.members(c):
            by_base.setdefault(base, []).append((base, c.domain & ~top))
        covers[c] = [([i for i in range(n) if base >> i & 1], space.cubes(cubes))
                     for base, cubes in by_base.items()]

    derived = [0] * (n + 1)
    changed = True
    while changed:
        changed = False
        theta = {}
        for c, bases in covers.items():
            bits = 0
            for atoms, covered in bases:
                for i in atoms:
                    covered &= derived[i]
                bits |= covered
            theta[c] = bits
        for kept, pos, body, targets in rules:
            fired = kept
            for i in pos:
                fired &= derived[i]
            for c in body:
                fired &= theta[c]
            if not fired:
                continue
            for i, mask in targets:
                new = derived[i] | (fired if mask is None else fired & mask)
                if new != derived[i]:
                    derived[i] = new
                    changed = True

    stable = models & ~disjunctive & ~derived[n]
    for i in range(n):
        stable &= ~(derived[i] ^ holds[i])
    return stable, disjunctive


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
