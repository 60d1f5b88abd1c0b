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

The steps and the reduct's least fixpoint are written once, on bitsets of
candidates (``core.CandidateBits``): ``stable_models`` runs them on a space
of every candidate, one bit each, and ``is_stable`` and ``gl_reduct`` on a
space of one.  A normal reduct is decided by its least fixpoint.  In
``stable_models``, so is a disjunctive one, shifted with respect to its
candidate, when the program passes one head-cycle-free test.  Any other
disjunctive reduct, and every one in ``is_stable``, is decided by testing
its only possible minimal witness, one candidate at a time, at that
candidate's bit of the same reduct, against a space of the candidate's
subsets.  Introduced atoms are bits, not names; only ``gl_reduct``, which
renders a reduct, mints their names.

Every loaded program is taken as it stands: ``Program.compiled`` holds a
negated body c-atom ``not A`` as the body c-atom A's complement, so a
program answers as it does with each ``not A`` rewritten as that complement.
A body c-atom's satisfiable sets are the bases of its prime cubes that hold
the candidate.  Each ``core.CompiledCAtom`` of ``Program.compiled`` keeps
its abstract form, built once by ``abstraction.build_abstract``, so it
lives exactly as long as the compiled program: a space of one candidate
looks up one base per free set (``AbstractCAtom.covering``), and a space of
every candidate reads the primes' tables by base (``AbstractCAtom.tables``).

A rendered reduct is an ordinary ``Program`` plus ``gamma``, printed by
``parser.format_program``.  ``least_model`` and ``minimal_models`` decide
any program of their class on its own ``Program.compiled`` masks:
``least_model`` runs the fixpoint on them, and ``minimal_models`` keeps
the models of its ``CandidateBits`` that strictly hold no other model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Container, Iterable

from .core import (
    CAtom,
    CandidateBits,
    CompiledCAtom,
    CompiledProgram,
    FALSE_CATOM,
    Literal,
    Program,
    Rule,
    indices,
    set_bits,
)
from .errors import InvariantError, NameCollisionError, ProgramClassError, check_guard

#: The false atom produced for falsified head constraints.
BOT = "__bot"


def theta_atom(catom: CAtom) -> str:
    """The body-replacement atom; identical c-atoms share one name."""
    return "__theta_" + catom.digest


def beta_atom(catom: CAtom) -> str:
    """The head-replacement atom; identical c-atoms share one name."""
    return "__beta_" + catom.digest


@dataclass(frozen=True)
class ReductProgram(Program):
    """A positive ordinary program plus the introduced atoms it names."""

    gamma: frozenset[str] = frozenset()


def claim_name(owners: dict[str, CAtom], name: str, catom: CAtom,
               vocabulary: Container[str]) -> None:
    """Record ``catom`` as the owner of ``name``, introduced into a program of ``vocabulary``.

    Raises :class:`NameCollisionError` when the program has an atom ``name``
    or a distinct c-atom owns it already.
    """
    if name in vocabulary:
        raise NameCollisionError(f"the introduced atom {name} is an atom of the program")
    if owners.setdefault(name, catom) != catom:
        raise NameCollisionError(
            f"distinct constraint atoms over {{{', '.join(sorted(catom.domain))}}} and "
            f"{{{', '.join(sorted(owners[name].domain))}}} both map to {name}")


class _Reduct:
    """The four transformation steps for every candidate of ``space`` at once.

    A rule is kept by the candidates with none of its negated atoms that
    satisfy each body c-atom.  ``rules`` holds ``(index, kept, head, pos,
    body, heads)`` per rule some candidate keeps: its index in the program,
    the candidates keeping it, its head-atom and positive-body masks, its
    body c-atoms, and its distinct head c-atoms paired with the candidates
    satisfying each.  The active head elements of a kept rule are its head
    atoms and its satisfied head c-atoms; ``disjunctive`` holds the
    candidates for which some kept rule has two.
    ``covers`` maps each body c-atom of a kept rule to ``(base, base atom
    indices, candidates a prime of that base covers)`` per distinct base
    covering some candidate.  A space of every candidate splits each base's
    table of the subsets its primes hold (``AbstractCAtom.tables``,
    ``CandidateBits.split``); a space of one candidate reads only the primes
    that hold it (``AbstractCAtom.covering``).  So a body c-atom that every
    candidate falsifies, or that sits only in rules no candidate keeps,
    never gets its prime cubes.
    """

    def __init__(self, space: CandidateBits, candidates: int):
        self.space = space
        satisfied = space.satisfied
        self.rules: list[tuple[int, int, int, int, tuple, tuple]] = []
        self.disjunctive = 0
        for index, (head, pos, neg, heads, body) in enumerate(space.compiled.rules):
            kept = candidates & space.cubes([(0, neg)]) if neg else candidates
            for c in body:
                kept &= satisfied(c)
            if not kept:
                continue
            if heads:
                heads = tuple((c, satisfied(c)) for c in dict.fromkeys(heads))
                one = two = 0  # candidates satisfying at least one, two head c-atoms
                for _, bits in heads:
                    two |= one & bits
                    one |= bits
                self.disjunctive |= kept & (one if head else two)
            if head & head - 1:
                self.disjunctive |= kept
            self.rules.append((index, kept, head, pos, body, heads))
        self.covers: dict[CompiledCAtom, list[tuple[int, list[int], int]]] = {}
        point = space.point
        for c in dict.fromkeys(c for rule in self.rules for c in rule[4]):
            if point is None:
                covers = [(c.lift(base), space.split(c, table))
                          for base, table in c.abstract.tables.items()]
                self.covers[c] = [(base, indices(base), bits) for base, bits in covers if bits]
            else:
                bases = dict.fromkeys(b for b, _ in c.abstract.covering(c.position(point)))
                self.covers[c] = [(base, indices(base), 1) for base in map(c.lift, bases)]


def _head_cycle_free(compiled: CompiledProgram) -> bool:
    """Is every reduct of the program head-cycle-free?

    The test runs on one graph that holds every reduct's positive
    dependency graph, with each ``__theta_`` atom contracted into its
    c-atom's domain: each head element (an atom, or a head c-atom's
    ``__beta_`` node) depends on the rule's positive body atoms and on the
    whole domain of each body c-atom, and a ``__beta_`` node and its domain
    depend on each other.  The program passes when no rule has two head
    elements in one strongly connected component.
    """
    n = len(compiled.atoms)
    beta = {c: 1 << n + j for j, c in enumerate(compiled.head_catoms)}
    reach = [0] * (n + len(beta))  # per node, the nodes it depends on
    elements = []
    for head, pos, _, heads, body in compiled.rules:
        nodes = head | sum(beta[c] for c in set(heads))
        for c in body:
            pos |= c.domain
        for i in indices(nodes):
            reach[i] |= pos
        elements.append(indices(nodes))
    for c, node in beta.items():
        reach[node.bit_length() - 1] |= c.domain
        for i in indices(c.domain):
            reach[i] |= node
    for k in range(len(reach)):  # Warshall's closure, one node at a time
        for i, found in enumerate(reach):
            if found >> k & 1:
                reach[i] |= reach[k]
    return not any(reach[a] >> b & 1 and reach[b] >> a & 1
                   for nodes in elements for a in nodes for b in nodes if a < b)


def _stable_bits(reduct: _Reduct, candidates: int) -> int:
    """The candidates of ``candidates`` that their shifted reduct derives exactly.

    Bitset ``derived[i]`` holds the candidates whose reduct derives atom i
    so far, and ``derived[n]`` those that derive ``__bot``.  The reduct is
    shifted with respect to each candidate's witness ``m | gamma``
    (:func:`_has_minimal_witness`): a kept rule derives a head atom for the
    candidates that hold none of its other head atoms and satisfy none of
    its head c-atoms, and, per satisfied head c-atom, the candidate's true
    part of its domain for those that hold none of its head atoms and
    satisfy none of its other head c-atoms.  A rule with no head atom
    derives ``__bot`` where no head c-atom is satisfied.  A normal reduct
    is its own shift.  A head-cycle-free positive program has the witness
    as a minimal model iff the witness is the least model of the program
    shifted with respect to it (Ben-Eliyahu & Dechter, AMAI 1994), so a
    disjunctive candidate belongs in ``candidates`` only when the program
    passes :func:`_head_cycle_free`.

    A body c-atom is derived once some base of a member that covers the
    candidate is derived: per distinct base, its coverage bitset ANDed
    with the derived bitsets of its atoms.  Candidates do not interact.
    The ``__bot :- a, __beta_`` rules are left out: they fire only once an
    atom outside the candidate is derived, which already rules it out.  A
    candidate is stable when it derives itself and not ``__bot``.
    """
    space = reduct.space
    n, holds = space.n, space.holds
    rules = []  # (firing candidates, positive body atoms, body c-atoms, [(target, mask or None)])
    for _, kept, head, pos, body, heads in reduct.rules:
        kept &= candidates
        positive = indices(pos)
        if not heads and not head & head - 1:
            rules.append((kept, positive, body, [(head.bit_length() - 1, None)]))
            continue
        atoms = indices(head)
        one = two = 0  # candidates holding at least one, two head elements
        for bits in [holds[i] for i in atoms] + [bits for _, bits in heads]:
            two |= one & bits
            one |= bits
        alone = kept & ~two
        rules += [(alone & (holds[i] | ~one), positive, body, [(i, None)]) for i in atoms]
        rules += [(alone & bits, positive, body, [(i, holds[i]) for i in indices(c.domain)])
                  for c, bits in heads]
        if not head:
            rules.append((kept & ~one, positive, body, [(n, None)]))
    rules = [rule for rule in rules if rule[0]]

    derived = [0] * (n + 1)
    changed = True
    while changed:
        changed = False
        theta = {}
        for c, bases in reduct.covers.items():
            bits = 0
            for _, atoms, covered in bases:
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

    stable = candidates & ~derived[n]
    for i in range(n):
        stable &= ~(derived[i] ^ holds[i])
    return stable


def gl_reduct(program: Program, interpretation: Iterable[str]) -> ReductProgram:
    """Apply the four transformation steps for the given candidate.

    The steps run on masks (``_Reduct`` over a one-candidate space); this
    renders the result with the introduced atom names, rule by rule in
    source order.  Raises :class:`NameCollisionError` when two distinct
    c-atoms of the program would share an introduced name or a name it
    introduces is an atom of the program, and
    :class:`InvariantError` when the result breaks the size bound, taken
    over the body c-atoms of the kept rules alone (``_size_bound``), whose
    abstract forms the reduct has read already.
    """
    compiled = program.compiled
    theta_names = {c: theta_atom(c.catom) for c in compiled.body_catoms}
    beta_names = {c: beta_atom(c.catom) for c in compiled.head_catoms}
    owners: dict[str, CAtom] = {}
    for role in (theta_names, beta_names):
        for c, name in role.items():
            claim_name(owners, name, c.catom, compiled.bit)
    if compiled.head_catoms:
        claim_name(owners, BOT, FALSE_CATOM, compiled.bit)
    m = compiled.mask(a for a in frozenset(interpretation) if a in compiled.bit)
    space = CandidateBits(compiled, m)
    reduct = _Reduct(space, space.full)
    atoms_of = compiled.atoms_of
    emitted: list[Rule] = []
    gamma: set[str] = set()

    def positive(head, body) -> Rule:
        return Rule(head, tuple(map(Literal.atom, body)))

    for index, *_ in reduct.rules:
        rule = program.rules[index]
        _, _, _, heads, bodies = compiled.rules[index]
        head_catoms, body_catoms = iter(heads), iter(bodies)
        blocks: list[list[Rule]] = []
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
                bases = sorted(atoms_of(base) for base, _, _ in reduct.covers[c])
                blocks.append([positive((name,), base) for base in bases])
        head: list[str] = []
        for element in rule.head:
            if isinstance(element, str):
                head.append(element)
                continue
            c = next(head_catoms)
            if not space.satisfied(c):
                head.append(BOT)
                continue
            name = beta_names[c]
            head.append(name)
            if name not in gamma:
                gamma.add(name)
                true_part = atoms_of(m & c.domain)
                defs = [positive((atom,), (name,)) for atom in true_part]
                defs += [positive((BOT,), (atom, name))
                         for atom in atoms_of(c.domain & ~m)]
                defs.append(positive((name,), true_part))
                blocks.append(defs)
        if len(head) > 1:
            # The false atom cannot decide a disjunction; drop it unless alone.
            head = [h for h in dict.fromkeys(head) if h != BOT] or [BOT]
        emitted.append(positive(head, body))
        for block in blocks:
            emitted.extend(block)

    result = ReductProgram(tuple(emitted), gamma=frozenset(gamma))
    bound = _size_bound(program, reduct.covers)
    if len(result.rules) > bound:
        raise InvariantError(
            f"the reduct has {len(result.rules)} rules, above its size bound of {bound}")
    return result


def reduct_size_bound(program: Program) -> int:
    """Rule-count bound for any reduct of the program.

    One transformed rule per source rule, plus per distinct c-atom at most
    its prime-cube count (body role) and domain size plus one (head role).
    Only body c-atoms get abstract forms (``not A`` is compiled as A's
    complement); they are kept on ``program.compiled``, so its reducts
    share them.
    """
    return _size_bound(program, program.compiled.body_catoms)


def _size_bound(program: Program, body: Iterable[CompiledCAtom]) -> int:
    """``reduct_size_bound``'s formula, its widest abstract form taken over ``body``."""
    compiled = program.compiled
    if not compiled.catoms:
        return len(program.rules)
    widest = max((len(c.abstract.primes) for c in body), default=0)
    largest = max(len(c.catom.domain) for c in compiled.catoms)
    return len(program.rules) + len(compiled.catoms) * (widest + largest + 1)


def least_model(program: Program) -> frozenset[str]:
    """The least model of a positive program with one head atom per rule.

    Any other program (a disjunctive head, a negated atom, a c-atom) raises
    :class:`ProgramClassError`.
    """
    compiled = program.compiled
    if any(head.bit_count() != 1 or neg or heads or body
           for head, _, neg, heads, body in compiled.rules):
        raise ProgramClassError(
            "the least model requires single-atom heads and positive atom bodies")
    rules = [(head, pos) for head, pos, *_ in compiled.rules]
    derived = 0
    while True:
        waiting = []
        for head, body in rules:
            if body & derived == body:
                derived |= head
            else:
                waiting.append((head, body))
        if len(waiting) == len(rules):
            break
        rules = waiting
    return frozenset(compiled.atoms_of(derived))


def minimal_models(program: Program) -> tuple[frozenset[str], ...]:
    """All subset-minimal models, decided over every set of the program's language at once.

    The models are one ``CandidateBits`` integer, declared atoms included.
    A model is minimal when it strictly holds no other model: the sets one
    atom above some model, closed upwards atom by atom, are exactly those,
    and are dropped.
    """
    check_guard("minimal_models", len(program.language))
    space = CandidateBits(program.compiled)
    models = space.models()
    n = space.n
    # Candidate k + 2**(n-1-i) holds atom i iff k does not: then it is k plus i.
    shifts = [(held, 1 << n - 1 - i) for i, held in enumerate(space.holds)]
    above = 0
    for held, shift in shifts:
        above |= models << shift & held
    for held, shift in shifts:
        above |= above << shift & held
    return tuple(map(frozenset, sorted(space.tuples(models & ~above))))


def _columns(reduct: _Reduct) -> tuple[list, dict]:
    """``reduct.rules`` and ``reduct.covers`` with each candidate set as bytes.

    Bit k of a set is bit ``k & 7`` of byte ``k >> 3``, so reading one
    candidate's bit copies no ``2**n``-bit integer, as ``x >> k`` does.
    """
    size = (reduct.space.full.bit_length() + 7) // 8

    def column(bits: int) -> bytes:
        return bits.to_bytes(size, "little")

    rules = [(index, column(kept), head, pos, body, [(c, column(bits)) for c, bits in heads])
             for index, kept, head, pos, body, heads in reduct.rules]
    covers = {c: [(base, atoms, column(covered)) for base, atoms, covered in bases]
              for c, bases in reduct.covers.items()}
    return rules, covers


def _has_minimal_witness(compiled: CompiledProgram, rules: list, covers: dict, m: int,
                         holds: Callable[[int | bytes], int]) -> bool:
    """Is ``m | gamma`` a minimal model of the reduct of ``m``?

    ``rules`` and ``covers`` are those of a reduct (``_Reduct``, or its
    :func:`_columns`) in which ``holds`` tells whether a candidate set
    holds ``m``.  That reduct is its kept rules plus the defining rules of
    gamma: ``__theta_ :- base`` for each base covering ``m`` of each body
    c-atom, and ``__beta_ :-`` the true part of each satisfied head c-atom,
    with ``a :- __beta_`` for each atom of that part.

    Each introduced atom has defining rules with bodies inside ``m``, so
    every model holding ``m`` holds gamma, and ``m | gamma`` is the only
    possible witness.  A smaller minimal model has a visible part V, a
    proper subset of ``m``, and its gamma part is def(V), the introduced
    atoms with a defining body inside V: a ``__theta_`` atom that no base
    in V forces heads no other rule, so it can be dropped, and ``a :-
    __beta_`` puts the true part of a ``__beta_`` atom into V.  So ``m`` is
    stable iff ``V | def(V)`` is a model for V = ``m`` and for no proper
    subset V of ``m``.

    The subsets of ``m`` are one ``CandidateBits`` space, which the
    ``minimal_models`` guard bounds before it is built.  There a body
    c-atom's ``__theta_`` holds on the cubes of its bases, a ``__beta_``
    on the cube of its true part, and a kept rule is violated where its
    positive atoms and ``__theta_`` atoms hold and no head atom or
    ``__beta_`` atom does (``__bot`` never holds).  These sets satisfy the
    defining rules and ``a :- __beta_`` by construction, so only the kept
    rules are tested.  ``m`` is stable iff the models are the top bit alone.
    """
    check_guard("minimal_models", m.bit_count())
    space = CandidateBits(compiled, within=m)
    theta = {c: space.cubes([(base, 0) for base, _, covered in bases if holds(covered)])
             for c, bases in covers.items()}
    violated = 0
    for _, kept, head, pos, body, heads in rules:
        if not holds(kept):
            continue
        bits = space.cubes([(pos, head)])
        for c in body:
            bits &= theta[c]
        for c, satisfied in heads:
            if holds(satisfied):
                bits &= ~space.cubes([(m & c.domain, 0)])
        violated |= bits
    return space.full ^ violated == space.full + 1 >> 1


def is_stable(program: Program, interpretation: Iterable[str]) -> bool:
    """Does the candidate reproduce itself through its reduct?

    This decides one candidate, for the ``check`` command and the golden
    checks, on the code ``stable_models`` runs for all candidates, over a
    space of this candidate alone, so no ``2**n``-bit integer is made and
    the vocabulary is not guarded.  A candidate with an atom outside the
    vocabulary is not stable.  The reduct is computed and decided on masks,
    with no introduced names.  A normal one is decided by its least
    fixpoint (``_stable_bits``).  A disjunctive one is decided by its only
    possible witness, ``candidate | gamma`` (``_has_minimal_witness``),
    against every subset of the candidate at once, head-cycle-free or not,
    so this route and the shifted one of ``stable_models`` check each
    other.  A ``GuardError`` is raised before that space is built when
    ``|candidate|`` exceeds the ``minimal_models`` guard.
    """
    compiled = program.compiled
    try:
        m = compiled.mask(frozenset(interpretation))
    except KeyError:
        return False  # no set of reduct atoms strips to the candidate
    space = CandidateBits(compiled, m)
    reduct = _Reduct(space, space.full)
    if reduct.disjunctive:
        return _has_minimal_witness(compiled, reduct.rules, reduct.covers, m, bool)
    return bool(_stable_bits(reduct, space.full))


def stable_models(program: Program) -> tuple[frozenset[str], ...]:
    """All stable models, decided for every candidate at once.

    Vocabularies beyond the ``stable_language`` guard raise ``GuardError``
    before any bitset is built.  Every subset of the vocabulary is a bit of
    one integer (``CandidateBits``), and the reduct and its least fixpoint
    run on those integers for all models at once (``_Reduct``,
    ``_stable_bits``).  A model whose reduct keeps a rule with two head
    elements is disjunctive.  When the program is head-cycle-free
    (``_head_cycle_free``, one test per program), the shifted least
    fixpoint decides the disjunctive models with the others.  Otherwise
    each is decided alone, by ``_has_minimal_witness`` at its bit of the
    same reduct, read from byte columns made once (``_columns``), as
    ``is_stable`` does at the one bit of its own.
    """
    check_guard("stable_language", len(program.language))
    compiled = program.compiled
    space = CandidateBits(compiled)
    models = space.models()
    reduct = _Reduct(space, models)
    alone = reduct.disjunctive
    if alone and _head_cycle_free(compiled):
        alone = 0
    found = space.tuples(_stable_bits(reduct, models & ~alone))
    rules, covers = _columns(reduct) if alone else ([], {})
    for k in set_bits(alone):
        byte, bit = k >> 3, 1 << (k & 7)
        m = space.mask(k)
        if _has_minimal_witness(compiled, rules, covers, m, lambda x: x[byte] & bit):
            found.append(compiled.atoms_of(m))
    return tuple(map(frozenset, sorted(found)))


def reduct_json(reduct: ReductProgram) -> dict:
    """JSON-ready structure for audit output."""
    return {
        "rules": [{"head": list(r.head), "body": [b.item for b in r.body]} for r in reduct.rules],
        "gamma": sorted(reduct.gamma),
    }
