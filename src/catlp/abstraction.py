"""Compact lattice form of constraint atoms.

The explicit solution family of a constraint atom is rewritten as the
redundancy-free collection of maximal power-set sublattices whose elements are
all admissible.  Each sublattice is stored as its bottom (``base``) together
with the atoms that may be added freely (``free``).  The collection is unique,
determines satisfaction, exposes monotonicity properties syntactically, and
yields the minimal disjunctive normal form of the atom.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, lru_cache
from itertools import groupby, permutations
from typing import Iterable, Iterator

from .core import CAtom, iter_subsets, set_key
from .errors import check_guard

#: ``abstract_of`` keeps at most this many abstract forms (least recently
#: used first out); a whole ``analyze`` pass meets about a hundred c-atoms.
ABSTRACT_CACHE_SIZE = 256


@dataclass(frozen=True)
class PrefixedPowerSet:
    """The family ``{base | X for X <= free}``: a power-set sublattice."""

    base: frozenset[str]
    free: frozenset[str]

    def __post_init__(self):
        object.__setattr__(self, "base", frozenset(self.base))
        object.__setattr__(self, "free", frozenset(self.free))
        if self.base & self.free:
            raise ValueError("base and free atoms must be disjoint")

    @property
    def top(self) -> frozenset[str]:
        return self.base | self.free

    def covers(self, atoms: Iterable[str]) -> bool:
        """True when the given set lies between base and top."""
        s = frozenset(atoms)
        return self.base <= s <= self.top

    def covered_sets(self) -> Iterator[frozenset[str]]:
        for extra in iter_subsets(self.free):
            yield self.base | extra

    def included_in(self, other: "PrefixedPowerSet") -> bool:
        """True when every set covered here is covered by ``other``.

        Equivalent to the subset test on bounds, which avoids enumeration:
        the other base must lie within ours and our top within the other's.
        """
        return other.base <= self.base and self.top <= other.top

    def key(self) -> tuple:
        return (set_key(self.base), set_key(self.free))


@dataclass(frozen=True)
class AbstractCAtom:
    """The redundancy-free collection of maximal sublattices of a c-atom."""

    domain: frozenset[str]
    lattices: frozenset[PrefixedPowerSet]

    def __post_init__(self):
        object.__setattr__(self, "domain", frozenset(self.domain))
        object.__setattr__(self, "lattices", frozenset(self.lattices))
        # A member inside a distinct member has strictly fewer free atoms
        # (equal free sets and nested bounds force equal bases), so each
        # member is compared only with the strictly wider ones.
        wider: list[PrefixedPowerSet] = []
        by_width = sorted(self.lattices, key=lambda m: -len(m.free))
        for _, group in groupby(by_width, key=lambda m: len(m.free)):
            group = list(group)
            for member in group:
                if not member.top <= self.domain:
                    raise ValueError("sublattice atoms must come from the domain")
                if any(member.included_in(other) for other in wider):
                    raise ValueError("redundant sublattice in abstract form")
            wider.extend(group)

    def members(self) -> tuple[PrefixedPowerSet, ...]:
        """The sublattices in canonical order."""
        return tuple(sorted(self.lattices, key=PrefixedPowerSet.key))


def build_abstract(catom: CAtom) -> AbstractCAtom:
    """Compute the unique abstract form of a constraint atom.

    The maximal sublattices are the prime implicants of the solution family,
    found by Quine-McCluskey merging.  A cube ``(base, free)`` is one integer,
    ``base | free << n`` over the n sorted domain atoms.  Each level holds
    every admissible cube with the same number of free atoms, starting from
    the solutions themselves.  A cube and its neighbour ``(base ^ b, free)``
    along an atom ``b`` outside ``free`` merge into ``(base & ~b, free | b)``
    on the next level.  A cube with no neighbour in its level is maximal: any
    larger admissible cube contains a one-step extension of it, and that
    extension would have come from a neighbour.
    """
    check_guard("abstract_domain", len(catom.domain))
    atoms = sorted(catom.domain)
    n = len(atoms)
    bit = {a: 1 << i for i, a in enumerate(atoms)}
    steps = [(1 << i, 1 << (i + n)) for i in range(n)]  # (base bit, free bit)
    level = {sum(bit[a] for a in sol) for sol in catom.solutions}

    primes = []
    while level:
        merged = set()
        for cube in level:
            prime = True
            for b, f in steps:
                if not cube & f and cube ^ b in level:
                    prime = False
                    if not cube & b:  # the pair merges once, from its lower cube
                        merged.add(cube | f)
            if prime:
                primes.append(cube)
        level = merged

    # Primes share few distinct bases and free sets (2{x0..x7}4: 420 primes,
    # 28 of each), so each distinct n-bit mask becomes a set once per build.
    @cache
    def to_set(mask: int) -> frozenset[str]:
        return frozenset(a for i, a in enumerate(atoms) if mask >> i & 1)

    low = (1 << n) - 1
    lattices = frozenset(
        PrefixedPowerSet(to_set(cube & low), to_set(cube >> n)) for cube in primes)
    return AbstractCAtom(catom.domain, lattices)


@lru_cache(maxsize=ABSTRACT_CACHE_SIZE)
def abstract_of(catom: CAtom) -> AbstractCAtom:
    """Memoized :func:`build_abstract`; c-atoms recur across transformations."""
    return build_abstract(catom)


def expand(abstract: AbstractCAtom) -> CAtom:
    """Back to explicit form: the union of all covered sets."""
    check_guard("abstract_domain", len(abstract.domain))
    solutions: set[frozenset[str]] = set()
    for member in abstract.lattices:
        solutions.update(member.covered_sets())
    return CAtom(abstract.domain, frozenset(solutions))


def satisfies_abstract(interpretation: Iterable[str], abstract: AbstractCAtom) -> bool:
    """Satisfaction via covering: some sublattice covers the domain restriction."""
    restricted = frozenset(interpretation) & abstract.domain
    return any(member.covers(restricted) for member in abstract.lattices)


def abstract_satisfiable_sets(
    abstract: AbstractCAtom, interpretation: Iterable[str]
) -> frozenset[PrefixedPowerSet]:
    """The sublattices covering the domain restriction; empty iff unsatisfied."""
    restricted = frozenset(interpretation) & abstract.domain
    return frozenset(m for m in abstract.lattices if m.covers(restricted))


def satisfiable_sets(
    abstract: AbstractCAtom, interpretation: Iterable[str]
) -> frozenset[frozenset[str]]:
    """The bases of the covering sublattices."""
    return frozenset(m.base for m in abstract_satisfiable_sets(abstract, interpretation))


@dataclass(frozen=True)
class CAtomClass:
    monotone: bool
    antimonotone: bool
    convex: bool


def classify_catom(abstract: AbstractCAtom) -> CAtomClass:
    """Read the closure properties off the abstract form.

    Monotone: every sublattice spans the whole domain above its base.
    Antimonotone: every base is empty.  Convex: every member base ``b`` and
    member top ``t`` with ``b <= t`` are themselves one member's bounds.  In
    a convex family bases are minimal and tops maximal solutions, so
    ``[b, t]`` is admissible and cannot be extended: it is a member.
    Conversely, solutions ``S1 <= S3`` lie in members A and B with
    ``A.base <= B.top``, and the member ``[A.base, B.top]`` covers every set
    between them.
    """
    size = len(abstract.domain)
    members = abstract.lattices
    return CAtomClass(
        monotone=all(len(m.base) + len(m.free) == size for m in members),
        antimonotone=all(not m.base for m in members),
        convex=_is_convex(members),
    )


def _is_convex(members: frozenset[PrefixedPowerSet]) -> bool:
    bounds = {(m.base, m.top) for m in members}
    bases = {m.base for m in members}
    tops = {m.top for m in members}
    return all((b, t) in bounds for b in bases for t in tops if b <= t)


@dataclass(frozen=True)
class Disjunct:
    """One conjunction of a DNF: positive atoms plus negated atoms."""

    pos: frozenset[str]
    neg: frozenset[str]

    def __post_init__(self):
        object.__setattr__(self, "pos", frozenset(self.pos))
        object.__setattr__(self, "neg", frozenset(self.neg))
        if self.pos & self.neg:
            raise ValueError("a literal cannot be both positive and negated")

    def satisfied_by(self, interpretation: Iterable[str]) -> bool:
        model = frozenset(interpretation)
        return self.pos <= model and not (self.neg & model)

    def key(self) -> tuple:
        return (set_key(self.pos), set_key(self.neg))

    def __str__(self) -> str:
        parts = sorted(self.pos) + [f"not {a}" for a in sorted(self.neg)]
        return " & ".join(parts) if parts else "true"


@dataclass(frozen=True)
class Dnf:
    """A disjunction of conjunctions, stored sorted and deduplicated."""

    disjuncts: tuple[Disjunct, ...]

    def __post_init__(self):
        canonical = tuple(sorted(set(self.disjuncts), key=Disjunct.key))
        object.__setattr__(self, "disjuncts", canonical)

    def satisfied_by(self, interpretation: Iterable[str]) -> bool:
        model = frozenset(interpretation)
        return any(d.satisfied_by(model) for d in self.disjuncts)

    def __str__(self) -> str:
        if not self.disjuncts:
            return "false"
        return " | ".join(f"({d})" for d in self.disjuncts)


def dnf(catom: CAtom) -> Dnf:
    """One disjunct per admissible solution, all domain atoms mentioned."""
    return Dnf(tuple(
        Disjunct(sol, catom.domain - sol) for sol in catom.solutions))


def simplified_dnf(abstract: AbstractCAtom) -> Dnf:
    """One disjunct per sublattice: its base, plus negation outside its top."""
    return Dnf(tuple(
        Disjunct(m.base, abstract.domain - m.top) for m in abstract.lattices))


def is_maximally_simplified(formula: Dnf) -> bool:
    """True when no two disjuncts differ exactly by the sign of one literal.

    A pair ``S & x`` / ``S & not x`` would merge into ``S``.
    """
    for c1, c2 in permutations(formula.disjuncts, 2):
        moved = c1.pos - c2.pos
        if len(moved) == 1:
            (x,) = moved
            if c2.pos == c1.pos - {x} and c2.neg == c1.neg | {x} and x not in c1.neg:
                return False
    return True
