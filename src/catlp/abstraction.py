"""Compact lattice form of constraint atoms.

The explicit solution family of a constraint atom is rewritten as the
redundancy-free collection of maximal power-set sublattices whose elements are
all admissible.  Each sublattice is stored as its bottom (``base``) together
with the atoms that may be added freely (``free``).  The collection is unique,
determines satisfaction, exposes monotonicity properties syntactically, and
yields the minimal disjunctive normal form of the atom.

The sublattices are the prime cubes of the family, computed by one
bit-parallel kernel on its truth table (:func:`prime_cubes`), as integer
masks over the sorted domain.  :func:`checked_primes` tests them with
:func:`check_irredundant` and puts them in canonical order; every route
takes them from there.  The reduct, the ordinary translation, the
dependency graph and the CLI's ``abstract`` command read the masks
directly, and :func:`classify_cubes` classifies on them;
:func:`build_abstract` turns them into objects for library callers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, lru_cache, partial
from itertools import permutations
from typing import Iterable, Iterator

from .core import CAtom, bit_pattern, iter_subsets, select, set_bits, set_key
from .errors import check_guard

#: ``abstract_of`` keeps at most this many abstract forms (least recently
#: used first out) for library callers; no command builds abstract forms.
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
        check_irredundant(self.cubes())

    def cubes(self) -> list[tuple[int, int]]:
        """The sublattices as masks ``(base, free)``; domain atom i in sorted order is bit i."""
        bit = {a: 1 << i for i, a in enumerate(sorted(self.domain))}.__getitem__
        try:
            return [(sum(map(bit, m.base)), sum(map(bit, m.free))) for m in self.lattices]
        except KeyError:
            raise ValueError("sublattice atoms must come from the domain") from None

    def members(self) -> tuple[PrefixedPowerSet, ...]:
        """The sublattices in canonical order."""
        return tuple(sorted(self.lattices, key=PrefixedPowerSet.key))


def check_irredundant(cubes: Iterable[tuple[int, int]]) -> None:
    """Raise ``ValueError`` when a cube ``(base, free)`` lies inside a distinct one.

    ``(b, F)`` lies inside ``(b2, G)`` iff ``b2 <= b`` and ``b | F <= b2 |
    G``.  Bases are disjoint from their free sets, so this forces ``F <=
    G`` and ``b2 == b & ~G``, and ``G == F`` gives the cube itself.  So each
    cube costs one lookup per strictly wider free set of the collection.
    """
    cubes = set(cubes)
    frees = sorted({free for _, free in cubes}, key=int.bit_count)
    wider = {free: [g for g in frees[k + 1:] if g & free == free]
             for k, free in enumerate(frees)}
    for base, free in cubes:
        for g in wider[free]:
            if (base & ~g, g) in cubes:
                raise ValueError("redundant sublattice in abstract form")


def _primes(n: int, table: int) -> list[tuple[int, int]]:
    """The prime cubes ``(base, free)`` of the ``2**n``-bit truth table ``table``.

    For a free set F, bit x of ``C_F`` (with ``x & F == 0``) is set when the
    cube ``(x, F)`` is admissible: every ``x | S`` with ``S <= F`` is a
    solution.  ``C_0`` is the table, and ``C_{F|b}`` is ``C_F & C_F >> 2**b``
    on the positions whose bit b is clear: ``(x, F | b)`` is admissible iff
    ``(x, F)`` and ``(x | b, F)`` are.  The one-atom extensions of ``(x, F)``
    are ``(x & ~b, F | b)`` for b outside F, so ``(x, F)`` is prime when it
    is admissible and bit x of no ``C_{F|b} | C_{F|b} << 2**b`` is set; any
    larger admissible cube contains a one-atom extension, so these are
    exactly the maximal cubes.  Free sets are walked depth first, each grown
    only by atoms above its highest, lowest first, and a branch stops where
    ``C_F`` is 0, since ``C_{F|b}`` lies inside ``C_F``.  So free sets are
    visited, and their primes listed, in the order of their sorted atoms.
    A free set visited costs one step per atom it may grow by, and one per
    smaller atom outside it only while some cube of ``C_F`` may still be
    prime.
    """
    full = (1 << (1 << n)) - 1
    zeros = [full ^ bit_pattern(b, n) for b in range(n)]  # bit b clear
    primes: list[tuple[int, int]] = []
    stack = [(0, table, 0)] if table else []  # (free set, C_F, lowest atom to add)
    while stack:
        free, admissible, first = stack.pop()
        prime = admissible
        for b in range(n - 1, -1, -1):  # the atoms a child may add come first
            if b < first and not prime:
                break
            shift = 1 << b
            if free & shift:
                continue
            wider = admissible & admissible >> shift & zeros[b]
            if wider:
                if prime:
                    prime &= ~(wider | wider << shift)
                if b >= first:
                    stack.append((free | shift, wider, b + 1))
        if prime:
            primes.extend((base, free) for base in set_bits(prime))
    return primes


def prime_cubes(catom: CAtom) -> tuple[tuple[str, ...], list[tuple[int, int]]]:
    """The sorted domain and the maximal sublattices of ``catom`` as masks.

    Atom ``atoms[i]`` is bit i, and each sublattice is ``(base, free)``,
    listed by free set in the order of its sorted atoms.  The primes come
    from :func:`_primes` on the c-atom's truth table.
    """
    check_guard("abstract_domain", len(catom.domain))
    return catom.atoms, _primes(len(catom.atoms), catom.table)


def checked_primes(catom: CAtom) -> tuple[tuple[str, ...], list[tuple[int, int]]]:
    """The sorted domain and the maximal sublattices of ``catom``, checked.

    The cubes of :func:`prime_cubes` pass :func:`check_irredundant` and come
    in the canonical order of :meth:`AbstractCAtom.members`: by sorted base
    atoms, then sorted free atoms.
    """
    atoms, cubes = prime_cubes(catom)
    check_irredundant(cubes)
    # The kernel yields free sets in canonical order already, so only the
    # bases are sorted; primes share few of them (2{x0..x7}4: 420 primes,
    # 28 bases), so each gets its key once.
    frees: dict[int, list[int]] = {}
    for base, free in cubes:
        frees.setdefault(base, []).append(free)
    bases = sorted(frees, key=partial(select, atoms))
    return atoms, [(base, free) for base in bases for free in frees[base]]


def build_abstract(catom: CAtom) -> AbstractCAtom:
    """Compute the unique abstract form of a constraint atom.

    The maximal sublattices are the prime implicants of the solution family,
    computed on a truth table by :func:`checked_primes`.  They passed its
    redundancy check, so the form is built without the one in
    ``AbstractCAtom.__post_init__``.
    """
    atoms, cubes = checked_primes(catom)
    to_set = cache(lambda mask: frozenset(select(atoms, mask)))
    abstract = object.__new__(AbstractCAtom)
    object.__setattr__(abstract, "domain", catom.domain)
    object.__setattr__(abstract, "lattices", frozenset(
        PrefixedPowerSet(to_set(b), to_set(f)) for b, f in cubes))
    return abstract


@lru_cache(maxsize=ABSTRACT_CACHE_SIZE)
def abstract_of(catom: CAtom) -> AbstractCAtom:
    """Memoized :func:`build_abstract`; c-atoms recur across transformations."""
    return build_abstract(catom)


def expand(abstract: AbstractCAtom) -> CAtom:
    """Back to explicit form: the union of all covered sets."""
    check_guard("abstract_domain", len(abstract.domain))
    return CAtom(abstract.domain, (s for m in abstract.lattices for s in m.covered_sets()))


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


def classify_cubes(size: int, cubes: Iterable[tuple[int, int]]) -> CAtomClass:
    """Read the closure properties off the members ``(base, free)`` over ``size`` atoms.

    Monotone: every sublattice spans the whole domain above its base.
    Antimonotone: every base is empty.  Convex: every member base ``b`` and
    member top ``t`` with ``b <= t`` are themselves one member's bounds.  In
    a convex family bases are minimal and tops maximal solutions, so
    ``[b, t]`` is admissible and cannot be extended: it is a member.
    Conversely, solutions ``S1 <= S3`` lie in members A and B with
    ``A.base <= B.top``, and the member ``[A.base, B.top]`` covers every set
    between them.
    """
    domain = (1 << size) - 1
    bounds = {(base, base | free) for base, free in cubes}
    bases = {b for b, _ in bounds}
    tops = {t for _, t in bounds}
    return CAtomClass(
        monotone=all(t == domain for t in tops),
        antimonotone=not any(bases),
        convex=all((b, t) in bounds for b in bases for t in tops if b & t == b),
    )


def classify_catom(abstract: AbstractCAtom) -> CAtomClass:
    """:func:`classify_cubes` on the abstract form's members."""
    return classify_cubes(len(abstract.domain), abstract.cubes())


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
    """One disjunct per set bit x of the table: x's atoms, and the rest negated."""
    full = (1 << len(catom.atoms)) - 1
    return Dnf(tuple(
        Disjunct(select(catom.atoms, x), select(catom.atoms, full ^ x))
        for x in set_bits(catom.table)))


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
