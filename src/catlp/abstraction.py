"""Compact lattice form of constraint atoms.

The explicit solution family of a constraint atom is rewritten as the
redundancy-free collection of maximal power-set sublattices whose elements are
all admissible.  Each sublattice is stored as its bottom (``base``) together
with the atoms that may be added freely (``free``).  The collection is unique,
determines satisfaction, exposes monotonicity properties syntactically, and
yields the minimal disjunctive normal form of the atom: one disjunct per
sublattice, its base positive and ``not`` each domain atom outside its top,
which ``analysis.translate_normal`` emits as the bodies of the c-atom's
``__theta_`` defining rules.

The sublattices are the prime cubes of the family, computed by one
bit-parallel kernel on its truth table (:func:`prime_cubes`), as integer
masks over the sorted domain.  :func:`checked_primes` tests them with
:func:`check_irredundant` and puts them in canonical order; every route
takes them from there.  The translation and the CLI's ``abstract`` command
read the masks directly.  An :class:`AbstractCAtom` (:func:`build_abstract`)
stores only them and its sorted domain; the reduct and the helpers here read
its masks, and only its ``lattices`` view renders :class:`PrefixedPowerSet` objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache, partial, reduce
from operator import or_
from typing import Iterable

from .core import CAtom, bit_pattern, indices, select, set_bits
from .errors import check_guard

#: ``abstract_of`` keeps at most this many abstract forms (least recently used
#: first out) for library callers; the reduct keeps its own on ``Program.compiled``.
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


@dataclass(frozen=True)
class AbstractCAtom:
    """The redundancy-free collection of maximal sublattices of a c-atom.

    Stored as the sorted domain ``atoms`` and the prime cubes ``primes``, masks
    ``(base, free)`` over it in the order :func:`checked_primes` gives; the rest are views.
    """

    atoms: tuple[str, ...]
    primes: tuple[tuple[int, int], ...]

    def __init__(self, domain: Iterable[str], lattices: Iterable[PrefixedPowerSet]):
        object.__setattr__(self, "atoms", tuple(sorted(frozenset(domain))))
        lattices = tuple(lattices)
        if any(not m.top <= self.domain for m in lattices):
            raise ValueError("sublattice atoms must come from the domain")
        cubes = {(self.position(m.base), self.position(m.free)) for m in lattices}
        check_irredundant(cubes)
        object.__setattr__(self, "primes", tuple(sorted(cubes, key=lambda c: [*map(indices, c)])))

    @classmethod
    def from_primes(cls, atoms: tuple[str, ...], primes: list[tuple[int, int]]):
        """The form of what :func:`checked_primes` returns, which is not checked again."""
        abstract = object.__new__(cls)
        vars(abstract).update(atoms=atoms, primes=tuple(primes))
        return abstract

    @cached_property
    def domain(self) -> frozenset[str]:
        return frozenset(self.atoms)

    @cached_property
    def lattices(self) -> frozenset[PrefixedPowerSet]:
        """The sublattices as objects, for callers, ``selftest`` and the test oracles."""
        return frozenset(PrefixedPowerSet(select(self.atoms, b), select(self.atoms, f))
                         for b, f in self.primes)

    def position(self, interpretation: Iterable[str]) -> int:
        """The table index of the interpretation's part of the domain."""
        return sum(1 << self.atoms.index(a) for a in self.domain.intersection(interpretation))

    @cached_property
    def _bases(self) -> dict[int, set[int]]:
        """The bases of the prime cubes by free set."""
        bases: dict[int, set[int]] = {}
        for base, free in self.primes:
            bases.setdefault(free, set()).add(base)
        return bases

    def covering(self, x: int) -> list[tuple[int, int]]:
        """The prime cubes holding table index x: (x & ~F, F) per free set F, one lookup each."""
        return [(x & ~free, free) for free, bases in self._bases.items() if x & ~free in bases]

    @cached_property
    def tables(self) -> dict[int, int]:
        """Per distinct base, the truth table of the subsets its prime cubes hold."""
        tables: dict[int, int] = {}
        for free, bases in self._bases.items():
            cube = 1  # the subsets of the free set; a prime holds them shifted by its base
            for j in indices(free):
                cube |= cube << (1 << j)
            for base in bases:
                tables[base] = tables.get(base, 0) | cube << base
        return tables


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
    in canonical order: by sorted base atoms, then sorted free atoms.
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
    computed on a truth table by :func:`checked_primes`, which checks them
    and puts them in canonical order, so the form keeps them as they are.
    """
    return AbstractCAtom.from_primes(*checked_primes(catom))


@lru_cache(maxsize=ABSTRACT_CACHE_SIZE)
def abstract_of(catom: CAtom) -> AbstractCAtom:
    """Memoized :func:`build_abstract`; c-atoms recur across transformations."""
    return build_abstract(catom)


def expand(abstract: AbstractCAtom) -> CAtom:
    """Back to explicit form: the OR of the per-base tables of the covered sets."""
    check_guard("abstract_domain", len(abstract.atoms))
    return CAtom.from_table(abstract.atoms, reduce(or_, abstract.tables.values(), 0))


def satisfies_abstract(interpretation: Iterable[str], abstract: AbstractCAtom) -> bool:
    """Satisfaction via covering: some sublattice covers the domain restriction."""
    return bool(abstract.covering(abstract.position(interpretation)))


def satisfiable_sets(abstract: AbstractCAtom,
                     interpretation: Iterable[str]) -> frozenset[frozenset[str]]:
    """The bases of the covering sublattices."""
    return frozenset(frozenset(select(abstract.atoms, b))
                     for b, _ in abstract.covering(abstract.position(interpretation)))


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
    """:func:`classify_cubes` on the abstract form's prime cubes."""
    return classify_cubes(len(abstract.atoms), abstract.primes)
