"""Compact lattice form of constraint atoms.

The explicit solution family of a constraint atom is rewritten as the
redundancy-free collection of maximal power-set sublattices whose elements are
all admissible.  Each sublattice is stored as its bottom (``base``) together
with the atoms that may be added freely (``free``).  The collection is unique,
determines satisfaction, and yields the minimal disjunctive normal form of
the atom: one disjunct per sublattice, its base positive and ``not`` each
domain atom outside its top, which ``analysis.translate_normal`` emits as
the bodies of the c-atom's ``__theta_`` defining rules.

The sublattices are the prime cubes of the family, computed by one kernel,
a Shannon recursion on its truth table (:func:`_primes`), as integer masks
over the sorted domain.  :func:`prime_cubes` lists them in canonical order
and :func:`checked_primes` tests them with :func:`check_irredundant`; every
route takes them from there.  The translation and the CLI's ``abstract``
command read the masks directly.  An :class:`AbstractCAtom`
(:func:`build_abstract`) stores only them and its sorted domain; the
all-candidates reduct, the size bound and the helpers here read its masks,
and only its ``lattices`` view renders :class:`PrefixedPowerSet` objects.
Given a point of the table, the same kernel keeps only the primes holding
it and expands one half of the table per atom: a one-candidate reduct
reads a body c-atom that way, and builds and keeps no abstract form.

A c-atom's dependency signs and its monotone, antimonotone and convex
class are read off its truth table, not its primes, in one linear pass
(:func:`signs_and_class`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
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
        object.__setattr__(self, "primes", tuple(sorted(cubes, key=lambda c: [*map(_canonical, c)])))

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


#: The memos :func:`_primes` shares across unrestricted runs, one per width
#: of at most three atoms, so at most 2 + 4 + 16 + 256 subtables in all.
_SHARED_MEMOS = tuple({} for _ in range(4))


def _primes(n: int, table: int, point: int | None = None) -> dict[int, int]:
    """The prime cubes of the ``2**n``-bit truth table ``table`` as ``{free set: bases mask}``.

    Bit b of F's mask is set when the cube ``(b, F)`` is prime.  Split f on
    its top atom x into f0 and f1, its halves without and with x, and let
    g = f0 & f1.  A cube free in x is an implicant of f iff it is one of g,
    so the primes of f are those of g with x free, x̄·p for each prime p of
    f0 that is no implicant of f1, and x·p for each prime p of f1 that is
    no implicant of f0.  A prime of f0 is an implicant of f1 iff it is a
    prime of g (any implicant of g holding it is one of f0), so each part
    is one mask difference per free set.  Equal subtables are expanded
    once per run.

    Given a ``point`` (a table index), only the primes holding it are kept:
    those of g and of the point's half of f that hold it, so one half is
    followed per atom.  Each bases mask is then the one bit ``point & ~F``.
    """
    complete = [(1 << (1 << d)) - 1 for d in range(n + 1)]
    memos = [_SHARED_MEMOS[d] if point is None and d < len(_SHARED_MEMOS) else {}
             for d in range(n + 1)]
    restricted = point is not None

    def primes(table: int, d: int) -> dict[int, int]:
        """The primes of a table over the first d atoms."""
        if not table or restricted and not table >> (point & (1 << d) - 1) & 1:
            return {}
        if not table & table - 1:
            return {0: table}
        if table == complete[d]:
            return {(1 << d) - 1: 1}
        memo = memos[d]
        found = memo.get(table)
        if found is None:
            x, low = 1 << d - 1, complete[d - 1]  # the top atom, also the high half's offset
            f0, f1 = table & low, table >> x
            g = f0 & f1
            common = primes(g, d - 1)
            found = {free | x: bases for free, bases in common.items()}
            halves = ((f0, 0), (f1, x))
            if restricted:
                halves = halves[1:] if point & x else halves[:1]
            for half, offset in halves:
                if half != g:
                    for free, bases in primes(half, d - 1).items():
                        bases &= ~common.get(free, 0)
                        if bases:
                            found[free] = found.get(free, 0) | bases << offset
            memo[table] = found
        return found

    return primes(table, n)


_SWAP = str.maketrans("01", "10")


def _canonical(mask: int) -> str:
    """A key sorting masks as their lists of set bits, lowest first, compare.

    The bits lowest first, up to the highest, with 0 and 1 swapped.  Where
    S and T first differ, at a bit i of S: T's key ends there if T has no
    higher bit (T's list is a prefix of S's), else reads 1 against S's 0.
    """
    return bin(mask)[:1:-1].translate(_SWAP) if mask else ""


def prime_cubes(catom: CAtom, point: int | None = None) -> tuple[tuple[str, ...], list[tuple[int, int]]]:
    """The sorted domain and the maximal sublattices of ``catom`` as masks.

    Atom ``atoms[i]`` is bit i, and each sublattice is ``(base, free)``.
    The primes come from :func:`_primes` on the c-atom's truth table, in
    canonical order: by sorted base atoms, then sorted free atoms.  Given a
    ``point``, a table index, they are only those holding it, in no set
    order.
    """
    check_guard("abstract_domain", len(catom.domain))
    groups = _primes(len(catom.atoms), catom.table, point)
    if point is not None:
        return catom.atoms, [(point & ~free, free) for free in groups]
    frees: dict[int, list[int]] = {}
    for free in sorted(groups, key=_canonical):
        for base in set_bits(groups[free]):
            frees.setdefault(base, []).append(free)
    return catom.atoms, [(base, free) for base in sorted(frees, key=_canonical)
                         for free in frees[base]]


def checked_primes(catom: CAtom, point: int | None = None) -> tuple[tuple[str, ...], list[tuple[int, int]]]:
    """:func:`prime_cubes`, once its cubes pass :func:`check_irredundant`.

    Every route reads the kernel through here: a full form with no point,
    and the one-candidate reduct at its candidate's table index.
    """
    atoms, cubes = prime_cubes(catom, point)
    check_irredundant(cubes)
    return atoms, cubes


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


def signs_and_class(table: int, n: int) -> tuple[int, int, CAtomClass]:
    """The dependency signs and the class of the ``2**n``-bit truth table ``table``.

    Returns the atoms in some maximal sublattice's base and those outside
    some top, as masks, and the family's :class:`CAtomClass`, from one pass
    over the atoms, linear in the table, with no sublattice computed.

    Atom x is in the base of a maximal sublattice iff some solution S with
    x in S has S - {x} not a solution; x is outside the top of one iff some
    solution S without x has S | {x} not a solution.  Proof for the base
    (the top is symmetric): a solution S lies in some maximal sublattice
    (b, F); if S - {x} is no solution, x is not free there, so x is in b.
    Conversely, let x be in the base b of a maximal (b, F).  If every
    solution S with x had S - {x} a solution, each set of (b - {x}, F |
    {x}) would be a solution, in (b, F) or one atom below it, and (b, F)
    would not be maximal.  On the table, with H the positions whose bit i
    is set, atom i is in a base when ``T & H & ~(T << 2**i)`` is non-zero
    and outside a top when ``T & ~H & ~(T >> 2**i)`` is.

    So the family is monotone (upward closed) iff no atom is outside a top,
    and antimonotone iff no atom is in a base.  It is convex iff every set
    with a solution below it (``up``) and one above it (``down``) is a
    solution, that is ``T == up & down``, since T lies inside both.
    """
    in_base = outside_top = 0
    up = down = table
    for i in range(n):
        shift, holds = 1 << i, bit_pattern(i, n)
        if table & holds & ~(table << shift):
            in_base |= shift
        if table & ~holds & ~(table >> shift):
            outside_top |= shift
        up |= (up & ~holds) << shift
        down |= (down & holds) >> shift
    return in_base, outside_top, CAtomClass(
        monotone=not outside_top, antimonotone=not in_base, convex=table == up & down)


def classify_catom(abstract: AbstractCAtom) -> CAtomClass:
    """:func:`signs_and_class` on the OR of the form's per-base tables."""
    return signs_and_class(reduce(or_, abstract.tables.values(), 0), len(abstract.atoms))[2]
