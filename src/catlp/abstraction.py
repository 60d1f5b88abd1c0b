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
a Shannon recursion on its truth table (:func:`_primes`), as masks over the
sorted domain grouped by free set: ``{free set: bases mask}``.
:func:`checked_primes` tests the grouping with :func:`check_irredundant`;
every route takes it from there, and an :class:`AbstractCAtom`
(:func:`build_abstract`) stores only it and the sorted domain.
:func:`cube_list` renders it as canonical ``(base, free)`` cubes for text
alone, and only the ``lattices`` view renders :class:`PrefixedPowerSet`
objects.  Given a point of the table, the kernel keeps only the primes
holding it and expands one half of the table per atom: a one-candidate
reduct reads a body c-atom that way and keeps no abstract form.

A c-atom's dependency signs and its monotone, antimonotone and convex
class are read off its truth table, not its primes, in one linear pass
(:func:`signs_and_class`).
"""

from __future__ import annotations

from functools import cached_property, lru_cache, reduce
from operator import or_
from typing import Iterable

from .core import CAtom, Value, bit_pattern, indices, position, select, set_bits
from .errors import check_guard

#: ``abstract_of`` keeps at most this many abstract forms (least recently used
#: first out) for library callers; the reduct keeps its own on ``Program.compiled``.
ABSTRACT_CACHE_SIZE = 256


class PrefixedPowerSet(Value):
    """The family ``{base | X for X <= free}``: a power-set sublattice."""

    base: frozenset[str]
    free: frozenset[str]

    def __init__(self, base: Iterable[str], free: Iterable[str]):
        base, free = frozenset(base), frozenset(free)
        if base & free:
            raise ValueError("base and free atoms must be disjoint")
        self.__dict__.update(base=base, free=free)

    @property
    def top(self) -> frozenset[str]:
        return self.base | self.free


class AbstractCAtom(Value):
    """The redundancy-free collection of maximal sublattices of a c-atom.

    Stored as the sorted domain ``atoms`` and the primes' grouping by free set
    as :func:`checked_primes` gives it, ``groups``: sorted ``(free, bases)``
    mask pairs, bit b of ``bases`` set when ``(b, free)`` is prime.
    """

    atoms: tuple[str, ...]
    groups: tuple[tuple[int, int], ...]

    def __init__(self, domain: Iterable[str], lattices: Iterable[PrefixedPowerSet]):
        self.__dict__["atoms"] = tuple(sorted(frozenset(domain)))
        groups: dict[int, int] = {}
        for m in lattices:
            if not m.top <= self.domain:
                raise ValueError("sublattice atoms must come from the domain")
            free = self.position(m.free)
            groups[free] = groups.get(free, 0) | 1 << self.position(m.base)
        check_irredundant(groups, len(self.atoms))
        self.__dict__["groups"] = tuple(sorted(groups.items()))

    @classmethod
    def from_groups(cls, atoms: tuple[str, ...], groups: dict[int, int]):
        """The form of what :func:`checked_primes` returns, which is not checked again."""
        abstract = object.__new__(cls)
        vars(abstract).update(atoms=atoms, groups=tuple(sorted(groups.items())))
        return abstract

    @cached_property
    def domain(self) -> frozenset[str]:
        return frozenset(self.atoms)

    @cached_property
    def primes(self) -> tuple[tuple[int, int], ...]:
        """The prime cubes as ``(base, free)`` masks in canonical order (:func:`cube_list`)."""
        return tuple(cube_list(dict(self.groups)))

    @cached_property
    def lattices(self) -> frozenset[PrefixedPowerSet]:
        """The sublattices as objects, for callers, ``selftest`` and the test oracles."""
        return frozenset(PrefixedPowerSet(select(self.atoms, b), select(self.atoms, f))
                         for f, bases in self.groups for b in set_bits(bases))

    def position(self, interpretation: Iterable[str]) -> int:
        """The table index of the interpretation's part of the domain (``core.position``)."""
        return position(self.atoms, interpretation)

    def covering(self, x: int) -> list[tuple[int, int]]:
        """The prime cubes holding table index x: (x & ~F, F) per free set F, one bit test each."""
        return [(x & ~free, free) for free, bases in self.groups if bases >> (x & ~free) & 1]

    @cached_property
    def tables(self) -> dict[int, int]:
        """Per distinct base, the truth table of the subsets its prime cubes hold.

        A prime holds the subsets of its free set shifted by its base, so
        each base ORs its free sets' unshifted tables and shifts once.
        """
        unshifted: dict[int, int] = {}
        for free, bases in self.groups:
            cube = 1  # the subsets of the free set
            for j in indices(free):
                cube |= cube << (1 << j)
            for base in set_bits(bases):
                unshifted[base] = unshifted.get(base, 0) | cube
        return {base: cube << base for base, cube in unshifted.items()}


def check_irredundant(groups: dict[int, int], n: int) -> None:
    """Raise ``ValueError`` when a cube of the grouping lies inside a distinct one.

    ``groups`` maps free sets, masks over n atoms, to bases masks: bit b
    of F's mask is set when ``(b, F)`` is a cube.  ``(b, F)`` lies inside
    ``(b2, G)`` iff ``b2 <= b`` and ``b | F <= b2 | G``.  Bases are
    disjoint from their free sets, so this forces ``F <= G`` and ``b2 == b
    & ~G``, and ``G == F`` gives the cube itself.  So for each strictly
    wider free set G, F's bases mask is folded off each atom of ``G - F``
    (each base holding the atom moves to the base without it), which gives
    the mask of every ``b & ~G``, and it may share no bit with G's mask.
    """
    frees = sorted(groups, key=int.bit_count)
    holds: list[int] = []  # per atom, the table indices holding it, made at the first fold
    for k, free in enumerate(frees):
        for wider in (g for g in frees[k + 1:] if g & free == free):
            holds = holds or [bit_pattern(i, n) for i in range(n)]
            bases = groups[free]
            for i in indices(wider & ~free):
                bases = bases & ~holds[i] | (bases & holds[i]) >> (1 << i)
            if bases & groups[wider]:
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


def cube_list(groups: dict[int, int]) -> list[tuple[int, int]]:
    """The cubes of a grouping as ``(base, free)`` masks, in canonical order.

    By sorted base atoms, then sorted free atoms: the order the translation
    and the ``abstract`` command print.
    """
    frees: dict[int, list[int]] = {}
    for free in sorted(groups, key=_canonical):
        for base in set_bits(groups[free]):
            frees.setdefault(base, []).append(free)
    return [(base, free) for base in sorted(frees, key=_canonical) for free in frees[base]]


def checked_primes(catom: CAtom, point: int | None = None) -> tuple[tuple[str, ...], dict[int, int]]:
    """The sorted domain (atom ``atoms[i]`` is bit i) and :func:`_primes`' grouping.

    Every route reads the kernel through here, once its grouping passes
    :func:`check_irredundant`: a full form with no point, and the
    one-candidate reduct at its candidate's table index.  The grouping is
    the caller's own: an unrestricted run's top level is copied, since for
    at most three atoms it is a memo that later runs share.
    """
    check_guard("abstract_domain", len(catom.domain))
    groups = _primes(len(catom.atoms), catom.table, point)
    if point is None:
        groups = dict(groups)
    check_irredundant(groups, len(catom.atoms))
    return catom.atoms, groups


def build_abstract(catom: CAtom) -> AbstractCAtom:
    """The unique abstract form of a constraint atom: the prime implicants of
    its solution family, from :func:`checked_primes`, kept as they are."""
    return AbstractCAtom.from_groups(*checked_primes(catom))


@lru_cache(maxsize=ABSTRACT_CACHE_SIZE)
def abstract_of(catom: CAtom) -> AbstractCAtom:
    """Memoized :func:`build_abstract`; c-atoms recur across transformations."""
    return build_abstract(catom)


def expand(abstract: AbstractCAtom) -> CAtom:
    """Back to explicit form: the OR of the per-base tables of the covered sets."""
    check_guard("abstract_domain", len(abstract.atoms))
    return CAtom.from_table(abstract.atoms, reduce(or_, abstract.tables.values(), 0))


def satisfiable_sets(abstract: AbstractCAtom,
                     interpretation: Iterable[str]) -> frozenset[frozenset[str]]:
    """The bases of the covering sublattices, empty iff the interpretation fails the c-atom."""
    return frozenset(frozenset(select(abstract.atoms, b))
                     for b, _ in abstract.covering(abstract.position(interpretation)))


class CAtomClass(Value):
    monotone: bool
    antimonotone: bool
    convex: bool

    def __init__(self, monotone: bool, antimonotone: bool, convex: bool):
        self.__dict__.update(monotone=monotone, antimonotone=antimonotone, convex=convex)


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
