"""Core types for propositional logic programs with constraint atoms.

Atoms are plain strings.  A constraint atom couples a finite domain with a
family of admissible solutions, held as one truth table over the subsets of
the domain; an interpretation satisfies it when the interpretation
restricted to the domain is one of the admissible solutions.  Rules may
carry constraint atoms in bodies and in (disjunctive) heads.  Every value
is immutable and hashable, so programs and interpretations can be shared
freely across threads.

Values stay immutable through :class:`Value`, their base: each
``__init__`` writes its fields straight into the instance dict, and any
later assignment or deletion of an attribute raises ``AttributeError``.
A ``cached_property`` still fills in once, as it too writes that dict.
"""

from __future__ import annotations

import re
from functools import cache, cached_property
from itertools import compress, product
from operator import attrgetter
from typing import Iterable, Sequence, Union

from .errors import check_guard

#: Name prefixes reserved for atoms introduced by program transformations.
RESERVED_PREFIXES = ("__theta_", "__beta_", "__bot", "__f_")


def is_reserved(name: str) -> bool:
    """True for atom names only transformations are allowed to mint."""
    return name.startswith(RESERVED_PREFIXES)


def set_bits(bits: int) -> list[int]:
    """The positions of the set bits of ``bits``, highest first.

    Up to 64 set bits are found one step each, each step copying
    ``bits``; more by one scan of its binary text.
    """
    if bits.bit_count() <= 64:
        found = []
        while bits:
            top = bits.bit_length() - 1
            found.append(top)
            bits ^= 1 << top
        return found
    text = format(bits, "b")
    top = len(text) - 1
    return [top - found.start() for found in re.finditer("1", text)]


def select(items: Sequence, mask: int) -> tuple:
    """``items[i]`` for each set bit i of ``mask``, lowest first.

    With a sorted domain or vocabulary as ``items``, these are the mask's
    atoms in sorted order.  One step per set bit: a mask here is at most
    a few dozen bits wide, where :func:`set_bits`' scan of the whole binary
    text costs more.
    """
    found = []
    while mask:
        low = mask & -mask
        found.append(items[low.bit_length() - 1])
        mask ^= low
    return tuple(found)


def position(atoms: Sequence[str], interpretation: Iterable[str]) -> int:
    """The table index of the interpretation's part of the sorted domain ``atoms``."""
    held = frozenset(interpretation)
    return sum(1 << i for i, a in enumerate(atoms) if a in held)


def interval(table: int, low: int, top: int) -> bool:
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


def indices(mask: int) -> list[int]:
    """The positions of the set bits of ``mask``, lowest first, one step per set bit."""
    found = []
    while mask:
        low = mask & -mask
        found.append(low.bit_length() - 1)
        mask ^= low
    return found


def bit_pattern(b: int, n: int) -> int:
    """The positions below ``2**n`` whose bit ``b`` is set, as one integer (``b < n``).

    Blocks of ``2**b`` clear then ``2**b`` set bits alternate, so one such
    pair is doubled until it spans ``2**n`` bits.
    """
    period, size = 2 << b, 1 << n
    bits = (1 << period) - (1 << (period >> 1))
    while period < size:
        bits |= bits << period
        period <<= 1
    return bits


class Value:
    """An immutable value whose fields are the annotations of its class and its bases.

    Values are equal when their classes are the same and their fields are
    equal, the hash reads the same fields, and the repr is
    ``Name(field=value, ...)``.  A class hashed on a hot path (:class:`CAtom`)
    defines its own ``__eq__`` and ``__hash__``: the shared ones add an
    ``attrgetter`` call per test.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        cls._fields += tuple(cls.__dict__.get("__annotations__", ()))
        cls._key = attrgetter(*cls._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self) -> str:
        return "%s(%s)" % (type(self).__qualname__,
                           ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class CAtom(Value):
    """A constraint atom: a finite domain plus its admissible solutions.

    The solutions are one truth table: over the sorted domain ``atoms``,
    atom ``atoms[i]`` is bit i of a subset's mask, and bit x of ``table`` is
    set when the subset with mask x is a solution.  Equality, hashing and
    the introduced names (:attr:`digest`) all read ``(atoms, table)``.
    """

    domain: frozenset[str]
    table: int
    atoms: tuple[str, ...]

    def __init__(self, domain: Iterable[str], solutions: Iterable[Iterable[str]]):
        domain = frozenset(domain)
        check_guard("catom_domain", len(domain))
        atoms = tuple(sorted(domain))
        bit = {a: 1 << i for i, a in enumerate(atoms)}
        table = bytearray(max(1, (1 << len(domain)) >> 3))
        for sol in map(frozenset, solutions):
            if not sol <= domain:
                raise ValueError(
                    "solution {%s} is not a subset of the domain" % ", ".join(sorted(sol)))
            x = sum(map(bit.__getitem__, sol))
            table[x >> 3] |= 1 << (x & 7)
        self.__dict__.update(domain=domain, atoms=atoms, table=int.from_bytes(table, "little"))

    @classmethod
    def from_table(cls, domain: Iterable[str], table: int) -> "CAtom":
        """The c-atom over ``domain`` whose solutions are the set bits of ``table``."""
        domain = frozenset(domain)
        check_guard("catom_domain", len(domain))
        if table < 0 or table >> (1 << len(domain)):
            raise ValueError("the table has bits beyond the subsets of the domain")
        catom = object.__new__(cls)
        catom.__dict__.update(domain=domain, atoms=tuple(sorted(domain)), table=table)
        return catom

    @classmethod
    def elementary(cls, atom: str) -> "CAtom":
        """The one-atom constraint interchangeable with the atom itself."""
        return cls((atom,), [(atom,)])

    @cached_property
    def solutions(self) -> frozenset[frozenset[str]]:
        """The solutions as atom sets, for callers and test oracles; no library route reads it."""
        return frozenset(frozenset(select(self.atoms, x)) for x in set_bits(self.table))

    @property
    def is_elementary(self) -> bool:
        return len(self.domain) == 1 and self.table == 0b10

    @property
    def is_unsatisfiable(self) -> bool:
        """True when the solution family is empty (the ``bot`` constraint)."""
        return not self.table

    @cached_property
    def digest(self) -> str:
        """Short hash of ``repr(atoms)`` and the table's fixed-width bytes, computed once.

        Never decimal text, which Python refuses past 4,300 digits (a dense table over 14 atoms).
        """
        import hashlib  # here, not at import: the introduced names are its one reader

        table = self.table.to_bytes(max(1, (1 << len(self.atoms)) >> 3), "little")
        return hashlib.sha256(repr(self.atoms).encode() + table).hexdigest()[:10]

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.domain, self.table) == (other.domain, other.table)

    def __hash__(self):
        return hash((self.domain, self.table))

    def __repr__(self) -> str:  # hex: decimal fails past 4,300 digits
        return f"CAtom(atoms={self.atoms!r}, table={self.table:#x})"


#: The canonical always-false constraint (spelled ``bot`` in rule heads).
FALSE_CATOM = CAtom(frozenset(), frozenset())

#: A head element is an atom or a constraint atom.
HeadElement = Union[str, CAtom]


class Literal(Value):
    """A body literal: an atom or a constraint atom, possibly under ``not``."""

    positive: bool
    item: Union[str, CAtom]

    def __init__(self, positive: bool, item: Union[str, CAtom]):
        self.__dict__.update(positive=positive, item=item)

    @classmethod
    def atom(cls, name: str) -> "Literal":
        return cls(True, name)

    @classmethod
    def negated_atom(cls, name: str) -> "Literal":
        return cls(False, name)

    @classmethod
    def constraint(cls, catom: CAtom) -> "Literal":
        return cls(True, catom)

    @classmethod
    def negated_constraint(cls, catom: CAtom) -> "Literal":
        return cls(False, catom)

    @property
    def is_atom(self) -> bool:
        return isinstance(self.item, str)

    @property
    def is_constraint(self) -> bool:
        return isinstance(self.item, CAtom)


def head_atom_name(element: HeadElement) -> str | None:
    """The atom an elementary head element stands for, else None."""
    if isinstance(element, str):
        return element
    if element.is_elementary:
        return next(iter(element.domain))
    return None


def is_false_head(element: HeadElement) -> bool:
    """True for head elements no interpretation can satisfy."""
    return isinstance(element, CAtom) and element.is_unsatisfiable


class Rule(Value):
    """A disjunctive rule; the head must list at least one element."""

    head: tuple[HeadElement, ...]
    body: tuple[Literal, ...]

    def __init__(self, head: Iterable[HeadElement], body: Iterable[Literal] = ()):
        head = tuple(head)
        if not head:
            raise ValueError("a rule needs at least one head element")
        self.__dict__.update(head=head, body=tuple(body))


class Program(Value):
    """A finite set of rules plus any extra declared vocabulary."""

    rules: tuple[Rule, ...]
    declared_atoms: frozenset[str]

    def __init__(self, rules: Iterable[Rule], declared_atoms: Iterable[str] = frozenset()):
        self.__dict__.update(rules=tuple(rules), declared_atoms=frozenset(declared_atoms))

    @cached_property
    def atoms(self) -> frozenset[str]:
        """All atoms occurring in the rules, constraint domains included."""
        found: set[str] = set()
        for rule in self.rules:
            for item in rule.head:
                if isinstance(item, str):
                    found.add(item)
                else:
                    found.update(item.domain)
            for lit in rule.body:
                item = lit.item
                if isinstance(item, str):
                    found.add(item)
                else:
                    found.update(item.domain)
        return frozenset(found)

    @cached_property
    def language(self) -> frozenset[str]:
        """The program vocabulary: occurring atoms plus declared ones."""
        return self.atoms | self.declared_atoms

    @cached_property
    def compiled(self) -> CompiledProgram:
        """The program as bit masks over its sorted vocabulary, built once."""
        return CompiledProgram(self)


class CompiledCAtom:
    """A c-atom over a program's vocabulary bits.

    ``bits[i]`` is the vocabulary bit of domain atom ``catom.atoms[i]`` and
    ``domain`` their mask.  :meth:`position` and :meth:`lift` move masks
    between the vocabulary and the c-atom's table.  Its abstract form (:attr:`abstract`)
    is built at first use and lives as long as the compiled program, so
    every all-candidates reduct and size bound of the program shares it.
    """

    def __init__(self, catom: CAtom, bit: dict[str, int]):
        self.catom = catom
        self.bits = [bit[a] for a in catom.atoms]
        self.domain = sum(self.bits)

    def position(self, mask: int) -> int:
        """The table index of the domain part of the vocabulary mask ``mask``."""
        return sum(1 << i for i, b in enumerate(self.bits) if mask & b)

    def lift(self, x: int) -> int:
        """The vocabulary mask of the table index ``x``."""
        return sum(select(self.bits, x))

    @cached_property
    def abstract(self):
        """The ``abstraction.AbstractCAtom`` from ``abstraction.build_abstract``."""
        from .abstraction import build_abstract  # abstraction imports core
        return build_abstract(self.catom)


class CompiledProgram:
    """A program as bit masks: atom ``atoms[i]`` is bit ``1 << i``.

    Each rule becomes a tuple ``(head, pos, neg, heads, body)``: the masks
    of its head atoms, positive body atoms and negated body atoms, then its
    head c-atoms and body c-atoms in literal order.  A negated body c-atom
    ``not A`` is the body c-atom ``literal_catom`` gives, A's complement
    (under the ``complement_domain`` guard), shared with any equal c-atom.
    ``catoms`` lists the distinct c-atoms, heads before bodies, in rule
    order; ``head_catoms`` and ``body_catoms`` list the distinct ones in
    each role, in the same order.
    """

    def __init__(self, program: Program):
        self.atoms = tuple(sorted(program.language))
        bit = self.bit = {a: 1 << i for i, a in enumerate(self.atoms)}
        found: dict[CAtom, CompiledCAtom] = {}
        in_head: dict[CompiledCAtom, None] = {}
        in_body: dict[CompiledCAtom, None] = {}

        def compiled(catom: CAtom, role: dict[CompiledCAtom, None]) -> CompiledCAtom:
            c = found.get(catom)
            if c is None:
                c = found[catom] = CompiledCAtom(catom, bit)
            role[c] = None
            return c

        rules = []
        for rule in program.rules:
            head = pos = neg = 0
            heads = body = ()
            for element in rule.head:
                if isinstance(element, str):
                    head |= bit[element]
                else:
                    heads += (compiled(element, in_head),)
            for lit in rule.body:
                item = lit.item
                if isinstance(item, str):
                    if lit.positive:
                        pos |= bit[item]
                    else:
                        neg |= bit[item]
                else:
                    body += (compiled(literal_catom(lit), in_body),)
            rules.append((head, pos, neg, heads, body))
        self.rules = tuple(rules)
        self.catoms = tuple(found.values())
        self.head_catoms = tuple(in_head)
        self.body_catoms = tuple(in_body)

    def mask(self, atoms: Iterable[str]) -> int:
        """The bits of ``atoms``, every route's way in: an atom outside the vocabulary has none."""
        return sum(map(self.bit.__getitem__, self.bit.keys() & atoms))

    def atoms_of(self, mask: int) -> tuple[str, ...]:
        """The atoms of ``mask`` in sorted order."""
        return select(self.atoms, mask)


@cache
def _basis(n: int) -> tuple[int, tuple[int, ...]]:
    """Every candidate over n atoms, and per atom the candidates that hold it.

    Candidate k holds atom i when bit ``n - 1 - i`` of k is set.  Kept per
    width: the ``minimal_models`` guard bounds the widths at 22, so all of
    them take about 24 MB.
    """
    return (1 << (1 << n)) - 1, tuple(bit_pattern(n - 1 - i, n) for i in range(n))


class CandidateBits:
    """All subsets of a vocabulary mask as candidates of a compiled program, one bit each.

    By default the mask ``within`` is the whole vocabulary of n atoms.  Bit
    k stands for the candidate whose vocabulary mask is k reversed over n
    bits: atom ``atoms[i]`` is bit ``n - 1 - i`` of k.  So ``format(k,
    "0nb")`` spells the candidate in atom order, and among candidates of one
    size, the order of :meth:`keys` is descending k.  A set of candidates is
    one ``2**n``-bit integer, built per call.  A narrower ``within`` of w
    atoms lays out its ``2**w`` subsets the same way over its own atoms,
    and no candidate holds an atom outside it; the top bit is ``within``
    itself.  :meth:`mask`, :meth:`keys` and :meth:`answers` read a space of
    the whole vocabulary.

    Every such integer is built from one basis (:func:`_basis`, kept per
    width): per atom, the candidates that hold it (:attr:`holds`, a
    :func:`bit_pattern`, or 0 outside ``within``).  A cube is an AND of basis entries less an OR of
    them, and a c-atom's candidates come from splitting its truth table
    (:meth:`split`).

    Given a ``point`` (a vocabulary mask), the space holds that one
    candidate: ``full`` is 1 and each ``holds`` entry is the point's bit,
    so every set of candidates is 0 or 1, :meth:`split` reads the table at
    the point, no ``2**n``-bit integer is made and the vocabulary size is
    unbounded.
    """

    def __init__(self, compiled: CompiledProgram, point: int | None = None,
                 within: int | None = None):
        self.compiled = compiled
        self.n = n = len(compiled.atoms)
        self.point = point
        if point is None:
            within = (1 << n) - 1 if within is None else within
            self.full, patterns = _basis(within.bit_count())
            patterns = iter(patterns)
            self.holds = [next(patterns) if within >> i & 1 else 0 for i in range(n)]
        else:
            self.full = 1
            self.holds = [point >> i & 1 for i in range(n)]
        self._satisfied: dict[CompiledCAtom, int] = {}

    def cubes(self, cubes: list[tuple[int, int]]) -> int:
        """The candidates inside some cube ``(ones, zeros)`` of vocabulary masks.

        A cube holds the candidates with every atom of ``ones`` and none of
        ``zeros``: the AND of the ``holds`` entries of ``ones`` less the
        OR of those of ``zeros``.
        """
        holds, full = self.holds, self.full
        bits = 0
        for ones, zeros in cubes:
            cube = full
            for i in indices(ones):
                cube &= holds[i]
            if zeros:
                lacking = 0
                for i in indices(zeros):
                    lacking |= holds[i]
                cube &= ~lacking
            bits |= cube
        return bits

    def satisfied(self, catom: CompiledCAtom) -> int:
        """The candidates that satisfy ``catom``: :meth:`split` of its table, kept."""
        bits = self._satisfied.get(catom)
        if bits is None:
            bits = self._satisfied[catom] = self.split(catom, catom.catom.table)
        return bits

    def split(self, catom: CompiledCAtom, table: int, lower: list[int] | None = None) -> int:
        """The candidates whose part of ``catom``'s domain conditionally satisfies ``table``.

        ``table`` is a truth table over the domain, as ``CAtom.table`` is,
        and ``lower`` holds, per atom, the candidates whose lower set holds
        it.  A candidate is kept when its lower set's part and every set
        between that and its own part are set bits of the table: conditional
        satisfaction with respect to the candidate (Son, Pontelli & Tu, JAIR
        2007).  The default ``lower`` is :attr:`holds`, each candidate its
        own lower set, which is plain satisfaction.

        A point reads the table at the point, or with a ``lower`` the
        :func:`interval` from the lower set to the point, which also answers
        a lower set outside the point.  Otherwise each lower set must lie
        inside its candidate, and the table is split on its highest domain
        atom: the low half of a table over d atoms is the subtable without
        that atom and the high half the one with it.  The candidates lacking
        the atom are the low half's; those holding it are the high half's,
        less, unless their lower set holds the atom too, those the low half
        refuses.  An empty subtable is no candidate, a complete one is every
        candidate, equal halves skip the atom, and equal subtables of one
        c-atom are split once.
        """
        if self.point is not None:
            x = catom.position(self.point)
            if lower is None:
                return table >> x & 1
            low = sum(1 << j for j, b in enumerate(catom.bits) if lower[b.bit_length() - 1])
            return int(interval(table, low, x))
        atoms = [b.bit_length() - 1 for b in catom.bits]
        complete = [(1 << (1 << d)) - 1 for d in range(len(atoms) + 1)]
        return self._split(table, len(atoms), atoms, complete, lower or self.holds, {})

    def _split(self, table: int, d: int, atoms: list[int], complete: list[int],
               lower: list[int], done: dict[tuple[int, int], int]) -> int:
        """:meth:`split` of a subtable over the first d domain atoms."""
        if not table:
            return 0
        if table == complete[d]:
            return self.full
        found = done.get((d, table))
        if found is None:
            low, high = table & complete[d - 1], table >> (1 << d - 1)
            found = self._split(low, d - 1, atoms, complete, lower, done)
            if low != high:
                a = atoms[d - 1]
                high = self._split(high, d - 1, atoms, complete, lower, done) & (lower[a] | found)
                found ^= (found ^ high) & self.holds[a]
            done[d, table] = found
        return found

    def models(self) -> int:
        """The candidates no rule is violated by: body true and head false."""
        satisfied = self.satisfied
        violated = 0
        for head, pos, neg, heads, body in self.compiled.rules:
            bits = self.cubes([(pos, neg | head)])
            for c in body:
                bits &= satisfied(c)
            for c in heads:
                bits &= ~satisfied(c)
            violated |= bits
        return self.full ^ violated

    def mask(self, k: int) -> int:
        """The vocabulary mask of candidate ``k`` of a space of the whole vocabulary."""
        return int(format(k, "0%db" % self.n)[::-1], 2)

    def keys(self, ks: Iterable[int]) -> list[tuple[str, ...]]:
        """The candidates ``ks`` as sorted atom tuples, in sorted order: every route's renderer.

        Spelled in binary, an index lists its atoms in order, so each index
        is split into its high and low half, each half is looked up in a
        table of sorted atom tuples, and the two are joined and sorted.
        """
        def table(atoms: tuple[str, ...]) -> list[tuple[str, ...]]:
            return [tuple(compress(atoms, spelled))
                    for spelled in product((0, 1), repeat=len(atoms))]

        atoms, half = self.compiled.atoms, self.n // 2
        high, low = table(atoms[:self.n - half]), table(atoms[self.n - half:])
        low_bits = (1 << half) - 1
        return sorted([high[k >> half] + low[k & low_bits] for k in ks])

    def answers(self, ks: Iterable[int]) -> tuple[frozenset[str], ...]:
        """The candidates ``ks`` as atom sets, in the order of :meth:`keys`."""
        return tuple(map(frozenset, self.keys(ks)))


def is_model(interpretation: Iterable[str], program: Program) -> bool:
    """Does the interpretation violate no rule of the program (body true, head false)?

    The one candidate's :meth:`CandidateBits.models` on ``program.compiled``;
    an atom outside the vocabulary has no bit and changes nothing.
    """
    compiled = program.compiled
    return bool(CandidateBits(compiled, compiled.mask(interpretation)).models())


def complement(catom: CAtom) -> CAtom:
    """The constraint interpreting ``not A``: same domain, complementary table."""
    check_guard("complement_domain", len(catom.domain))
    return CAtom.from_table(catom.domain, catom.table ^ (1 << (1 << len(catom.domain))) - 1)


def literal_catom(literal: Literal) -> CAtom:
    """The c-atom a body literal stands for: atoms are elementary, ``not`` complements."""
    catom = CAtom.elementary(literal.item) if literal.is_atom else literal.item
    return catom if literal.positive else complement(catom)
