import random
import warnings
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, strategies as st

from catlp import abstraction as abstraction_module
from catlp.abstraction import (
    ABSTRACT_CACHE_SIZE,
    AbstractCAtom,
    CAtomClass,
    PrefixedPowerSet,
    abstract_of,
    build_abstract,
    check_irredundant,
    checked_primes,
    classify_catom,
    cube_list,
    expand,
    satisfiable_sets,
    signs_and_class,
)
from catlp.core import (
    CAtom,
    Literal,
    Program,
    Rule,
    complement,
    select,
)
from catlp.errors import GuardError
from catlp.golden import (
    AT_LEAST_ONE,
    LATTICE_FAMILY,
    MIXED_FAMILY,
    PUNCTURED_CUBE,
    minimal_dnf,
    pps,
)
from catlp.parser import load_program, parse_constraint
from catlp.reduct import is_stable, reduct_size_bound, stable_models

import generators
import oracles
from oracles import iter_subsets, satisfies_body, satisfies_catom


@st.composite
def catoms(draw, max_domain=5):
    domain = draw(st.frozensets(st.sampled_from("abcdef"), max_size=max_domain))
    subsets = list(iter_subsets(domain))
    solutions = draw(st.frozensets(st.sampled_from(subsets)))
    return CAtom(domain, solutions)


def all_families(domain: str):
    """Every solution family over the given atoms."""
    subsets = list(iter_subsets(domain))
    for family in iter_subsets(range(len(subsets))):
        yield CAtom(frozenset(domain), frozenset(subsets[i] for i in family))


def grouped(cubes) -> dict[int, int]:
    """Cubes ``(base, free)`` grouped as the kernel groups them: ``{free: bases mask}``."""
    groups: dict[int, int] = {}
    for base, free in cubes:
        groups[free] = groups.get(free, 0) | 1 << base
    return groups


class TestPrefixedPowerSet:
    def test_base_and_free_must_be_disjoint(self):
        with pytest.raises(ValueError):
            PrefixedPowerSet(frozenset("a"), frozenset("ab"))

    # Covering and inclusion are read through a form that holds the sublattices.

    def test_covers_free_subsets(self):
        assert satisfiable_sets(AbstractCAtom("bc", [pps("", "bc")]), {"b"}) == {frozenset()}

    def test_covers_bottom(self):
        member = pps("bc", "a")
        assert satisfiable_sets(AbstractCAtom("abc", [member]), member.base) == {member.base}

    def test_covers_rejects_outside_atoms(self):
        assert not satisfiable_sets(AbstractCAtom("abcd", [pps("c", "ab")]), {"c", "d"})

    def test_inclusion_examples(self):
        with pytest.raises(ValueError, match="redundant"):
            AbstractCAtom("bc", [pps("b", "c"), pps("", "bc")])
        assert len(AbstractCAtom("ab", [pps("a", "b"), pps("a", "b")]).primes) == 1
        assert len(AbstractCAtom("ab", [pps("a", "b"), pps("b", "a")]).primes) == 2

    @given(st.frozensets(st.sampled_from("abcd"), max_size=3),
           st.frozensets(st.sampled_from("abcd"), max_size=3),
           st.frozensets(st.sampled_from("abcd"), max_size=3),
           st.frozensets(st.sampled_from("abcd"), max_size=3))
    def test_inclusion_matches_enumeration(self, b1, f1, b2, f2):
        # A form refuses two distinct sublattices exactly when one holds the other.
        p = PrefixedPowerSet(b1, f1 - b1)
        q = PrefixedPowerSet(b2, f2 - b2)
        nested = p != q and (oracles.brute_included(p, q) or oracles.brute_included(q, p))
        try:
            AbstractCAtom("abcd", [p, q])
        except ValueError:
            assert nested
        else:
            assert not nested


class TestBuildAbstract:
    def test_lattice_family(self):
        assert build_abstract(LATTICE_FAMILY).lattices == frozenset(
            (pps("", "bc"), pps("c", "ab"), pps("c", "bd")))

    def test_elementary(self):
        assert build_abstract(CAtom.elementary("a")).lattices == frozenset(
            (pps("a", ""),))

    def test_at_least_one(self):
        assert build_abstract(AT_LEAST_ONE).lattices == frozenset(
            (pps("a", "b"), pps("b", "a")))

    def test_mixed_family(self):
        assert build_abstract(MIXED_FAMILY).lattices == frozenset(
            (pps("d", ""), pps("a", "bc")))

    def test_punctured_cube(self):
        # {c}+{a,b} absorbs both {a,c}+{b} and {b,c}+{a}.
        assert build_abstract(PUNCTURED_CUBE).lattices == frozenset(
            (pps("", "ac"), pps("", "bc"), pps("c", "ab")))

    def test_unsatisfiable(self):
        assert build_abstract(CAtom("ab", ())).lattices == frozenset()

    def test_empty_domain(self):
        assert build_abstract(CAtom((), [()])).lattices == frozenset((pps("", ""),))

    def test_domain_guard(self):
        wide = frozenset(f"x{i}" for i in range(21))
        with pytest.raises(GuardError) as caught:
            build_abstract(CAtom(wide, ()))
        assert (caught.value.guard, caught.value.actual) == ("abstract_domain", 21)

    def test_expand_domain_guard(self):
        wide = frozenset(f"x{i}" for i in range(21))
        with pytest.raises(GuardError) as caught:
            expand(AbstractCAtom(wide, frozenset()))
        assert (caught.value.guard, caught.value.actual) == ("abstract_domain", 21)

    def test_redundant_members_rejected(self):
        with pytest.raises(ValueError):
            AbstractCAtom(frozenset("abc"), (pps("", "ab"), pps("a", "b")))
        with pytest.raises(ValueError):  # same base, nested free atoms
            AbstractCAtom(frozenset("abc"), (pps("a", "b"), pps("a", "bc")))

    def test_members_outside_the_domain_rejected(self):
        with pytest.raises(ValueError, match="domain"):
            AbstractCAtom(frozenset("ab"), (pps("c", ""),))
        with pytest.raises(ValueError, match="domain"):
            AbstractCAtom(frozenset("ab"), (pps("a", "bc"),))

    def test_built_forms_are_checked_once(self, monkeypatch):
        # checked_primes runs the redundancy check on the masks; neither the
        # form built from them nor the one a compiled program keeps, however
        # often it is read, runs it again.  The public constructor runs it
        # once on its own masks.
        calls = []
        kernel_check = abstraction_module.check_irredundant

        def counted(groups, n):
            calls.append(1)
            return kernel_check(groups, n)

        monkeypatch.setattr(abstraction_module, "check_irredundant", counted)
        for catom in (LATTICE_FAMILY, PUNCTURED_CUBE, parse_constraint("2 {a, b, c, d} 3")):
            expected = oracles.brute_abstract(catom)
            calls.clear()
            built = build_abstract(catom)
            assert built.lattices == expected
            assert len(calls) == 1
            calls.clear()
            assert AbstractCAtom(catom.domain, expected) == built
            assert len(calls) == 1
            calls.clear()
            program = Program((Rule(("y",), (Literal.constraint(catom),)),))
            bound = 1 + len(expected) + len(catom.domain) + 1
            assert reduct_size_bound(program) == reduct_size_bound(program) == bound
            assert len(calls) == 1

    def test_mask_check_rejects_a_redundant_prime_list(self):
        # The cubes over atoms a = bit 0, b = bit 1, c = bit 2 of the two
        # cases above, grouped by free set and fed to the helper that both
        # routes call.
        with pytest.raises(ValueError, match="redundant"):
            check_irredundant(grouped([(0b000, 0b011), (0b001, 0b010)]), 3)
        with pytest.raises(ValueError, match="redundant"):
            check_irredundant(grouped([(0b001, 0b010), (0b001, 0b110)]), 3)
        with pytest.raises(ValueError, match="redundant"):  # two atoms wider
            check_irredundant(grouped([(0b011, 0b000), (0b000, 0b111), (0b100, 0b000)]), 3)
        # Equal free sets, or a wider free set at another base, are no inclusion.
        check_irredundant(grouped([(0b001, 0b010), (0b100, 0b010), (0b010, 0b101)]), 3)
        check_irredundant(grouped([(0b001, 0b000), (0b010, 0b001), (0b000, 0b100)]), 3)

    def test_cardinality_window_gives_every_two_to_four_interval(self):
        atoms = [f"x{i}" for i in range(12)]
        catom = CAtom(atoms, [c for k in (2, 3, 4) for c in combinations(atoms, k)])
        expected = frozenset(
            PrefixedPowerSet(frozenset(p), frozenset(q) - frozenset(p))
            for q in combinations(atoms, 4) for p in combinations(q, 2))
        abstract = build_abstract(catom)
        assert len(expected) == 2970
        assert abstract.lattices == expected
        flags = classify_catom(abstract)
        assert flags.convex and not flags.monotone and not flags.antimonotone

    @pytest.mark.parametrize("n", [8, 9])
    @pytest.mark.parametrize("lo, hi", [(2, 4), (3, 6)])
    def test_cardinality_window_member_count(self, n, lo, hi):
        # Every member is [P, Q] with |P| = lo, |Q| = hi: 420 for 2..4 of 8.
        atoms = ",".join(f"x{i}" for i in range(n))
        members = build_abstract(parse_constraint(f"{lo}{{{atoms}}}{hi}")).lattices
        assert len(members) == comb(n, lo) * comb(n - lo, hi - lo)
        assert all(len(m.base) == lo and len(m.top) == hi for m in members)

    @pytest.mark.parametrize("n, lo", [(8, 4), (9, 3), (9, 5)])
    def test_complemented_lower_bound_member_count(self, n, lo):
        # Below lo of n: every member is [{}, Q] with |Q| = lo - 1.
        atoms = ",".join(f"y{i}" for i in range(n))
        members = build_abstract(
            complement(parse_constraint(f"{lo}{{{atoms}}}{n}"))).lattices
        assert len(members) == comb(n, lo - 1)
        assert all(not m.base and len(m.top) == lo - 1 for m in members)

    def test_full_power_set_is_one_member(self):
        atoms = frozenset(f"x{i}" for i in range(12))
        abstract = build_abstract(CAtom(atoms, iter_subsets(atoms)))
        assert abstract.lattices == frozenset((PrefixedPowerSet(frozenset(), atoms),))
        flags = classify_catom(abstract)
        assert flags.monotone and flags.antimonotone and flags.convex

    def test_order_independent(self):
        rng = random.Random(7)
        for _ in range(50):
            catom = generators.random_catom(rng, max_domain=5)
            shuffled = list(catom.solutions)
            rng.shuffle(shuffled)
            assert build_abstract(CAtom(catom.domain, shuffled)) == build_abstract(catom)

    def test_matches_definition_exhaustively_on_three_atoms(self):
        for catom in all_families("abc"):
            assert build_abstract(catom).lattices == oracles.brute_abstract(catom)

    def test_matches_definition_on_random_larger_instances(self):
        rng = random.Random(20240818)
        for _ in range(150):
            catom = generators.random_catom(rng, max_domain=6)
            assert build_abstract(catom).lattices == oracles.brute_abstract(catom)

    def test_matches_definition_on_random_families_up_to_seven_atoms(self):
        rng = random.Random(1984)
        for _ in range(40):
            catom = generators.random_catom(rng, tuple("abcdefg"), max_domain=7)
            assert build_abstract(catom).lattices == oracles.brute_abstract(catom)

    def test_offset_reference_matches_definition(self):
        rng = random.Random(1985)
        for _ in range(200):
            catom = generators.random_catom(rng, max_domain=5)
            assert oracles.offset_abstract(catom) == oracles.brute_abstract(catom)

    @pytest.mark.parametrize("n", [8, 9, 10])
    def test_matches_offset_reference_on_small_offsets(self, n):
        # Dense families, where the cost of merging used to follow the 3^n
        # admissible cubes: the full power set, one or a few non-solutions.
        rng = random.Random(n)
        atoms = [f"x{i}" for i in range(n)]
        subsets = list(iter_subsets(atoms))
        for size in (0, 1, 1, 2, 3, 5):
            off = rng.sample(subsets, size)
            catom = CAtom(atoms, [s for s in subsets if s not in off])
            assert build_abstract(catom).lattices == oracles.offset_abstract(catom)


def differential_feed(seed: int, count: int):
    """Random c-atoms of up to six atoms, after every unsatisfiable family of
    up to six atoms and the satisfiable one over the empty domain."""
    yield from (CAtom("abcdef"[:n], ()) for n in range(7))
    yield CAtom((), [()])
    rng = random.Random(seed)
    for _ in range(count):
        yield generators.random_catom(rng, max_domain=6)


class TestMaskReadsAgainstBruteForce:
    """Each read of the stored masks against the definitional oracles."""

    def test_reads_match_the_oracles(self):
        for catom in differential_feed(2024, 150):
            members = oracles.brute_abstract(catom)
            abstract = build_abstract(catom)
            assert abstract.lattices == members
            assert AbstractCAtom(catom.domain, members) == abstract
            assert expand(abstract) == catom
            flags = classify_catom(abstract)
            assert (flags.monotone, flags.antimonotone, flags.convex) == (
                oracles.brute_monotone(catom), oracles.brute_antimonotone(catom),
                oracles.brute_convex(catom))
            assert {(frozenset(lit.item for lit in body if lit.positive),
                     frozenset(lit.item for lit in body if not lit.positive))
                    for body in minimal_dnf(catom)} == {
                (m.base, catom.domain - m.top) for m in members}
            for subset in iter_subsets(catom.domain):
                for interp in (subset, subset | {"outside"}):
                    covering = frozenset(m for m in members if oracles.brute_covers(m, subset))
                    assert satisfiable_sets(abstract, interp) == {m.base for m in covering}

    def test_mask_routes_build_no_sublattice_object(self, monkeypatch):
        # Only ``lattices`` renders members.
        catom = parse_constraint("2 {a, b, c, d} 3")

        def answers():  # on a new program, so its compiled form is built here
            program = load_program("a :- not b. b :- not a. c :- 2 {a, b, c, d} 3.")
            abstract = build_abstract(catom)
            return (abstract.primes, expand(abstract), satisfiable_sets(abstract, "ab"),
                    satisfiable_sets(abstract, "abc"), classify_catom(abstract),
                    minimal_dnf(catom),
                    stable_models(program), is_stable(program, "ac"),
                    reduct_size_bound(program))

        expected = answers()

        def refuse(*args):
            raise AssertionError("a sublattice object was built")

        monkeypatch.setattr(PrefixedPowerSet, "__init__", refuse)
        assert answers() == expected
        with pytest.raises(AssertionError, match="sublattice object"):
            build_abstract(catom).lattices


def seeded_tables(seed: int, count: int):
    """C-atoms over up to seven atoms from random truth tables of four shapes.

    A uniform table, a dense one (the OR of three), a sparse one (the AND
    of three), and the complement of one to three points.
    """
    rng = random.Random(seed)
    for k in range(count):
        n = rng.randint(0, 7)
        size = 1 << n
        full = (1 << size) - 1
        draws = [rng.getrandbits(size) for _ in range(3)]
        shape = k % 4
        if shape == 0:
            table = draws[0]
        elif shape == 1:
            table = draws[0] | draws[1] | draws[2]
        elif shape == 2:
            table = draws[0] & draws[1] & draws[2]
        else:
            table = full
            for _ in range(rng.randint(1, 3)):
                table &= ~(1 << rng.randrange(size))
        yield CAtom.from_table([f"x{i}" for i in range(n)], table)


class TestShannonKernel:
    """The one prime kernel, unrestricted and restricted to a point."""

    def test_unrestricted_run_matches_the_definition(self):
        for catom in seeded_tables(29, 160):
            atoms, groups = checked_primes(catom)
            cubes = cube_list(groups)
            assert frozenset(pps(select(atoms, b), select(atoms, f))
                             for b, f in cubes) == oracles.brute_abstract(catom), catom
            assert cubes == sorted(cubes, key=lambda c: (select(atoms, c[0]),
                                                         select(atoms, c[1])))

    def test_restricted_run_is_the_covering_primes(self):
        rng = random.Random(2909)
        for _ in range(120):
            catom = generators.random_catom(rng, max_domain=6)
            abstract = build_abstract(catom)
            members = oracles.brute_abstract(catom)
            for x in range(1 << len(catom.atoms)):
                restricted = [(x & ~free, free) for free in checked_primes(catom, x)[1]]
                assert sorted(restricted) == sorted(abstract.covering(x))
                assert frozenset(pps(select(catom.atoms, b), select(catom.atoms, f))
                                 for b, f in restricted) == frozenset(
                    m for m in members if oracles.brute_covers(m, select(catom.atoms, x)))

    def test_grouping_is_the_callers_own(self):
        # Up to three atoms, the kernel answers from memos that every later
        # run shares; a caller changing its grouping must change no answer.
        catom = CAtom("ab", [{"a"}, {"b"}, {"a", "b"}])
        expected = build_abstract(catom)
        checked_primes(catom)[1][3] = 1
        assert build_abstract(catom) == expected
        assert checked_primes(catom)[1] == dict(expected.groups)

    def test_prime_count_is_the_popcount_of_the_grouping(self):
        for catom in seeded_tables(31, 160):
            abstract = build_abstract(catom)
            count = sum(bases.bit_count() for _, bases in abstract.groups)
            assert count == len(abstract.primes) == len(set(abstract.primes)), catom
            per_prime: dict[int, int] = {}  # each prime's table, ORed into its base's
            for base, free in abstract.primes:
                cube = sum(1 << (base | x) for x in range(free + 1) if not x & ~free)
                per_prime[base] = per_prime.get(base, 0) | cube
            assert abstract.tables == per_prime, catom


class TestIrredundancyCheck:
    """The check on the kernel's grouping raises exactly when the cube-level
    reference, ``oracles.brute_irredundant``, does."""

    @staticmethod
    def redundant(cubes) -> bool:
        """Does the cube-level reference refuse the list?"""
        try:
            oracles.brute_irredundant(cubes)
        except ValueError:
            return True
        return False

    @staticmethod
    def refused(cubes, n) -> bool:
        try:
            check_irredundant(grouped(cubes), n)
        except ValueError:
            return True
        return False

    @staticmethod
    def nested(rng, cubes):
        """A cube inside a drawn one, or one holding it when that has no free atom."""
        base, free = rng.choice(cubes)
        if free:
            grown = rng.choice([s for s in range(1, free + 1) if s & free == s])
            narrowed = rng.choice([s for s in range(free + 1) if s & free & ~grown == s])
            return base | grown, narrowed
        shrunk = rng.choice([s for s in range(1, base + 1) if s & base == s])
        return base & ~shrunk, shrunk

    def test_grouped_check_matches_the_cube_reference(self):
        rng = random.Random(3203)
        lists = injected = 0
        for catom in seeded_tables(32, 300):
            n = len(catom.atoms)
            feeds = [cube_list(checked_primes(catom)[1])]
            feeds += [[(x & ~free, free) for free in checked_primes(catom, x)[1]]
                      for x in range(1 << n)]
            for cubes in feeds:
                assert not self.redundant(cubes) and not self.refused(cubes, n), catom
                lists += 1
                drawn = [c for c in cubes if c != (0, 0)]  # the empty set's point nests nothing
                if drawn:
                    extra = cubes + [self.nested(rng, drawn)]
                    assert self.redundant(extra) and self.refused(extra, n), (catom, extra)
                    injected += 1
        assert lists > 8000 and injected > 4000

    def test_random_cube_lists(self):
        rng = random.Random(3211)
        verdicts = set()
        for _ in range(3000):
            n = rng.randint(0, 4)
            cubes = []
            for _ in range(rng.randint(1, 5)):
                free = rng.getrandbits(n) if n else 0
                cubes.append((rng.getrandbits(n) & ~free if n else 0, free))
            verdicts.add(self.redundant(cubes))
            assert self.refused(cubes, n) == self.redundant(cubes), cubes
        assert verdicts == {False, True}


class TestExpandAndSatisfaction:
    def test_round_trip_examples(self):
        for catom in (LATTICE_FAMILY, AT_LEAST_ONE, MIXED_FAMILY, PUNCTURED_CUBE):
            assert expand(build_abstract(catom)) == catom

    def test_empty_lattices_expand_to_unsatisfiable(self):
        assert expand(AbstractCAtom("ab", ())) == CAtom("ab", ())

    def test_satisfies_abstract_examples(self):
        abstract = build_abstract(LATTICE_FAMILY)
        assert satisfiable_sets(abstract, {"b", "c"})
        assert not satisfiable_sets(build_abstract(CAtom.elementary("a")), set())

    def test_round_trip_random(self):
        rng = random.Random(99)
        for _ in range(300):
            catom = generators.random_catom(rng, max_domain=6)
            abstract = build_abstract(catom)
            assert expand(abstract) == catom
            for interp in iter_subsets(catom.domain):
                assert bool(satisfiable_sets(abstract, interp)) == satisfies_catom(
                    interp, catom)


class TestSatisfiableSets:
    def test_sum_atom(self):
        catom = CAtom(
            ("p(-1)", "p(1)", "p(2)"),
            [{"p(1)"}, {"p(2)"}, {"p(-1)", "p(2)"}, {"p(1)", "p(2)"},
             {"p(-1)", "p(1)", "p(2)"}])
        abstract = build_abstract(catom)
        interp = {"p(-1)", "p(1)", "p(2)"}
        assert satisfiable_sets(abstract, interp) == frozenset(
            (frozenset(("p(2)",)),))

    def test_elementary(self):
        abstract = build_abstract(CAtom.elementary("a"))
        assert satisfiable_sets(abstract, {"a"}) == frozenset((frozenset("a"),))

    def test_both_members_cover(self):
        abstract = build_abstract(AT_LEAST_ONE)
        assert satisfiable_sets(abstract, {"a", "b"}) == frozenset(
            (frozenset("a"), frozenset("b")))

    def test_empty_iff_unsatisfied(self):
        rng = random.Random(4)
        for _ in range(100):
            catom = generators.random_catom(rng, max_domain=5)
            abstract = build_abstract(catom)
            for interp in iter_subsets(catom.domain):
                empty = not satisfiable_sets(abstract, interp)
                assert empty == (not satisfies_catom(interp, catom))

    def test_base_to_restriction_interval_is_admissible(self):
        # Any covering base W keeps everything between W and the restriction
        # inside the solution family.
        rng = random.Random(5)
        for _ in range(100):
            catom = generators.random_catom(rng, max_domain=5)
            abstract = build_abstract(catom)
            for interp in iter_subsets(catom.domain):
                for base in satisfiable_sets(abstract, interp):
                    for extra in iter_subsets(interp - base):
                        assert base | extra in catom.solutions


class TestClassification:
    def test_monotone_example(self):
        assert classify_catom(build_abstract(AT_LEAST_ONE)).monotone

    def test_antimonotone_example(self):
        flags = classify_catom(build_abstract(CAtom("a", [()])))
        assert flags.antimonotone

    def test_exactly_one_is_convex_only(self):
        flags = classify_catom(build_abstract(CAtom("ab", [{"a"}, {"b"}])))
        assert flags.convex and not flags.monotone and not flags.antimonotone

    def test_matches_definitions_exhaustively_on_three_atoms(self):
        for catom in all_families("abc"):
            flags = classify_catom(build_abstract(catom))
            assert flags.monotone == oracles.brute_monotone(catom)
            assert flags.antimonotone == oracles.brute_antimonotone(catom)
            assert flags.convex == oracles.brute_convex(catom)

    def test_matches_definitions_on_random_instances(self):
        rng = random.Random(11)
        for _ in range(300):
            catom = generators.random_catom(rng, max_domain=6)
            flags = classify_catom(build_abstract(catom))
            assert flags.monotone == oracles.brute_monotone(catom)
            assert flags.antimonotone == oracles.brute_antimonotone(catom)
            assert flags.convex == oracles.brute_convex(catom)

    def test_antichain_members_need_not_be_convex(self):
        # Bases {d},{f},{a,c} and tops {adf},{cdf},{ac} are antichains, yet
        # {c,d} is missing between {d} and {c,d,f}: a pairwise test on the
        # members alone would wrongly report convexity.
        catom = CAtom(
            "acdf",
            [{"a", "c"}, {"a", "d"}, {"a", "d", "f"}, {"c", "d", "f"},
             {"c", "f"}, {"d"}, {"d", "f"}, {"f"}])
        assert build_abstract(catom).lattices == frozenset(
            (pps("d", "af"), pps("f", "cd"), pps("ac", "")))
        assert not oracles.brute_convex(catom)
        assert not classify_catom(build_abstract(catom)).convex

    def test_comparable_bases_are_not_convex(self):
        # {} and {a,b} without the sets between them: base {} lies below
        # base {a,b}, and the bounds criterion must still say non-convex.
        abstract = build_abstract(CAtom("ab", [(), {"a", "b"}]))
        assert abstract.lattices == frozenset((pps("", ""), pps("ab", "")))
        assert not classify_catom(abstract).convex


class TestSignsAndClass:
    """The one truth-table pass against the definitions: its signs are the
    atoms of the brute-force members' bases and outside their tops, and its
    class the brute-force closure checks."""

    @staticmethod
    def feed():
        for n in range(8):
            atoms = [f"x{i}" for i in range(n)]
            full = (1 << (1 << n)) - 1
            # The empty family, the full one, and the complement of one set.
            yield CAtom.from_table(atoms, 0)
            yield CAtom.from_table(atoms, full)
            yield CAtom.from_table(atoms, full & ~(1 << (full.bit_length() // 3)))
        yield from seeded_tables(30, 120)

    def test_matches_the_definitions_on_seeded_tables(self):
        for catom in self.feed():
            in_base, outside_top, flags = signs_and_class(catom.table, len(catom.atoms))
            members = oracles.brute_abstract(catom)
            assert select(catom.atoms, in_base) == tuple(
                sorted(frozenset().union(*(m.base for m in members)))), catom
            assert select(catom.atoms, outside_top) == tuple(
                sorted(frozenset().union(*(catom.domain - m.top for m in members)))), catom
            assert (flags.monotone, flags.antimonotone, flags.convex) == (
                oracles.brute_monotone(catom), oracles.brute_antimonotone(catom),
                oracles.brute_convex(catom)), catom

    def test_classify_catom_answers_a_hand_built_form_over_21_atoms(self):
        # Wider than the abstract_domain guard: the form's own tables are read.
        wide = frozenset(f"x{i}" for i in range(21))
        x0 = frozenset({"x0"})
        at_least = AbstractCAtom(wide, (PrefixedPowerSet(x0, wide - x0),))
        assert classify_catom(at_least) == CAtomClass(True, False, True)
        gap = AbstractCAtom(wide, (pps("", ""), PrefixedPowerSet({"x0", "x1"}, ())))
        assert classify_catom(gap) == CAtomClass(False, False, False)


class TestDnf:
    """The minimal DNF is the bodies of the translation's ``__theta_`` defining rules."""

    def test_at_least_one_simplifies_to_two_atoms(self):
        assert minimal_dnf(AT_LEAST_ONE) == {(Literal.atom("a"),), (Literal.atom("b"),)}

    def test_mixed_family_keeps_two_disjuncts(self):
        a, d = Literal.atom("a"), Literal.atom("d")
        not_a, not_b, not_c, not_d = map(Literal.negated_atom, "abcd")
        assert minimal_dnf(MIXED_FAMILY) == {(a, not_d), (d, not_a, not_b, not_c)}

    def test_semantic_equivalence(self):
        rng = random.Random(21)
        for _ in range(200):
            catom = generators.random_catom(rng, max_domain=5)
            bodies = minimal_dnf(catom)
            for interp in iter_subsets(catom.domain):
                expected = satisfies_catom(interp, catom)
                assert any(satisfies_body(interp, body) for body in bodies) == expected


def test_abstract_of_cache_is_bounded():
    assert abstract_of.cache_info().maxsize == ABSTRACT_CACHE_SIZE
    for i in range(ABSTRACT_CACHE_SIZE + 10):
        abstract_of(CAtom.elementary(f"cached{i}"))
    info = abstract_of.cache_info()
    assert info.currsize <= info.maxsize


def test_compactness_conjecture_is_report_only():
    rng = random.Random(41)
    violations = []
    for _ in range(500):
        catom = generators.random_catom(rng, max_domain=6)
        abstract = build_abstract(catom)
        if len(abstract.lattices) > len(catom.solutions):
            violations.append(catom)
    if violations:
        warnings.warn(f"{len(violations)} instances with more sublattices than solutions")


def test_abstract_form_can_outgrow_the_solution_family():
    # Fifteen solutions, sixteen maximal sublattices; confirmed against the
    # definitional oracle.  Compactness is typical, not guaranteed.
    catom = CAtom(
        "abdef",
        [{"a", "b"}, {"a", "b", "d"}, {"a", "b", "e"}, {"a", "b", "f"},
         {"a", "d"}, {"a", "d", "e", "f"}, {"a", "e"}, {"a", "e", "f"},
         {"b", "d", "e"}, {"b", "d", "f"}, {"d"}, {"d", "e"},
         {"d", "e", "f"}, {"e"}, {"f"}])
    abstract = build_abstract(catom)
    assert len(catom.solutions) == 15
    assert len(abstract.lattices) == 16
    assert abstract.lattices == oracles.brute_abstract(catom)
    assert expand(abstract) == catom
