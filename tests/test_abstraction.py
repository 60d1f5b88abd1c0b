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
    Dnf,
    Disjunct,
    PrefixedPowerSet,
    abstract_of,
    abstract_satisfiable_sets,
    build_abstract,
    check_irredundant,
    classify_catom,
    dnf,
    expand,
    is_maximally_simplified,
    satisfiable_sets,
    satisfies_abstract,
    simplified_dnf,
)
from catlp.core import CAtom, complement, iter_subsets, satisfies_catom
from catlp.errors import GuardError
from catlp.fixpoint import cond_satisfies
from catlp.golden import (
    AT_LEAST_ONE,
    LATTICE_FAMILY,
    MIXED_FAMILY,
    PUNCTURED_CUBE,
    pps,
)
from catlp.parser import parse_constraint

import generators
import oracles


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


class TestPrefixedPowerSet:
    def test_base_and_free_must_be_disjoint(self):
        with pytest.raises(ValueError):
            PrefixedPowerSet(frozenset("a"), frozenset("ab"))

    def test_covers_free_subsets(self):
        assert pps("", "bc").covers({"b"})

    def test_covers_bottom(self):
        member = pps("bc", "a")
        assert member.covers(member.base)

    def test_covers_rejects_outside_atoms(self):
        assert not pps("c", "ab").covers({"c", "d"})

    def test_inclusion_examples(self):
        assert pps("b", "c").included_in(pps("", "bc"))
        assert pps("a", "b").included_in(pps("a", "b"))
        assert not pps("a", "b").included_in(pps("b", "a"))

    @given(st.frozensets(st.sampled_from("abcd"), max_size=3),
           st.frozensets(st.sampled_from("abcd"), max_size=3),
           st.frozensets(st.sampled_from("abcd"), max_size=3),
           st.frozensets(st.sampled_from("abcd"), max_size=3))
    def test_inclusion_matches_enumeration(self, b1, f1, b2, f2):
        p = PrefixedPowerSet(b1, f1 - b1)
        q = PrefixedPowerSet(b2, f2 - b2)
        assert p.included_in(q) == oracles.brute_included(p, q)


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
        # checked_primes runs the redundancy check on the masks; the form
        # built from them does not run it again.
        calls = []
        kernel_check = abstraction_module.check_irredundant

        def counted(cubes):
            calls.append(1)
            return kernel_check(cubes)

        monkeypatch.setattr(abstraction_module, "check_irredundant", counted)
        for catom in (LATTICE_FAMILY, PUNCTURED_CUBE, parse_constraint("2 {a, b, c, d} 3")):
            calls.clear()
            assert build_abstract(catom).lattices == oracles.brute_abstract(catom)
            assert len(calls) == 1

    def test_mask_check_rejects_a_redundant_prime_list(self):
        # The cubes over atoms a = bit 0, b = bit 1, c = bit 2 of the two
        # cases above, fed to the helper that both routes call.
        with pytest.raises(ValueError, match="redundant"):
            check_irredundant([(0b000, 0b011), (0b001, 0b010)])
        with pytest.raises(ValueError, match="redundant"):
            check_irredundant([(0b001, 0b010), (0b001, 0b110)])
        with pytest.raises(ValueError, match="redundant"):  # two atoms wider
            check_irredundant([(0b011, 0b000), (0b000, 0b111), (0b100, 0b000)])
        # Equal free sets, or a wider free set at another base, are no inclusion.
        check_irredundant([(0b001, 0b010), (0b100, 0b010), (0b010, 0b101)])
        check_irredundant([(0b001, 0b000), (0b010, 0b001), (0b000, 0b100)])

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


class TestExpandAndSatisfaction:
    def test_round_trip_examples(self):
        for catom in (LATTICE_FAMILY, AT_LEAST_ONE, MIXED_FAMILY, PUNCTURED_CUBE):
            assert expand(build_abstract(catom)) == catom

    def test_empty_lattices_expand_to_unsatisfiable(self):
        assert expand(AbstractCAtom("ab", ())) == CAtom("ab", ())

    def test_satisfies_abstract_examples(self):
        abstract = build_abstract(LATTICE_FAMILY)
        assert satisfies_abstract({"b", "c"}, abstract)
        assert not satisfies_abstract(set(), build_abstract(CAtom.elementary("a")))

    def test_round_trip_random(self):
        rng = random.Random(99)
        for _ in range(300):
            catom = generators.random_catom(rng, max_domain=6)
            abstract = build_abstract(catom)
            assert expand(abstract) == catom
            for interp in iter_subsets(catom.domain):
                assert satisfies_abstract(interp, abstract) == satisfies_catom(
                    interp, catom)


class TestSatisfiableSets:
    def test_sum_atom(self):
        catom = CAtom(
            ("p(-1)", "p(1)", "p(2)"),
            [{"p(1)"}, {"p(2)"}, {"p(-1)", "p(2)"}, {"p(1)", "p(2)"},
             {"p(-1)", "p(1)", "p(2)"}])
        abstract = build_abstract(catom)
        interp = {"p(-1)", "p(1)", "p(2)"}
        only = PrefixedPowerSet(
            frozenset(("p(2)",)), frozenset(("p(-1)", "p(1)")))
        assert abstract_satisfiable_sets(abstract, interp) == frozenset((only,))
        assert satisfiable_sets(abstract, interp) == frozenset(
            (frozenset(("p(2)",)),))

    def test_elementary(self):
        abstract = build_abstract(CAtom.elementary("a"))
        assert abstract_satisfiable_sets(abstract, {"a"}) == frozenset((pps("a", ""),))

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
                empty = not abstract_satisfiable_sets(abstract, interp)
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


class TestDnf:
    def test_at_least_one_simplifies_to_two_atoms(self):
        formula = simplified_dnf(build_abstract(AT_LEAST_ONE))
        assert formula.disjuncts == (
            Disjunct(frozenset("a"), frozenset()),
            Disjunct(frozenset("b"), frozenset()),
        )

    def test_mixed_family_keeps_two_disjuncts(self):
        formula = simplified_dnf(build_abstract(MIXED_FAMILY))
        assert set(formula.disjuncts) == {
            Disjunct(frozenset("d"), frozenset("abc")),
            Disjunct(frozenset("a"), frozenset("d")),
        }

    def test_simplified_form_is_maximally_simplified(self):
        for catom in (LATTICE_FAMILY, AT_LEAST_ONE, MIXED_FAMILY, PUNCTURED_CUBE):
            assert is_maximally_simplified(simplified_dnf(build_abstract(catom)))

    def test_raw_form_can_simplify(self):
        assert not is_maximally_simplified(dnf(AT_LEAST_ONE))

    def test_merging_pair_detected(self):
        formula = Dnf((
            Disjunct(frozenset("ab"), frozenset()),
            Disjunct(frozenset("a"), frozenset("b")),
        ))
        assert not is_maximally_simplified(formula)

    def test_semantic_equivalence(self):
        rng = random.Random(21)
        for _ in range(200):
            catom = generators.random_catom(rng, max_domain=5)
            raw = dnf(catom)
            slim = simplified_dnf(build_abstract(catom))
            for interp in iter_subsets(catom.domain):
                expected = satisfies_catom(interp, catom)
                assert raw.satisfied_by(interp) == expected
                assert slim.satisfied_by(interp) == expected

    def test_string_rendering(self):
        formula = simplified_dnf(build_abstract(MIXED_FAMILY))
        assert str(formula) == "(a & not d) | (d & not a & not b & not c)"
        assert str(Dnf(())) == "false"
        assert str(Dnf((Disjunct((), ()),))) == "(true)"


def test_abstract_of_cache_is_bounded():
    assert abstract_of.cache_info().maxsize == ABSTRACT_CACHE_SIZE
    for i in range(ABSTRACT_CACHE_SIZE + 10):
        abstract_of(CAtom.elementary(f"cached{i}"))
    info = abstract_of.cache_info()
    assert info.currsize <= info.maxsize


def test_conditional_satisfaction_bridge():
    # The abstract form answers conditional satisfaction through inclusion of
    # the [lower, restriction] interval in some sublattice.
    from catlp.fixpoint import cond_satisfies_abstract

    rng = random.Random(31)
    for _ in range(300):
        catom = generators.random_catom(rng, max_domain=5)
        abstract = build_abstract(catom)
        domain = sorted(catom.domain)
        upper = frozenset(a for a in domain if rng.random() < 0.6)
        lower = frozenset(a for a in upper if rng.random() < 0.6)
        assert cond_satisfies_abstract(lower, upper, abstract) == cond_satisfies(
            lower, upper, catom)


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
