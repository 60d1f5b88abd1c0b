import random
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from catlp.core import (
    CAtom,
    CandidateBits,
    CompiledCAtom,
    FALSE_CATOM,
    Literal,
    Program,
    Rule,
    candidate_models,
    classify_program,
    complement,
    is_minimal_model,
    is_model,
    is_supported,
    is_supported_model,
    iter_subsets,
    satisfies_catom,
    satisfies_rule,
)
from catlp.errors import GUARD_LIMITS, GuardError, check_guard
from catlp import golden
from catlp.golden import LATTICE_FAMILY, SUM_LOOP, disjunctive_fact_program
from catlp.parser import load_program, parse_constraint
from catlp.reduct import gl_reduct, theta_atom

import generators

SUM_GE_ONE = CAtom(
    ("p(-1)", "p(1)", "p(2)"),
    [{"p(1)"}, {"p(2)"}, {"p(-1)", "p(2)"}, {"p(1)", "p(2)"},
     {"p(-1)", "p(1)", "p(2)"}])


@st.composite
def catoms(draw, max_domain=5):
    domain = draw(st.frozensets(st.sampled_from("abcdef"), max_size=max_domain))
    subsets = list(iter_subsets(domain))
    solutions = draw(st.frozensets(st.sampled_from(subsets)))
    return CAtom(domain, solutions)


interpretations = st.frozensets(st.sampled_from("abcdefgh"), max_size=6)


class TestCAtom:
    def test_solutions_must_stay_in_domain(self):
        with pytest.raises(ValueError):
            CAtom(frozenset("a"), [{"b"}])

    def test_elementary(self):
        catom = CAtom.elementary("a")
        assert catom.is_elementary
        assert not CAtom(frozenset("a"), [set(), {"a"}]).is_elementary

    def test_false_catom(self):
        assert FALSE_CATOM.is_unsatisfiable
        assert not satisfies_catom(frozenset(), FALSE_CATOM)

    def test_table_bit_x_is_the_subset_with_mask_x(self):
        catom = CAtom("cab", [set(), {"b"}, {"a", "c"}])
        assert catom.atoms == ("a", "b", "c")
        assert catom.table == 1 << 0b000 | 1 << 0b010 | 1 << 0b101
        assert CAtom.elementary("a").table == 0b10

    @given(catoms())
    def test_rebuilt_from_its_solutions(self, catom):
        again = CAtom(catom.domain, catom.solutions)
        assert again == catom and hash(again) == hash(catom)
        assert again.solutions == catom.solutions

    def test_from_table_agrees_with_the_family_constructor(self):
        rng = random.Random(29)
        for _ in range(300):
            catom = generators.random_catom(rng, max_domain=6)
            family = list(catom.solutions)
            rng.shuffle(family)
            explicit = CAtom(catom.domain, family + family[:2])  # repeats are one solution
            built = CAtom.from_table(sorted(catom.domain), catom.table)
            assert built == explicit and hash(built) == hash(explicit)
            assert built.digest == explicit.digest
            assert built.solutions == explicit.solutions == catom.solutions
            assert CAtom.from_table(catom.domain, catom.table ^ 1) != catom

    def test_from_table_rejects_bits_past_the_subsets(self):
        assert CAtom.from_table("ab", 0b1111).solutions == frozenset(iter_subsets("ab"))
        for table in (1 << 4, -1):
            with pytest.raises(ValueError):
                CAtom.from_table("ab", table)

    def test_from_table_at_the_domain_limit_allocates_no_empty_table(self):
        # An empty table over 24 atoms is 2 MB of bytes and 2 MB as an int;
        # a one-bit table needs neither.
        domain = [f"x{i}" for i in range(GUARD_LIMITS["catom_domain"])]
        tracemalloc.start()
        try:
            catom = CAtom.from_table(domain, 1 << 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000
        atoms = sorted(domain)
        assert catom.atoms == tuple(atoms)
        assert catom == CAtom(domain, [{atoms[0], atoms[2]}])  # subset mask 5

    def test_digests_of_the_golden_catoms_are_pinned(self):
        # The __theta_/__beta_ names are "__theta_" + digest, a hash of the
        # sorted domain's repr and the table's fixed-width bytes.
        assert {name: getattr(golden, name).digest for name in (
            "LATTICE_FAMILY", "AT_LEAST_ONE", "MIXED_FAMILY", "PUNCTURED_CUBE")} == {
            "LATTICE_FAMILY": "c062c8ac56", "AT_LEAST_ONE": "8e66a01824",
            "MIXED_FAMILY": "a87d74751c", "PUNCTURED_CUBE": "5e16fd75e4"}
        assert FALSE_CATOM.digest == "504441e089"
        assert {text: parse_constraint(text).digest for text in (
            "2 {a, b, not c=2} 3", "#sum{p(-1)=-1, p(1)=1, p(2)=2} >= 1",
            "not [a,b : {a}]", "[ : {}]", "[a : ]")} == {
            "2 {a, b, not c=2} 3": "ec24199445",
            "#sum{p(-1)=-1, p(1)=1, p(2)=2} >= 1": "51453ee859",
            "not [a,b : {a}]": "09190ae277", "[ : {}]": "8451c89106", "[a : ]": "94a7cbff94"}

    def test_every_catom_over_three_atoms_has_its_own_digest(self):
        catoms = [CAtom.from_table(domain, table)
                  for domain in iter_subsets("abc")
                  for table in range(1 << (1 << len(domain)))]
        assert len(catoms) == len(set(catoms)) == 318
        named = {FALSE_CATOM, parse_constraint("[ : {}]"), parse_constraint("[a : ]")}
        assert named <= set(catoms)
        assert len({catom.digest for catom in catoms}) == 318

    def test_equal_catoms_share_a_digest(self):
        rng = random.Random(31)
        for _ in range(200):
            catom = generators.random_catom(rng, max_domain=6)
            domain, family = sorted(catom.domain), list(catom.solutions)
            rng.shuffle(domain)
            rng.shuffle(family)
            built = CAtom(domain, family)
            rng.shuffle(domain)
            tabled = CAtom.from_table(domain, catom.table)
            assert built == tabled == catom
            assert built.digest == tabled.digest == catom.digest

    def test_naming_a_dense_twenty_atom_complement_is_linear_in_its_table(self):
        # The name hashes the table as bytes; none of the 2**20 - 1 solutions is decoded.
        dense = complement(CAtom([f"x{i}" for i in range(20)], [{"x0"}]))
        start = time.perf_counter()
        name = theta_atom(dense)
        assert time.perf_counter() - start < 0.1
        assert name == "__theta_" + dense.digest and len(dense.digest) == 10

    def test_repr_prints_the_table_in_hex(self):
        small = CAtom("ab", [{"a"}, {"b"}, {"a", "b"}])
        assert repr(small) == "CAtom(atoms=('a', 'b'), table=0xe)"
        for n in (14, 20, GUARD_LIMITS["catom_domain"]):
            # Over 14 atoms a dense table passes the 4,300-digit limit of decimal text.
            dense = CAtom.from_table([f"x{i}" for i in range(n)], (1 << (1 << n)) - 3)
            assert repr(dense).endswith(format(dense.table, "#x") + ")")
            program = Program((Rule(("h",), (Literal.constraint(dense),)),))
            assert repr(dense) in repr(program)

    def test_domain_guard(self):
        wide = [f"x{i}" for i in range(GUARD_LIMITS["catom_domain"] + 1)]
        for build in (lambda: CAtom(wide, [()]), lambda: CAtom.from_table(wide, 1)):
            with pytest.raises(GuardError) as caught:
                build()
            assert (caught.value.guard, caught.value.actual) == ("catom_domain", len(wide))


class TestSatisfaction:
    def test_sum_atom_satisfied_by_full_interpretation(self):
        assert satisfies_catom({"p(-1)", "p(1)", "p(2)"}, SUM_GE_ONE)

    def test_empty_set_can_satisfy(self):
        assert satisfies_catom(set(), CAtom(frozenset("a"), [set(), {"a"}]))

    def test_family_membership_is_exact(self):
        assert not satisfies_catom({"a", "b"}, LATTICE_FAMILY)

    def test_rule_with_unsatisfied_body(self):
        rule = Rule(("a",), (Literal.atom("b"),))
        assert satisfies_rule({"a"}, rule)

    def test_rule_with_constraint_body(self):
        catom = CAtom("bc", [set(), {"b"}, {"b", "c"}])
        rule = Rule(("d",), (Literal.constraint(catom),))
        assert satisfies_rule({"b", "c", "d"}, rule)

    def test_disjunctive_elementary_heads(self):
        rule = disjunctive_fact_program().rules[0]
        assert satisfies_rule({"a", "b"}, rule)

    def test_negated_constraint_literal(self):
        lit = Literal.negated_constraint(CAtom.elementary("a"))
        rule = Rule(("x",), (lit,))
        assert satisfies_rule({"a"}, rule)  # body false
        assert satisfies_rule({"x"}, rule)  # head true
        assert not satisfies_rule(set(), rule)  # body true, head false


class TestModelChecks:
    def test_pair_choice_model_not_minimal(self):
        program = load_program("[a,b : {a}, {b}, {a,b}].")
        assert is_model({"a", "b"}, program)
        assert not is_minimal_model({"a", "b"}, program)
        assert is_minimal_model({"a"}, program)

    def test_empty_program(self):
        empty = Program(())
        assert is_model(set(), empty)
        assert is_minimal_model(set(), empty)
        assert is_supported_model(set(), empty)

    def test_reduct_minimal_model(self):
        program = disjunctive_fact_program()
        reduct = gl_reduct(program, {"a", "b"})
        beta_a = next(a for a in reduct.gamma if "beta" in a
                      and Rule(("a",), (Literal.atom(a),)) in reduct.rules)
        assert is_minimal_model({"a", beta_a}, reduct)

    def test_junk_atoms_break_minimality(self):
        program = load_program("a.")
        assert is_model({"a", "zz"}, program)
        assert not is_minimal_model({"a", "zz"}, program)

    def test_supported_needs_a_firing_rule(self):
        program = load_program("a :- b. b :- a.")
        assert is_supported_model({"a", "b"}, program)
        assert not is_supported_model({"a"}, load_program("a :- b."))

    def test_support_alone_does_not_test_the_model(self):
        program = load_program("a. b :- a.")
        assert is_supported(frozenset("a"), program)
        assert not is_supported_model({"a"}, program)

    def test_minimal_model_guard_fires_before_enumeration(self):
        program = Program(tuple(Rule((f"x{i}",)) for i in range(23)))
        with pytest.raises(GuardError) as caught:
            is_minimal_model(program.language, program)
        assert (caught.value.guard, caught.value.actual) == ("minimal_models", 23)

    def test_minimal_models_at_the_guard_limit(self):
        size = GUARD_LIMITS["minimal_models"]
        pairs = Program(tuple(Rule((f"a{i}", f"b{i}")) for i in range(size)))
        candidate = frozenset(f"a{i}" for i in range(size))
        assert is_minimal_model(candidate, pairs)
        assert not is_minimal_model(candidate - {"a21"} | {"b20"}, pairs)

    def test_minimal_model_matches_a_scan_of_proper_subsets(self):
        # The definition itself as the reference: a model (``is_model``) none
        # of whose proper subsets (``iter_subsets``) is a model.  C-atom
        # heads, negated atoms and c-atoms, declared atoms, and an atom
        # outside the vocabulary.
        rng = random.Random(43)
        families = [
            generators.random_positive_basic_program,
            generators.random_basic_program,
            lambda rng: generators.random_ordinary_program(
                rng, disjunctive=rng.random() < 0.5),
            generators.random_normal_constraint_program,
            generators.random_disjunctive_constraint_program,
        ]
        counts = {True: 0, False: 0}
        for make in families:
            for _ in range(30):
                program = make(rng)
                if rng.random() < 0.3:
                    program = Program(program.rules, frozenset(
                        rng.sample(("e", "f", "z"), rng.randint(1, 2))))
                for candidate in iter_subsets(program.language):
                    minimal = is_model(candidate, program) and not any(
                        sub != candidate and is_model(sub, program)
                        for sub in iter_subsets(candidate))
                    assert is_minimal_model(candidate, program) == minimal, (
                        program, candidate)
                    counts[minimal] += 1
                    if minimal:
                        assert not is_minimal_model(candidate | {"zz"}, program)
        assert counts == {True: 201, False: 3896}

    def test_candidate_models_are_the_models_in_subset_order(self):
        program = load_program("#atoms c.\na | b. c :- a.")
        assert list(candidate_models(program)) == [
            s for s in iter_subsets("abc") if is_model(s, program)]
        # The mask enumeration against ``is_model`` on every generator family,
        # negated c-atoms and declared atoms included.
        rng = random.Random(37)
        families = [
            generators.random_positive_basic_program,
            generators.random_basic_program,
            lambda rng: generators.random_ordinary_program(
                rng, disjunctive=rng.random() < 0.5),
            generators.random_normal_constraint_program,
            generators.random_disjunctive_constraint_program,
        ]
        negated = declared = 0
        for make in families:
            for _ in range(30):
                program = make(rng)
                if rng.random() < 0.3:
                    extra = frozenset(rng.sample(("e", "f", "z"), rng.randint(1, 2)))
                    program = Program(program.rules, extra)
                    declared += bool(extra - program.atoms)
                negated += any(not lit.positive and lit.is_constraint
                               for rule in program.rules for lit in rule.body)
                assert list(candidate_models(program)) == [
                    s for s in iter_subsets(program.language) if is_model(s, program)]
        assert negated and declared

    def test_candidate_bits_match_a_scan_of_every_candidate(self):
        # Overlapping and repeated cubes, and random and cardinality solution
        # families (whose equal subtables are split once), against a direct
        # test of each candidate's mask.
        rng = random.Random(71)
        for _ in range(300):
            n = rng.randint(0, 8)
            space = CandidateBits(Program((), frozenset(f"a{i}" for i in range(n))).compiled)
            cubes = []
            for _ in range(rng.randint(0, 6)):
                ones = rng.getrandbits(n)
                zeros = rng.getrandbits(n) & ~ones
                cubes += [(ones, zeros)] * rng.randint(1, 2)
            if rng.random() < 0.5:
                catom = generators.random_catom(rng, pool=space.compiled.atoms, max_domain=n)
            else:
                domain = rng.sample(space.compiled.atoms, rng.randint(0, n))
                lo = rng.randint(0, len(domain))
                hi = rng.randint(lo, len(domain))
                catom = CAtom(domain, [s for s in iter_subsets(domain) if lo <= len(s) <= hi])
            c = CompiledCAtom(catom, 0, space.compiled.bit)
            bits, satisfied = space.cubes(cubes), space.satisfied(c)
            read = list(space.sets(space.full))
            assert read == list(iter_subsets(space.compiled.atoms))
            for k in range(1 << n):
                m = space.mask(k)
                assert list(space.sets(1 << k)) == [frozenset(space.compiled.atoms_of(m))]
                assert bits >> k & 1 == any(m & o == o and not m & z for o, z in cubes)
                assert satisfied >> k & 1 == (
                    frozenset(space.compiled.atoms_of(m)) & catom.domain in catom.solutions)

    def test_candidate_bits_of_a_dense_family_at_the_language_limit(self):
        # The complement of one set over 20 atoms: every candidate but a
        # 2**20-th satisfies it, and the split meets one complete and one
        # near-complete subtable per atom.
        rng = random.Random(73)
        atoms = [f"a{i:02d}" for i in range(GUARD_LIMITS["stable_language"])]
        space = CandidateBits(Program((), frozenset(atoms)).compiled)
        excluded = frozenset(rng.sample(atoms, 7))
        catom = complement(CAtom(atoms, [excluded]))
        c = CompiledCAtom(catom, 0, space.compiled.bit)
        start = time.perf_counter()
        satisfied = space.satisfied(c)
        assert time.perf_counter() - start < 1
        samples = [rng.getrandbits(space.n) for _ in range(200)]
        samples.append(int("".join("1" if a in excluded else "0" for a in atoms), 2))
        for k in samples:
            model = space.compiled.atoms_of(space.mask(k))
            assert satisfied >> k & 1 == satisfies_catom(model, catom)
        assert satisfied == space.full ^ 1 << samples[-1]

    def test_candidate_models_guard_fires_before_enumeration(self):
        program = Program(tuple(Rule((f"x{i}",)) for i in range(21)))
        with pytest.raises(GuardError) as caught:
            candidate_models(program)
        assert (caught.value.guard, caught.value.actual) == ("stable_language", 21)


class TestGuards:
    def test_limit_admits_and_one_more_refuses(self):
        check_guard("weight_entries", GUARD_LIMITS["weight_entries"])
        with pytest.raises(GuardError) as caught:
            check_guard("weight_entries", 17)
        error = caught.value
        assert (error.guard, error.limit, error.actual) == ("weight_entries", 16, 17)
        assert str(error) == "weight_entries guard: 17 exceeds the limit of 16"

    def test_readme_table_matches_the_limits(self):
        readme = Path(__file__).resolve().parent.parent / "README.md"
        section = readme.read_text().split("## Guards\n", 1)[1].split("\n## ", 1)[0]
        rows = [line.split("|")[1:3] for line in section.splitlines()
                if line.startswith("| `")]
        assert {name.strip(" `"): int(limit) for name, limit in rows} == GUARD_LIMITS
        assert len(rows) == len(GUARD_LIMITS)


class TestComplement:
    def test_elementary(self):
        assert complement(CAtom.elementary("a")) == CAtom(frozenset("a"), [set()])

    def test_two_atom_enumeration(self):
        catom = CAtom("ab", [{"a", "b"}])
        assert complement(catom) == CAtom("ab", [set(), {"a"}, {"b"}])

    def test_involution(self):
        assert complement(complement(LATTICE_FAMILY)) == LATTICE_FAMILY

    def test_domain_guard(self):
        wide = frozenset(f"x{i}" for i in range(21))
        with pytest.raises(GuardError) as caught:
            complement(CAtom(wide, [set()]))
        assert (caught.value.guard, caught.value.actual) == ("complement_domain", 21)

    def test_twenty_atoms_in_milliseconds_and_little_memory(self):
        # The complement is an XOR of the 2**20-bit table (128 KB); a family
        # of frozensets would hold about a million sets here.
        domain = [f"x{i}" for i in range(GUARD_LIMITS["complement_domain"])]
        catom = CAtom(domain, [{"x0"}])
        tracemalloc.start()
        try:
            started = time.perf_counter()
            result = complement(catom)
            elapsed = time.perf_counter() - started
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.table.bit_count() == (1 << 20) - 1
        assert not satisfies_catom({"x0"}, result) and satisfies_catom({"x1"}, result)
        assert complement(result) == catom
        assert peak < 2_000_000 and elapsed < 1.0


class TestClassifyProgram:
    def test_sum_loop_is_positive_basic(self):
        flags = classify_program(load_program(SUM_LOOP))
        assert flags.normal_constraint
        assert flags.positive_basic
        assert flags.basic
        assert not flags.normal

    def test_disjunctive_fact(self):
        flags = classify_program(disjunctive_fact_program())
        assert not flags.normal_constraint
        assert flags.disjunctive_ordinary

    def test_ordinary_normal_rule(self):
        flags = classify_program(load_program("a :- b, not c."))
        assert flags.normal
        assert not flags.positive_constraint
        assert not flags.basic

    def test_bot_head_is_basic(self):
        flags = classify_program(load_program("bot :- a."))
        assert flags.basic
        assert not flags.positive_basic


@given(catoms(), interpretations)
def test_satisfaction_is_local(catom, interpretation):
    restricted = interpretation & catom.domain
    assert satisfies_catom(interpretation, catom) == satisfies_catom(restricted, catom)


@given(catoms(max_domain=6), interpretations)
def test_complement_flips_satisfaction(catom, interpretation):
    assert satisfies_catom(interpretation, complement(catom)) != satisfies_catom(
        interpretation, catom)


@given(catoms(max_domain=6))
def test_complement_is_an_involution(catom):
    assert complement(complement(catom)) == catom


def test_minimal_models_are_models_exhaustively():
    rng = random.Random(20240817)
    pool = ("a", "b", "c", "d")
    for _ in range(120):
        program = generators.random_positive_basic_program(
            rng, atoms=pool, max_rules=3, max_domain=3)
        for candidate in iter_subsets(pool):
            if is_minimal_model(candidate, program):
                assert is_model(candidate, program)
