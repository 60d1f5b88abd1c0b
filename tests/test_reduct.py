import gc
import json
import random
import time
import tracemalloc
import weakref
from math import comb

import pytest

from catlp import abstraction as abstraction_module
from catlp import core as core_module
from catlp import reduct as reduct_module
from catlp.abstraction import PrefixedPowerSet, build_abstract
from catlp.core import (
    FALSE_CATOM,
    CAtom,
    Literal,
    Program,
    Rule,
    complement,
    is_model,
    select,
)
from catlp.errors import (
    GUARD_LIMITS,
    GuardError,
    InvariantError,
    NameCollisionError,
    ProgramClassError,
)
from catlp.golden import (
    DISJUNCTIVE_FACT,
    PAIR_CHOICE_FACT,
    SHIFT_GROUPING,
    SUM_COUNT_DISJUNCTION,
    SUM_LOOP,
    disjunctive_fact_program,
    reduct_lines,
)
from catlp.parser import format_program, load_program
from catlp.reduct import (
    BOT,
    beta_atom,
    gl_reduct,
    is_stable,
    least_model,
    minimal_models,
    reduct_json,
    reduct_size_bound,
    stable_models,
    theta_atom,
)

import generators
import oracles
from oracles import iter_subsets, set_key

FULL_SUM_INTERP = frozenset(("p(-1)", "p(1)", "p(2)"))


def library_models(program):
    """The library's models, every candidate at once, in ``set_key`` order."""
    space = core_module.CandidateBits(program.compiled)
    return space.answers(core_module.set_bits(space.models()))


#: ``x :- [c : {}], [d : {d}].``: dropped for any candidate without d, although
#: its first body c-atom holds whenever c is false.
DROPPED_WITH_A_SATISFIED_THETA = Rule(("x",), (
    Literal.constraint(CAtom("c", [()])), Literal.constraint(CAtom.elementary("d"))))


def count_kernel_calls(monkeypatch) -> list[tuple[CAtom, int | None]]:
    """Record each run of the prime-cube kernel, on every route, as (c-atom, point).

    Every route reaches the kernel through ``abstraction.checked_primes``:
    a full abstract form with no point, and a one-candidate reduct
    restricted to its candidate's table index.  Both modules that call it
    get the counting wrapper.
    """
    built: list[tuple[CAtom, int | None]] = []
    kernel = abstraction_module.checked_primes

    def counted(catom, point=None):
        built.append((catom, point))
        return kernel(catom, point)

    monkeypatch.setattr(abstraction_module, "checked_primes", counted)
    monkeypatch.setattr(reduct_module, "checked_primes", counted)
    abstraction_module.abstract_of.cache_clear()
    return built


class TestGlReduct:
    def test_sum_loop_shape(self):
        program = load_program(SUM_LOOP)
        assert reduct_lines(program, FULL_SUM_INTERP) == {
            "p(1).", "p(-1) :- p(2).", "p(2) :- T1.", "T1 :- p(2)."}

    def test_disjunctive_fact_shape(self):
        program = disjunctive_fact_program()
        assert reduct_lines(program, frozenset("ab")) == {
            "B1 | B2.", "a :- B1.", "B1 :- a.", "b :- B2.", "B2 :- b.", "a :- b."}

    def test_disjunctive_fact_smaller_candidate(self):
        program = disjunctive_fact_program()
        assert reduct_lines(program, frozenset("a")) == {
            "B1.", "a :- B1.", "B1 :- a.", "a :- b."}

    def test_ordinary_program_matches_two_step_reduct(self):
        program = load_program("a :- b, not c. b. c :- not a.")
        reduct = gl_reduct(program, frozenset("ab"))
        assert reduct.gamma == frozenset()
        assert set(format_program(reduct).splitlines()) == {"a :- b.", "b."}

    def test_falsified_head_constraint_becomes_bot(self):
        program = load_program("[a,b : {a,b}] :- c. c.")
        reduct = gl_reduct(program, frozenset("c"))
        assert (BOT,) in {r.head for r in reduct.rules}

    def test_bot_dropped_from_wider_disjunction(self):
        program = load_program("[a,b : {a}, {a,b}] | [a,b : {a,b}].")
        reduct = gl_reduct(program, frozenset("a"))
        (fact,) = [r for r in reduct.rules if not r.body and len(r.head) == 1
                   and r.head[0].startswith("__beta_")]
        assert fact.head == (beta_atom(CAtom("ab", [{"a"}, {"a", "b"}])),)

    def test_elementary_constraint_head_written_as_atom(self):
        # The parsed spelling flattens the satisfied one-atom constraint, so
        # the falsified disjunct simply disappears.
        program = load_program("[a : {a}] | [a,b : {a,b}].")
        reduct = gl_reduct(program, frozenset("a"))
        assert list(reduct.rules) == [Rule(("a",))]

    def test_negated_constraints_reduce_as_their_complements(self):
        rule = Rule(("a",), (Literal.negated_constraint(CAtom.elementary("b")),))
        program = Program((rule,))
        lowered = oracles.lower_negated_catoms(program)
        for candidate in iter_subsets("ab"):
            assert gl_reduct(program, candidate) == gl_reduct(lowered, candidate)
        assert format_program(gl_reduct(program, frozenset("a"))) == (
            "a :- %s.\n%s.\n" % ((theta_atom(CAtom("b", [()])),) * 2))

    def test_dropped_rules_build_no_abstract_form(self, monkeypatch):
        # Only the kept rules' body c-atoms, read already, enter the size
        # bound, so a c-atom the candidate satisfies in a dropped rule, or a
        # dense complement over 20 atoms that drops its rule, costs nothing.
        built = count_kernel_calls(monkeypatch)
        assert gl_reduct(Program((DROPPED_WITH_A_SATISFIED_THETA,)), frozenset()).rules == ()
        wide = load_program("a :- not [%s : {x0}]." % ", ".join(f"x{i}" for i in range(20)))
        start = time.perf_counter()
        assert gl_reduct(wide, frozenset(("x0",))).rules == ()
        assert time.perf_counter() - start < 1.0
        assert built == []

    def test_shared_catoms_share_special_atoms(self):
        catom = CAtom("ab", [{"a"}, {"b"}, {"a", "b"}])
        program = Program((
            Rule(("x",), (Literal.constraint(catom),)),
            Rule(("y",), (Literal.constraint(catom),)),
        ))
        reduct = gl_reduct(program, frozenset("abxy"))
        assert len(reduct.gamma) == 1
        theta_rules = [r for r in reduct.rules if r.head[0] in reduct.gamma]
        assert len(theta_rules) == len(set(theta_rules))

    def test_empty_true_part_yields_fact(self):
        # A satisfied head constraint with nothing true in its domain defines
        # its beta atom unconditionally.
        program = load_program("[a : {}, {a}] | [b : {b}].")
        reduct = gl_reduct(program, frozenset())
        name = beta_atom(CAtom("a", [(), ("a",)]))
        assert Rule((name,)) in reduct.rules

    def test_size_bound_holds_on_random_programs(self):
        rng = random.Random(13)
        for _ in range(150):
            program = generators.random_positive_basic_program(
                rng, atoms=("a", "b", "c", "d"), max_rules=4, max_domain=3)
            bound = reduct_size_bound(program)
            for candidate in (frozenset(), frozenset("ab"), frozenset("abcd")):
                assert len(gl_reduct(program, candidate).rules) <= bound

    def test_size_bound_counts_the_abstract_form_members(self):
        # The bound counts prime cubes from the reducer; its value is the
        # formula on ``build_abstract`` member counts.
        rng = random.Random(31)
        makers = (generators.random_basic_program,
                  generators.random_normal_constraint_program,  # negated c-atoms
                  generators.random_disjunctive_constraint_program)  # head c-atoms
        for k in range(150):
            program = makers[k % 3](rng, max_domain=4)
            compiled = program.compiled
            expected = len(program.rules)
            if compiled.catoms:
                widest = max((len(build_abstract(c.catom).lattices)
                              for c in compiled.body_catoms), default=0)
                largest = max(len(c.catom.domain) for c in compiled.catoms)
                expected += len(compiled.catoms) * (widest + largest + 1)
            assert reduct_size_bound(program) == expected

    def test_size_bound_counts_primes_without_listing_them(self, monkeypatch):
        # The prime count is the sum of the kernel's bases masks' popcounts,
        # so neither the bound nor a rendered reduct lists the 4,200 primes
        # of ``3 {x0, ..., x9} 6`` (a base of 3 atoms, 3 more free).
        def refuse(groups):
            raise AssertionError("a cube list was rendered")

        monkeypatch.setattr(abstraction_module, "cube_list", refuse)
        atoms = ", ".join(f"x{i}" for i in range(10))
        program = load_program(f"{{{atoms}}}. h :- 3 {{{atoms}}} 6.")
        bound = reduct_size_bound(program)
        assert bound == 2 + 2 * (comb(10, 3) * comb(7, 3) + 10 + 1)
        reduct = gl_reduct(program, frozenset(("x0", "x1", "x2", "h")))
        assert 0 < len(reduct.rules) <= bound

    def test_size_bound_is_enforced(self, monkeypatch):
        monkeypatch.setattr(reduct_module, "_size_bound", lambda program, body: 0)
        with pytest.raises(InvariantError, match="size bound"):
            gl_reduct(load_program(SUM_LOOP), FULL_SUM_INTERP)

    def test_name_collision_is_detected(self, monkeypatch):
        monkeypatch.setattr(CAtom, "digest", property(lambda self: "0" * 10))
        program = Program((
            Rule(("x",), (Literal.constraint(CAtom("ab", [{"a", "b"}])),)),
            Rule(("y",), (Literal.constraint(CAtom("ab", [{"b"}, {"a", "b"}])),)),
        ))
        with pytest.raises(NameCollisionError, match="__theta_0000000000"):
            gl_reduct(program, frozenset("ab"))

    def test_name_taken_by_an_atom_is_refused(self):
        body, head = CAtom("ab", [{"a"}, {"b"}]), CAtom("cd", [{"c"}])
        rules = (Rule(("x",), (Literal.constraint(body),)), Rule((head,)))
        for taken in (theta_atom(body), beta_atom(head), BOT):
            with pytest.raises(NameCollisionError, match=taken):
                gl_reduct(Program(rules + (Rule((taken,)),)), frozenset("acx"))
        # A reduct holds these atoms but no c-atom, so its own reduct mints
        # no name and keeps every rule.
        reduct = gl_reduct(Program(rules), frozenset("acx"))
        assert {theta_atom(body), beta_atom(head), BOT} <= reduct.atoms
        assert gl_reduct(reduct, reduct.atoms).rules == reduct.rules

    def test_stability_mints_no_names(self, monkeypatch):
        # Introduced atoms are bits while stability is decided; only
        # ``gl_reduct`` names them.
        def refuse(catom):
            raise AssertionError("an introduced name was minted")

        monkeypatch.setattr(reduct_module, "theta_atom", refuse)
        monkeypatch.setattr(reduct_module, "beta_atom", refuse)
        assert stable_models(load_program(SHIFT_GROUPING)) == tuple(
            frozenset(s) for s in (
                (), ("a", "b"), ("a", "c"), ("a", "d", "e"), ("a", "d", "f"),
                ("a", "e", "f")))
        assert is_stable(load_program(SHIFT_GROUPING), frozenset("ade"))
        assert not is_stable(load_program(SHIFT_GROUPING), frozenset("ad"))
        for program in (load_program(DISJUNCTIVE_FACT), disjunctive_fact_program()):
            assert stable_models(program) == (frozenset("a"),)
            assert is_stable(program, frozenset("a"))
            assert not is_stable(program, frozenset("ab"))
        assert stable_models(load_program(SUM_LOOP)) == ()
        assert not is_stable(load_program(SUM_LOOP), FULL_SUM_INTERP)
        with pytest.raises(AssertionError, match="minted"):
            gl_reduct(load_program(SUM_LOOP), FULL_SUM_INTERP)

    def test_size_bound_of_a_head_only_program(self, monkeypatch):
        # A head c-atom adds at most |domain| + 1 rules and no abstract form.
        built = []
        monkeypatch.setattr(abstraction_module, "build_abstract", built.append)
        atoms = [f"head_only{i}" for i in range(6)]
        program = load_program("{%s}." % ", ".join(atoms))
        bound = reduct_size_bound(program)
        assert bound == 1 + 1 * (0 + 6 + 1)
        # The empty candidate meets it: the rule, ``__bot`` per false atom, beta.
        assert max(len(gl_reduct(program, c).rules) for c in iter_subsets(atoms)) == bound
        assert len(stable_models(program)) == 2 ** 6
        assert built == []

    def test_shared_name_is_not_a_collision(self, monkeypatch):
        # One c-atom in a body and a head: a theta and a beta atom, no clash.
        monkeypatch.setattr(CAtom, "digest", property(lambda self: "0" * 10))
        catom = CAtom("ab", [{"a"}, {"a", "b"}])
        program = Program((
            Rule(("x",), (Literal.constraint(catom),)),
            Rule(("y",), (Literal.constraint(catom),)),
            Rule((catom, "x")),
        ))
        reduct = gl_reduct(program, frozenset("axy"))
        assert reduct.gamma == {"__theta_0000000000", "__beta_0000000000"}

    def test_primes_live_as_long_as_the_compiled_program(self, monkeypatch):
        # Every full-form route reads the primes kept on ``program.compiled``;
        # each one-candidate reduct runs the kernel restricted to its
        # candidate, {b} of the domain (b, c), and keeps nothing.  Nothing at
        # module level keeps the program alive once it is dropped.
        built = count_kernel_calls(monkeypatch)
        program = load_program("a :- 1{b, c}. b :- not c. c :- not b.")
        assert is_stable(program, frozenset("ab"))
        assert gl_reduct(program, frozenset("ab")).rules  # restricted, then the size bound's full form
        assert reduct_size_bound(program) > len(program.rules)
        assert stable_models(program) == (frozenset("ab"), frozenset("ac"))
        catom = program.compiled.body_catoms[0].catom
        assert built == [(catom, 0b01), (catom, 0b01), (catom, None)]
        compiled = weakref.ref(program.compiled)
        del program
        gc.collect()
        assert compiled() is None


class TestModelEnumeration:
    def test_least_model_of_sum_loop_reduct(self):
        program = load_program(SUM_LOOP)
        reduct = gl_reduct(program, FULL_SUM_INTERP)
        assert least_model(reduct) - reduct.gamma == frozenset(("p(1)",))

    def test_least_model_empty_program(self):
        assert least_model(Program(())) == frozenset()

    def test_least_model_chain(self):
        assert least_model(load_program("a. b :- a.")) == frozenset("ab")

    def test_least_model_matches_full_scan(self):
        # Atoms repeat in bodies, and heads recur in their own bodies.
        rng = random.Random(37)
        atoms = "abcde"
        repeated = self_support = 0
        for _ in range(200):
            rules = []
            for _ in range(rng.randint(0, 6)):
                head = rng.choice(atoms)
                body = rng.choices(atoms, k=rng.randint(0, 4))
                repeated += len(set(body)) < len(body)
                self_support += head in body
                rules.append(Rule((head,), tuple(map(Literal.atom, body))))
            program = Program(tuple(rules))
            (expected,) = oracles.brute_minimal_models(
                oracles.atom_rules(program), program.atoms)
            assert least_model(program) == expected, program
        assert repeated and self_support

    def test_least_model_rejects_disjunction(self):
        with pytest.raises(ProgramClassError):
            least_model(load_program("a | b."))

    @pytest.mark.parametrize("text", ["a :- not b.", "a :- [b : {b}].", "{a}."])
    def test_least_model_rejects_other_classes(self, text):
        # A negated atom, a body c-atom, a head c-atom.
        with pytest.raises(ProgramClassError):
            least_model(load_program(text))

    def test_minimal_models_of_disjunctive_fact_reduct(self):
        program = disjunctive_fact_program()
        reduct = gl_reduct(program, frozenset("ab"))
        expected = frozenset(("a", beta_atom(CAtom.elementary("a"))))
        assert minimal_models(reduct) == (expected,)

    def test_minimal_models_simple_disjunction(self):
        # The space spans the declared atom y, which no minimal model holds.
        for text in ("a | b.", "#atoms y. a | b."):
            assert minimal_models(load_program(text)) == (frozenset("a"), frozenset("b"))

    def test_minimal_models_empty_program(self):
        assert minimal_models(Program(())) == (frozenset(),)

    def test_minimal_models_guard(self):
        # The guard counts the declared atoms too: 23 in the rules, or 22 and y.
        for rules, declared in ((23, ()), (22, ("y",))):
            program = Program(tuple(Rule((f"x{i}",)) for i in range(rules)), declared)
            with pytest.raises(GuardError) as caught:
                minimal_models(program)
            assert (caught.value.guard, caught.value.actual) == ("minimal_models", 23)

    def test_minimal_models_at_the_guard_limit(self):
        # ``ai | bi.`` for 11 pairs: one atom of each pair, 2**11 sets.
        pairs = GUARD_LIMITS["minimal_models"] // 2
        reduct = Program(tuple(Rule((f"a{i}", f"b{i}")) for i in range(pairs)))
        assert len(reduct.atoms) == GUARD_LIMITS["minimal_models"]
        start = time.perf_counter()
        models = minimal_models(reduct)
        assert time.perf_counter() - start < 1.0
        expected = {frozenset(f"{'ab'[k >> i & 1]}{i}" for i in range(pairs))
                    for k in range(1 << pairs)}
        assert len(models) == 2 ** pairs and set(models) == expected
        assert list(models) == sorted(models, key=set_key)

    def test_minimal_models_match_full_scan(self):
        rng = random.Random(17)
        for _ in range(120):
            program = generators.random_ordinary_program(
                rng, atoms=("a", "b", "c", "d"), max_rules=4, disjunctive=True)
            positive = Program(tuple(
                Rule(r.head, tuple(l for l in r.body if l.positive))
                for r in program.rules))
            scan = oracles.brute_minimal_models(
                oracles.atom_rules(positive), positive.atoms)
            assert minimal_models(positive) == tuple(sorted(scan, key=set_key))


class TestStability:
    def test_disjunctive_fact_verdicts(self):
        program = disjunctive_fact_program()
        assert is_stable(program, frozenset("a"))
        assert not is_stable(program, frozenset("ab"))

    def test_sum_loop_full_interpretation_rejected(self):
        assert not is_stable(load_program(SUM_LOOP), FULL_SUM_INTERP)

    def test_self_loop_rule(self):
        assert is_stable(load_program("a :- a."), frozenset())

    def test_sum_loop_has_no_stable_models(self):
        assert stable_models(load_program(SUM_LOOP)) == ()

    def test_shift_grouping_models(self):
        assert stable_models(load_program(SHIFT_GROUPING)) == tuple(
            frozenset(s) for s in (
                (), ("a", "b"), ("a", "c"), ("a", "d", "e"), ("a", "d", "f"),
                ("a", "e", "f")))

    def test_sum_count_disjunction_models(self):
        assert stable_models(load_program(SUM_COUNT_DISJUNCTION)) == tuple(
            frozenset(s) for s in (
                ("p(-1)",), ("p(-1)", "p(1)"), ("p(1)", "p(2)")))

    def test_pair_choice_models(self):
        assert stable_models(load_program(PAIR_CHOICE_FACT)) == tuple(
            frozenset(s) for s in (("a",), ("a", "b"), ("b",)))

    def test_language_guard(self):
        atoms = [f"x{i}" for i in range(21)]
        program = Program(tuple(Rule((a,)) for a in atoms))
        with pytest.raises(GuardError) as caught:
            stable_models(program)
        assert (caught.value.guard, caught.value.actual) == ("stable_language", 21)

    def test_declared_atoms_extend_candidates(self):
        bare = load_program("a :- [a,b : {a}, {a,b}].")
        declared = load_program("#atoms a, b.\na :- [a,b : {a}, {a,b}].")
        assert stable_models(bare) == stable_models(declared)
        assert declared.language == frozenset("ab")

    def test_ordinary_conformance_sample(self):
        rng = random.Random(19)
        for _ in range(80):
            program = generators.random_ordinary_program(
                rng, atoms=("a", "b", "c", "d"), max_rules=5,
                disjunctive=bool(rng.random() < 0.5))
            assert set(stable_models(program)) == oracles.standard_gl_stable_models(
                program)

    def test_witness_guard_counts_the_candidate(self, monkeypatch):
        # The witness space is the subsets of the candidate, whatever gamma
        # holds: twelve candidate atoms and twelve beta atoms make it twelve
        # atoms wide, and the theta atom of a dropped rule does not widen it.
        # Twenty-three atoms are refused before any space is built.
        size = 12
        rules = tuple(
            Rule((CAtom({f"a{i}"}, [{f"a{i}"}, ()]), f"b{i}")) for i in range(size))
        candidate = frozenset(f"a{i}" for i in range(size))
        widths = []
        basis = core_module._basis
        monkeypatch.setattr(core_module, "_basis", lambda n: widths.append(n) or basis(n))
        for program in (Program(rules), Program(rules + (DROPPED_WITH_A_SATISFIED_THETA,))):
            widths.clear()
            assert is_stable(program, candidate)
            assert widths == [size]
        wide = GUARD_LIMITS["minimal_models"] + 1
        pairs = Program(tuple(Rule((f"a{i}", f"b{i}")) for i in range(wide)))
        widths.clear()
        with pytest.raises(GuardError) as caught:
            is_stable(pairs, frozenset(f"a{i}" for i in range(wide)))
        assert (caught.value.guard, caught.value.actual) == ("minimal_models", 23)
        assert widths == []

    def test_disjunctive_verdicts_at_the_witness_guard_limit(self):
        # Twenty-two candidate atoms, as many as the ``minimal_models`` guard
        # admits, with c-atom heads and with atom pairs.
        size = GUARD_LIMITS["minimal_models"]
        catom_heads = Program(tuple(
            Rule((CAtom({f"a{i}"}, [{f"a{i}"}, ()]), f"b{i}")) for i in range(size)))
        pairs = Program(tuple(Rule((f"a{i}", f"b{i}")) for i in range(size)))
        candidate = frozenset(f"a{i}" for i in range(size))
        assert is_stable(catom_heads, candidate)
        assert is_stable(pairs, candidate)
        # Without a21 the last c-atom head holds on its empty true part, so
        # b21 is not needed.
        assert not is_stable(catom_heads, candidate - {"a21"} | {"b21"})

    def test_falsified_body_catom_builds_no_abstract_form(self, monkeypatch):
        # Its solutions answer a falsifying query; each query that satisfies
        # it runs the kernel once, restricted to the candidate's table index.
        built = count_kernel_calls(monkeypatch)
        program = load_program("y :- 1{x0, x1, x2, x3, x4, x5}.")
        assert not is_stable(program, frozenset("y"))
        assert is_stable(program, frozenset())
        assert built == []
        assert not is_stable(program, frozenset(("x0", "y")))
        assert not is_stable(program, frozenset(("x1",)))
        catom = program.compiled.body_catoms[0].catom
        assert built == [(catom, 0b01), (catom, 0b10)]

    def test_one_candidate_reads_the_primes_that_cover_it(self):
        rng = random.Random(47)
        for _ in range(60):
            catom = generators.random_catom(rng, max_domain=6)
            program = Program((Rule(("y",), (Literal.constraint(catom),)),))
            c = program.compiled.body_catoms[0]
            members = oracles.brute_abstract(catom)
            for subset in iter_subsets(catom.domain | {"y"}):
                covering = c.abstract.covering(c.position(program.compiled.mask(subset)))
                assert frozenset(
                    PrefixedPowerSet(select(catom.atoms, base), select(catom.atoms, free))
                    for base, free in covering
                ) == frozenset(m for m in members
                               if oracles.brute_covers(m, subset & catom.domain))

    def test_satisfied_catom_of_a_dropped_rule_builds_no_abstract_form(self, monkeypatch):
        # ``[c : {}]`` holds for the empty candidate, but ``[d : {d}]`` drops
        # the rule, so no prime cube of ``[c : {}]`` is ever read.
        built = count_kernel_calls(monkeypatch)
        assert is_stable(Program((DROPPED_WITH_A_SATISFIED_THETA,)), frozenset())
        assert built == []

    def test_theta_of_a_dropped_rule_stays_out_of_the_witness_search(self):
        # ``[c : {}]`` holds for {a} but ``[d : {d}]`` does not, so the rule
        # is dropped; its theta atom must not reach the disjunctive search.
        program = Program((Rule(("a", "b")), DROPPED_WITH_A_SATISFIED_THETA))
        assert is_stable(program, frozenset("a"))
        assert stable_models(program) == (frozenset("a"), frozenset("b"))
        assert stable_models(program) == oracles.brute_stable_models(program)

    def test_disjunctive_witness_costs_at_most_one_test_per_subset(self, monkeypatch):
        # Sixteen atoms, the stable candidate holds eight of them and gamma
        # eight more; the witness is tested against the subsets of the
        # candidate alone, one space eight atoms wide.
        text = " ".join(
            f"[a{i},b{i} : {{a{i}}},{{a{i},b{i}}}] | c{i} :- [d{i} : {{}},{{d{i}}}]. "
            f"d{i} :- c{i}." for i in range(4))
        program = load_program(text)
        candidate = frozenset(f"{x}{i}" for x in "ab" for i in range(4))
        widths = []
        basis = core_module._basis
        monkeypatch.setattr(core_module, "_basis", lambda n: widths.append(n) or basis(n))
        assert is_stable(program, candidate)
        assert widths == [8]

    def test_negated_catoms_match_their_complements_even_without_models(self):
        catom = CAtom("a", [{"a"}])
        program = Program((
            Rule(("a",), (Literal.negated_constraint(catom),)),
            Rule((CAtom(frozenset(), ()),)),
        ))
        assert stable_models(program) == stable_models(oracles.lower_negated_catoms(program)) == ()
        assert library_models(program) == ()
        for candidate in iter_subsets("a"):
            assert not is_stable(program, candidate)

    def test_stable_models_are_models(self):
        rng = random.Random(23)
        for _ in range(60):
            program = generators.random_positive_basic_program(
                rng, atoms=("a", "b", "c", "d"), max_rules=4, max_domain=3)
            for model in stable_models(program):
                assert is_model(model, program)


class TestAllCandidatesAtOnce:
    """``stable_models`` decides every candidate at once on bitsets, and
    ``is_stable`` runs the same reduct on a space of one candidate; both
    are checked against ``oracles.brute_is_stable``, which shares none of
    that code."""

    FAMILIES = (
        generators.random_positive_basic_program,
        generators.random_basic_program,
        lambda rng: generators.random_ordinary_program(rng, disjunctive=rng.random() < 0.5),
        generators.random_normal_constraint_program,
        generators.random_disjunctive_constraint_program,
    )

    def _programs(self):
        """Each family with negated c-atoms eliminated, some programs with a
        ``bot`` rule whose body may negate atoms, some with declared atoms."""
        rng = random.Random(47)
        for make in self.FAMILIES:
            for _ in range(50):
                program = oracles.lower_negated_catoms(make(rng))
                rules, declared = program.rules, program.declared_atoms
                if rng.random() < 0.3:
                    body = tuple(Literal.negated_atom(a) if rng.random() < 0.5
                                 else Literal.atom(a) for a in rng.sample("abcd", 2))
                    rules += (Rule((FALSE_CATOM,), body),)
                if rng.random() < 0.3:
                    declared = frozenset(rng.sample(("e", "f", "z"), rng.randint(1, 2)))
                yield Program(rules, declared)

    def test_matches_the_single_candidate_route_and_brute_force(self):
        programs = stable = 0
        for program in self._programs():
            expected = tuple(sorted(
                (c for c in oracles.brute_models(program) if is_stable(program, c)), key=set_key))
            assert stable_models(program) == expected, program
            assert expected == oracles.brute_stable_models(program), program
            programs += 1
            stable += len(expected)
        assert (programs, stable) == (250, 243)

    def test_single_candidate_matches_brute_force_on_every_subset(self):
        # Non-models included: the one-candidate reduct must reject them.
        counts = {True: 0, False: 0}
        non_models = 0
        for program in self._programs():
            for candidate in iter_subsets(program.language):
                verdict = oracles.brute_is_stable(program, candidate)
                assert is_stable(program, candidate) == verdict, (program, candidate)
                counts[verdict] += 1
                non_models += not is_model(candidate, program)
        assert (counts, non_models) == ({True: 243, False: 5715}, 3387)

    def test_one_candidate_never_builds_a_bitset_of_every_candidate(self, monkeypatch):
        # Forty atoms, twice the ``stable_language`` guard: a space of every
        # candidate would take 2**40 bits.
        def refuse(*args):
            raise AssertionError("a bitset of every candidate was built")

        monkeypatch.setattr(core_module, "_basis", refuse)
        program = load_program(
            " ".join(f"x{i} :- not y{i}. y{i} :- not x{i}." for i in range(20)))
        xs = frozenset(f"x{i}" for i in range(20))
        start = time.perf_counter()
        assert is_stable(program, xs)
        assert not is_stable(program, xs - {"x0"})
        assert not is_stable(program, xs | {"y0"})
        assert time.perf_counter() - start < 0.1

    def test_disjunctive_models_are_decided_on_the_one_reduct(self, monkeypatch):
        # Each model whose reduct keeps a two-element head is decided at its
        # bit of the reduct of every model; no second reduct is built.
        built = []
        reduct_class = reduct_module._Reduct

        def counted(space, candidates):
            built.append(reduct_class(space, candidates))
            return built[-1]

        monkeypatch.setattr(reduct_module, "_Reduct", counted)
        disjunctive = 0
        for program in self._programs():
            built.clear()
            models = stable_models(program)
            assert [r.space.point for r in built] == [None], program
            disjunctive += built[0].disjunctive.bit_count()
            assert models == oracles.brute_stable_models(program), program
        assert disjunctive > 100

    def test_feed_covers_each_kind_of_rule(self):
        programs = list(self._programs())
        rules = [r for p in programs for r in p.rules]
        assert any(r.head == (FALSE_CATOM,) and any(not lit.positive for lit in r.body)
                   for r in rules)
        assert any(isinstance(e, CAtom) and e != FALSE_CATOM for r in rules for e in r.head)
        assert any(len(r.head) > 1 for r in rules)
        assert any(p.declared_atoms - p.atoms for p in programs)
        assert all(lit.positive or lit.is_atom for r in rules for lit in r.body)

    def test_memory_at_the_guard_limit(self):
        # One coverage bitset per distinct base of 3{x0..x8}6 (84), never one
        # cube per member (1,680): cubes took this program to 255 MB RSS.
        loops = " ".join(f"x{i} :- not y{i}. y{i} :- not x{i}." for i in range(9))
        window = ", ".join(f"x{i}" for i in range(9))
        program = load_program(loops + f" v :- 3{{{window}}}6. w :- not v.")
        assert len(program.language) == GUARD_LIMITS["stable_language"]
        tracemalloc.start()
        try:
            models = stable_models(program)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2 ** 20
        assert len(models) == 512

    @pytest.mark.parametrize("cycle, last, count", [
        # Head-cycle-free at the guard limit: every model is disjunctive
        # and the shifted fixpoint decides all of them at once.
        ("", 17, 262_144),
        # ``a`` and ``b`` reach each other: each model goes to the witness.
        ("a :- b. b :- a.", 14, 16_384),
    ])
    def test_disjunctive_models_in_desk_time(self, cycle, last, count):
        choices = " ".join("{%s}." % ", ".join(f"c{i}" for i in group)
                           for group in (range(8), range(8, last)))
        program = load_program(f"#atoms z. a | b. {cycle} {choices}")
        start = time.perf_counter()
        assert len(stable_models(program)) == count
        assert time.perf_counter() - start < 30

    def test_refusals_come_before_any_bitset(self, monkeypatch):
        def refuse(compiled):
            raise AssertionError("a bitset was built")

        monkeypatch.setattr(reduct_module, "CandidateBits", refuse)
        wide = Program(tuple(Rule((f"x{i}",)) for i in range(21)))
        with pytest.raises(GuardError):
            stable_models(wide)
        # ``not A`` is compiled as A's complement, which the ``complement_domain``
        # guard refuses at 21 atoms; ``load_program`` keeps ``not A`` and loads it.
        catom = CAtom([f"x{i}" for i in range(21)], [{"x0"}])
        negated = Program((Rule(("a",), (Literal.negated_constraint(catom),)),))
        with pytest.raises(GuardError) as caught:
            is_stable(negated, frozenset())
        assert (caught.value.guard, caught.value.actual) == ("complement_domain", 21)


class TestShiftedHeadCycleFree:
    """A head-cycle-free program's disjunctive models are decided by the
    shifted least fixpoint of ``_stable_bits``, any other program's by
    ``_has_minimal_witness``; ``is_stable`` keeps the witness route for
    every candidate, so the two routes check each other."""

    def _programs(self):
        rng = random.Random(7)
        for _ in range(200):
            yield generators.random_disjunctive_constraint_program(rng)
        for _ in range(60):
            yield generators.random_ordinary_program(
                rng, atoms=("a", "b", "c", "d"), max_rules=5, disjunctive=True)

    @staticmethod
    def _models_reduct(program):
        """The all-candidates reduct ``stable_models`` builds over the models."""
        space = core_module.CandidateBits(program.compiled)
        return reduct_module._Reduct(space, space.models())

    def test_every_reduct_of_a_passing_program_is_head_cycle_free(self):
        # Only the models' reducts: a program with ``bot.`` has none and passes.
        passed = 0
        for program in self._programs():
            if reduct_module._head_cycle_free(self._models_reduct(program)):
                passed += 1
                for candidate in oracles.brute_models(program):
                    assert oracles.is_head_cycle_free(gl_reduct(program, candidate)), (
                        program, candidate)
        assert passed == 141

    @pytest.mark.parametrize("text, expected", [
        ("a | b :- [b, c : {}, {b}]. b :- a.", True),  # the c-atom's only base is empty
        ("a | b. a :- [b, c : {b}, {b, c}]. b :- [a, c : {a}, {a, c}].", False),
    ])
    def test_body_catoms_reach_the_bases_that_cover(self, text, expected):
        program = load_program(text)
        assert reduct_module._head_cycle_free(self._models_reduct(program)) is expected
        assert stable_models(program) == oracles.brute_stable_models(program)

    def test_only_failing_programs_reach_the_witness(self, monkeypatch):
        calls = []
        witness = reduct_module._has_minimal_witness
        monkeypatch.setattr(reduct_module, "_has_minimal_witness",
                            lambda *args: calls.append(args) or witness(*args))
        counts = {True: [0, 0], False: [0, 0]}  # per verdict: programs, disjunctive ones
        for program in self._programs():
            calls.clear()
            reduct = self._models_reduct(program)
            disjunctive = reduct.disjunctive
            assert stable_models(program) == oracles.brute_stable_models(program), program
            verdict = reduct_module._head_cycle_free(reduct)
            assert len(calls) == (0 if verdict else disjunctive.bit_count()), program
            counts[verdict][0] += 1
            counts[verdict][1] += bool(disjunctive)
        assert counts == {True: [141, 76], False: [119, 116]}

    def test_single_candidates_agree_with_the_shifted_route(self):
        stable, disjunctive = 0, set()
        for program in self._programs():
            reduct = self._models_reduct(program)
            if reduct_module._head_cycle_free(reduct):
                models = stable_models(program)
                for candidate in iter_subsets(program.language):
                    assert is_stable(program, candidate) == (candidate in models), (
                        program, candidate)
                stable += len(models)
                space = reduct.space
                disjunctive |= {frozenset(space.compiled.atoms_of(space.mask(k))) in models
                                for k in core_module.set_bits(reduct.disjunctive)}
        assert (stable, disjunctive) == (186, {True, False})


class TestNegatedCAtomsAsComplements:
    """Every reduct-layer route answers on a parsed program, negated c-atoms
    and all, as on ``oracles.lower_negated_catoms`` of it."""

    def _programs(self):
        """Normal programs that negate c-atoms, and disjunctive ones with some
        positive body c-atoms A rewritten as ``not complement(A)``."""
        rng = random.Random(53)
        for _ in range(150):
            yield generators.random_normal_constraint_program(rng)
        for _ in range(60):
            program = generators.random_disjunctive_constraint_program(rng)
            yield Program(tuple(Rule(rule.head, tuple(
                Literal.negated_constraint(complement(lit.item))
                if lit.is_constraint and rng.random() < 0.5 else lit
                for lit in rule.body)) for rule in program.rules), program.declared_atoms)

    def test_routes_match_the_lowered_program(self):
        negated = disjunctive = 0
        for k, program in enumerate(self._programs()):
            lowered = oracles.lower_negated_catoms(program)
            negated += lowered != program
            disjunctive += lowered != program and any(len(r.head) > 1 for r in program.rules)
            assert stable_models(program) == stable_models(lowered), program
            assert library_models(program) == library_models(lowered)
            assert reduct_size_bound(program) == reduct_size_bound(lowered), program
            for candidate in iter_subsets(program.language):
                assert is_stable(program, candidate) == is_stable(lowered, candidate)
                reduct, expected = gl_reduct(program, candidate), gl_reduct(lowered, candidate)
                assert format_program(reduct) == format_program(expected)
                assert reduct.gamma == expected.gamma
            if k % 5 == 0:
                assert stable_models(program) == oracles.brute_stable_models(lowered)
        assert negated > 80 and disjunctive > 20


class TestAsReductProgram:
    """A parsed positive ordinary program is a reduct program as it stands."""

    def test_positive_ordinary_program(self):
        program = load_program("a. b :- a.")
        assert least_model(program) == frozenset("ab")
        assert minimal_models(program) == (frozenset("ab"),)


class TestRendering:
    def test_format_lines(self):
        reduct = Program((Rule(("a",)), Rule(("b", "c"), (Literal.atom("a"),))))
        assert format_program(reduct) == "a.\nb | c :- a.\n"

    def test_json_shape(self):
        program = load_program(SUM_LOOP)
        reduct = gl_reduct(program, FULL_SUM_INTERP)
        data = json.loads(json.dumps(reduct_json(reduct)))
        assert sorted(data) == ["gamma", "rules"]
        assert data["gamma"] == sorted(reduct.gamma)
        assert {"head": ["p(1)"], "body": []} in data["rules"]
        assert {"head": ["p(-1)"], "body": ["p(2)"]} in data["rules"]

    def test_theta_beta_names_are_stable(self):
        catom = CAtom("ab", [{"a"}])
        assert theta_atom(catom) == theta_atom(CAtom("ab", [{"a"}]))
        assert theta_atom(catom) != beta_atom(catom)
        assert theta_atom(catom).startswith("__theta_")


class TestWitnessSearchDifferential:
    """``stable_models`` and ``is_stable`` against the exhaustive reference."""

    def _programs(self):
        rng = random.Random(29)
        for _ in range(60):
            yield generators.random_disjunctive_constraint_program(rng)
        for _ in range(40):
            yield oracles.lower_negated_catoms(
                generators.random_normal_constraint_program(rng, atoms="abcd"))
        for _ in range(40):
            yield generators.random_ordinary_program(
                rng, atoms=("a", "b", "c", "d"), max_rules=5,
                disjunctive=bool(rng.random() < 0.5))
        rng = random.Random(1)
        for _ in range(160):
            yield generators.random_disjunctive_constraint_program(rng)
        rng = random.Random(5)
        for _ in range(30):
            yield generators.random_disjunctive_constraint_program(
                rng, atoms=generators.POOL[:5])

    def test_stable_models_match_brute_force(self):
        for program in self._programs():
            assert stable_models(program) == oracles.brute_stable_models(program)

    def test_verdicts_match_on_every_candidate(self):
        counts = {True: 0, False: 0}
        for program in self._programs():
            for candidate in iter_subsets(program.language):
                verdict = oracles.brute_is_stable(program, candidate)
                assert is_stable(program, candidate) == verdict, (program, candidate)
                counts[verdict] += 1
        assert counts == {True: 497, False: 3789}

    def test_reduct_rules_match_the_definition(self):
        for program in self._programs():
            for candidate in iter_subsets(program.language):
                reduct = gl_reduct(program, candidate)
                rules = set(oracles.atom_rules(reduct))
                assert oracles.brute_reduct(program, candidate) == (
                    rules, reduct.gamma), (program, candidate)

    def test_verdicts_match_with_atoms_outside_the_vocabulary(self):
        rng = random.Random(41)
        for program in self._programs():
            candidates = list(iter_subsets(program.language))
            for candidate in rng.sample(candidates, min(4, len(candidates))):
                outside = candidate | {"zz"}
                assert not is_stable(program, outside)
                assert not oracles.brute_is_stable(program, outside), (program, outside)

    def test_normal_reducts_are_decided_by_their_least_model(self):
        normal = 0
        for program in self._programs():
            for candidate in iter_subsets(program.language):
                reduct = gl_reduct(program, candidate)
                if all(len(r.head) == 1 for r in reduct.rules):
                    normal += 1
                    expected = least_model(reduct) - reduct.gamma == candidate
                    assert is_stable(program, candidate) == expected, (program, candidate)
        assert normal

    def test_stable_iff_candidate_with_gamma_is_a_minimal_model(self):
        # The disjunctive route tests only this witness; here both sides
        # come from the exhaustive reference alone.
        for program in self._programs():
            for candidate in iter_subsets(program.language):
                reduct = gl_reduct(program, candidate)
                minimal = oracles.brute_minimal_models(
                    oracles.atom_rules(reduct), reduct.atoms)
                assert oracles.brute_is_stable(program, candidate) == (
                    candidate | reduct.gamma in minimal), (program, candidate)

    def test_feed_has_disjunctive_reducts_with_theta_and_beta_atoms(self):
        verdicts = set()
        for program in self._programs():
            for candidate in iter_subsets(program.language):
                reduct = gl_reduct(program, candidate)
                if (not all(len(r.head) == 1 for r in reduct.rules)
                        and any(g.startswith("__theta_") for g in reduct.gamma)
                        and any(g.startswith("__beta_") for g in reduct.gamma)):
                    verdicts.add(is_stable(program, candidate))
        assert verdicts == {True, False}

    def test_feed_has_head_cycle_free_and_other_disjunctive_reducts(self):
        # Each kind of disjunctive reduct meets stable and unstable candidates.
        verdicts = {True: set(), False: set()}
        for program in self._programs():
            for candidate in iter_subsets(program.language):
                reduct = gl_reduct(program, candidate)
                if not all(len(r.head) == 1 for r in reduct.rules):
                    verdicts[oracles.is_head_cycle_free(reduct)].add(
                        is_stable(program, candidate))
        assert verdicts == {True: {True, False}, False: {True, False}}

    @pytest.mark.parametrize("text, expected", [
        ("a | b.", True),
        ("a | b. a :- b. b :- a.", False),
        ("a | b :- c. c :- a.", True),
        ("a | b :- c. c :- a. d :- b. c :- d.", False),
        ("a | a :- a.", True),
    ])
    def test_head_cycle_free_reference(self, text, expected):
        assert oracles.is_head_cycle_free(load_program(text)) is expected

    def test_generator_mixes_atoms_constraints_and_negation(self):
        rng = random.Random(31)
        programs = [generators.random_disjunctive_constraint_program(rng)
                    for _ in range(60)]
        rules = [r for p in programs for r in p.rules]
        assert any(len(r.head) > 1 for r in rules)
        assert any(isinstance(e, str) for r in rules for e in r.head)
        assert any(isinstance(e, CAtom) for r in rules for e in r.head)
        assert any(not lit.positive for r in rules for lit in r.body)
        assert all(lit.positive or lit.is_atom for r in rules for lit in r.body)
