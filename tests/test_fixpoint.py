import random
import time

import pytest

from catlp import fixpoint as fixpoint_module
from catlp.abstraction import build_abstract
from catlp.core import (
    CAtom,
    Literal,
    Program,
    Rule,
    complement,
    is_model,
    iter_subsets,
    satisfies_catom,
)
from catlp.errors import GuardError, InvariantError, NotAModelError, ProgramClassError
from catlp.fixpoint import (
    cond_satisfies,
    cond_satisfies_abstract,
    fixpoint_stable,
    fixpoint_stable_models,
    to_positive_basic,
    tp_step,
)
from catlp.golden import SELF_SUPPORT, SUM_LOOP
from catlp.parser import load_program
from catlp.reduct import is_stable, stable_models

import generators
import oracles

SELF_SUPPORT_CATOM = CAtom("bc", [set(), {"b"}, {"b", "c"}])


class TestCondSatisfies:
    def test_interval_fully_admissible(self):
        catom = CAtom("ab", [{"a"}, {"a", "b"}])
        assert cond_satisfies({"a"}, {"a", "b"}, catom)

    def test_tautological_constraint(self):
        catom = CAtom("a", [set(), {"a"}])
        assert cond_satisfies(set(), {"a", "b"}, catom)

    def test_gap_in_interval(self):
        assert not cond_satisfies(set(), {"b", "c", "d"}, SELF_SUPPORT_CATOM)

    def test_requires_plain_satisfaction_first(self):
        catom = CAtom("a", [{"a"}])
        assert not cond_satisfies(set(), {"a"}, catom)

    def test_empty_interval_reduces_to_satisfaction(self):
        # lower exceeds upper inside the domain: nothing to interpolate
        catom = CAtom("ab", [{"a"}])
        assert cond_satisfies({"a"}, set(), catom)

    def test_guard(self, monkeypatch):
        # No guard and no enumeration: a verdict costs one plain satisfaction
        # test, of ``lower``, and one table fold per interval atom, so an
        # interval of 2**20 sets is answered at once.
        tested = []
        monkeypatch.setattr(fixpoint_module, "satisfies_catom",
                            lambda low, catom: tested.append(low) or satisfies_catom(low, catom))
        wide = frozenset(f"x{i}" for i in range(17))
        catom = CAtom(wide, [set(), {"x0"}])
        assert not cond_satisfies(set(), wide, catom)
        assert not cond_satisfies(set(), {"x0", "x1"}, catom)
        assert cond_satisfies(set(), {"x0"}, catom)
        assert len(tested) == 3
        atoms = [f"x{i}" for i in range(20)]
        punctured = complement(CAtom(atoms, [{"x0"}]))
        started = time.perf_counter()
        assert cond_satisfies(set(), atoms[1:], punctured)
        assert not cond_satisfies(set(), atoms, punctured)
        assert time.perf_counter() - started < 1.0
        assert len(tested) == 5

    def test_reads_the_table_not_the_family(self):
        # The complement of one set over 12 atoms: the interval below the
        # other 11 atoms is admissible, the one below all 12 is not.
        atoms = [f"x{i}" for i in range(12)]
        catom = complement(CAtom(atoms, [{"x0"}]))
        assert cond_satisfies(set(), atoms[1:], catom)
        assert not cond_satisfies(set(), atoms, catom)
        assert "solutions" not in vars(catom)  # no frozenset view was built

    def test_matches_definition(self):
        rng = random.Random(53)
        for _ in range(400):
            catom = generators.random_catom(rng, max_domain=5)
            pool = sorted(catom.domain) + ["z"]
            upper = frozenset(a for a in pool if rng.random() < 0.6)
            lower = frozenset(a for a in upper if rng.random() < 0.6)
            assert cond_satisfies(lower, upper, catom) == oracles.brute_cond_satisfies(
                lower, upper, catom)

    def test_implies_plain_satisfaction(self):
        rng = random.Random(59)
        from catlp.core import satisfies_catom

        for _ in range(200):
            catom = generators.random_catom(rng, max_domain=5)
            upper = frozenset(a for a in catom.domain if rng.random() < 0.7)
            lower = frozenset(a for a in upper if rng.random() < 0.7)
            if cond_satisfies(lower, upper, catom):
                assert satisfies_catom(lower, catom)


class TestCondSatisfiesAbstract:
    def test_sum_atom_example(self):
        catom = CAtom(
            ("p(-1)", "p(1)", "p(2)"),
            [{"p(1)"}, {"p(2)"}, {"p(-1)", "p(2)"}, {"p(1)", "p(2)"},
             {"p(-1)", "p(1)", "p(2)"}])
        abstract = build_abstract(catom)
        assert cond_satisfies_abstract(
            {"p(2)"}, {"p(-1)", "p(1)", "p(2)"}, abstract)

    def test_nonempty_base_needs_lower_atoms(self):
        abstract = build_abstract(CAtom.elementary("a"))
        assert not cond_satisfies_abstract(set(), {"a"}, abstract)

    def test_agreement_with_direct_route(self):
        rng = random.Random(61)
        for _ in range(1000):
            catom = generators.random_catom(rng, max_domain=5)
            abstract = build_abstract(catom)
            upper = frozenset(a for a in catom.domain if rng.random() < 0.6)
            lower = frozenset(a for a in upper if rng.random() < 0.6)
            assert cond_satisfies_abstract(lower, upper, abstract) == cond_satisfies(
                lower, upper, catom)


class TestTpStep:
    def test_self_support_step_derives_nothing(self):
        program = load_program(SELF_SUPPORT)
        assert tp_step(program, set(), {"b", "c", "d"}) == frozenset()

    def test_empty_program(self):
        assert tp_step(Program(()), set(), set()) == frozenset()

    def test_fact_fires_and_aggregate_does_not(self):
        program = to_positive_basic(load_program(SUM_LOOP))
        assert tp_step(program, set(), {"p(1)"}) == frozenset(("p(1)",))

    def test_rejects_negative_literals(self):
        program = Program((Rule(("a",), (Literal.negated_atom("b"),)),))
        with pytest.raises(ProgramClassError):
            tp_step(program, set(), set())

    def test_rejects_disjunction(self):
        program = Program((Rule(("a", "b")),))
        with pytest.raises(ProgramClassError):
            tp_step(program, set(), set())

    def test_monotone_in_lower_argument(self):
        rng = random.Random(67)
        pool = ("a", "b", "c", "d")
        for _ in range(120):
            program = generators.random_positive_basic_program(
                rng, atoms=pool, max_rules=4, max_domain=3)
            models = [i for i in iter_subsets(pool) if is_model(i, program)]
            if not models:
                continue
            model = rng.choice(models)
            smaller = frozenset(a for a in model if rng.random() < 0.5)
            larger = smaller | frozenset(a for a in model if rng.random() < 0.5)
            step_small = tp_step(program, smaller, model)
            step_large = tp_step(program, larger, model)
            assert step_small <= step_large <= model


class TestFixpointStable:
    def test_self_support_rejected(self):
        program = load_program(SELF_SUPPORT)
        assert not fixpoint_stable(program, {"b", "c", "d"})

    def test_single_fact(self):
        assert fixpoint_stable(load_program("a."), {"a"})

    def test_non_model_raises(self):
        # {p(1)} satisfies the aggregate, so the last rule forces p(2):
        # not a model, and the oracle says so rather than guessing.
        program = to_positive_basic(load_program(SUM_LOOP))
        with pytest.raises(NotAModelError):
            fixpoint_stable(program, {"p(1)"})

    def test_iteration_bound_is_enforced(self, monkeypatch):
        # An operator that never settles must hit the typed bound check.
        steps = iter(range(1000))
        monkeypatch.setattr(
            fixpoint_module, "tp_step",
            lambda program, lower, context: frozenset((f"s{next(steps)}",)))
        with pytest.raises(InvariantError, match="exceeded its bound"):
            fixpoint_stable(load_program("a."), frozenset("a"))

    def test_agrees_with_reduct_on_self_loop(self):
        program = load_program("a :- a.")
        assert fixpoint_stable(program, frozenset()) == is_stable(program, frozenset())

    def test_fixpoint_stable_models_match_reduct_route(self):
        rng = random.Random(71)
        for _ in range(80):
            program = generators.random_positive_basic_program(
                rng, atoms=("a", "b", "c", "d"), max_rules=4, max_domain=3)
            assert set(fixpoint_stable_models(program)) == set(stable_models(program))

    def test_fixpoint_stable_models_language_guard(self):
        atoms = [f"x{i}" for i in range(21)]
        program = Program(tuple(Rule((a,)) for a in atoms))
        with pytest.raises(GuardError) as caught:
            fixpoint_stable_models(program)
        assert (caught.value.guard, caught.value.actual) == ("stable_language", 21)


class TestToPositiveBasic:
    def test_negative_atom_becomes_complement_constraint(self):
        program = to_positive_basic(load_program("a :- not b."))
        (rule,) = program.rules
        assert rule.body == (Literal.constraint(CAtom("b", [()])),)

    def test_negated_constraint_becomes_complement(self):
        catom = CAtom("ab", [{"a", "b"}])
        program = Program((Rule(("a",), (Literal.negated_constraint(catom),)),))
        rewritten = to_positive_basic(program)
        assert rewritten.rules[0].body == (Literal.constraint(complement(catom)),)

    def test_positive_program_unchanged(self):
        program = load_program(SUM_LOOP)
        assert to_positive_basic(program) == program

    def test_rejects_disjunction(self):
        with pytest.raises(ProgramClassError):
            to_positive_basic(Program((Rule(("a", "b")),)))

    def test_rejects_constraint_heads(self):
        program = Program((Rule((CAtom("ab", [{"a"}]),)),))
        with pytest.raises(ProgramClassError):
            to_positive_basic(program)

    def test_rewrite_preserves_stable_models(self):
        rng = random.Random(73)
        for _ in range(60):
            program = generators.random_normal_constraint_program(
                rng, atoms=("a", "b", "c"), max_rules=3, max_domain=2)
            rewritten = to_positive_basic(program)
            from catlp.parser import eliminate_negated_catoms

            direct = eliminate_negated_catoms(program)
            assert stable_models(direct) == stable_models(rewritten)
            expected = set(stable_models(rewritten))
            assert set(fixpoint_stable_models(rewritten)) == expected
