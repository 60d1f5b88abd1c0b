import ast
import random
import time
from pathlib import Path

import pytest

from catlp import fixpoint as fixpoint_module
from catlp.core import (
    FALSE_CATOM,
    CAtom,
    CandidateBits,
    Literal,
    Program,
    Rule,
    complement,
    is_model,
)
from catlp.errors import GuardError, InvariantError, NotAModelError, ProgramClassError
from catlp.fixpoint import (
    cond_satisfies,
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
from oracles import iter_subsets

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
        # No guard and no enumeration: a verdict costs one ``core.interval`` call,
        # a plain satisfaction test of ``lower`` and one table fold per
        # interval atom, so an interval of 2**20 sets is answered at once.
        tested = []
        interval = fixpoint_module.interval
        monkeypatch.setattr(fixpoint_module, "interval",
                            lambda table, low, top: tested.append(low) or interval(table, low, top))
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
            inside = frozenset(a for a in upper if rng.random() < 0.6)
            anywhere = frozenset(a for a in pool if rng.random() < 0.5)  # may leave upper
            for lower in (inside, anywhere):
                assert cond_satisfies(lower, upper, catom) == oracles.brute_cond_satisfies(
                    lower, upper, catom)

    def test_implies_plain_satisfaction(self):
        rng = random.Random(59)
        for _ in range(200):
            catom = generators.random_catom(rng, max_domain=5)
            upper = frozenset(a for a in catom.domain if rng.random() < 0.7)
            lower = frozenset(a for a in upper if rng.random() < 0.7)
            if cond_satisfies(lower, upper, catom):
                assert oracles.satisfies_catom(lower, catom)


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
        # An operator that never settles must hit the typed bound check: each
        # step adds a candidate to every atom's bitset, so no step equals the
        # one before, on a space of one candidate or of all of them.
        steps = []
        monkeypatch.setattr(
            fixpoint_module, "_step",
            lambda space, candidates, lower: steps.append(lower) or [x + 1 for x in lower])
        with pytest.raises(InvariantError, match="exceeded its bound"):
            fixpoint_stable(load_program("a."), frozenset("a"))
        assert len(steps) == 3  # one atom: the bound is three steps
        with pytest.raises(InvariantError, match="exceeded its bound"):
            fixpoint_stable_models(load_program("a."))
        assert len(steps) == 6

    def test_agrees_with_reduct_on_self_loop(self):
        program = load_program("a :- a.")
        assert fixpoint_stable(program, frozenset()) == is_stable(program, frozenset())

    def test_fixpoint_stable_models_match_reduct_route(self):
        rng = random.Random(71)
        for _ in range(80):
            program = generators.random_positive_basic_program(
                rng, atoms=("a", "b", "c", "d"), max_rules=4, max_domain=3)
            assert fixpoint_stable_models(program) == stable_models(program)

    def test_fixpoint_stable_models_tests_no_model_twice(self, monkeypatch):
        # One model test of every candidate at once keeps only models, so the
        # ascent runs without a second model test per candidate.
        tested = []
        models = CandidateBits.models
        monkeypatch.setattr(CandidateBits, "models",
                            lambda space: tested.append(space.point) or models(space))
        program = load_program("a :- not b. b :- not a. c :- [a,c : {a}, {a,c}].")
        assert fixpoint_stable_models(to_positive_basic(program)) == (
            frozenset("ac"), frozenset("b"))
        assert tested == [None]

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

    def test_keeps_constraint_heads(self):
        program = Program((Rule((CAtom("ab", [{"a"}]),)),))
        assert to_positive_basic(program) == program
        assert fixpoint_stable_models(program) == stable_models(program) == (frozenset("a"),)

    def test_rewrite_preserves_stable_models(self):
        rng = random.Random(73)
        for _ in range(60):
            program = generators.random_normal_constraint_program(
                rng, atoms=("a", "b", "c"), max_rules=3, max_domain=2)
            rewritten = to_positive_basic(program)
            direct = oracles.lower_negated_catoms(program)
            assert stable_models(direct) == stable_models(rewritten)
            assert fixpoint_stable_models(rewritten) == stable_models(rewritten)


def _outcome(call):
    """The verdict, or the class and message of the library error raised."""
    try:
        return call()
    except (NotAModelError, ProgramClassError) as exc:
        return type(exc), str(exc)


class TestMaskOperatorDifferential:
    """The operator on ``Program.compiled`` against the set operator of
    ``tests/oracles.py``: both oracles read the compile, so this is what
    checks it from outside."""

    @staticmethod
    def _programs():
        rng = random.Random(79)
        for _ in range(100):
            program = generators.random_positive_basic_program(
                rng, atoms=("a", "b", "c", "d"), max_rules=4, max_domain=3)
            yield program
            # A hand-built elementary c-atom head compiles as a head c-atom.
            yield Program(tuple(Rule((CAtom.elementary(r.head[0]),), r.body)
                                for r in program.rules[:2]) + program.rules[2:])
            yield generators.random_normal_constraint_program(
                rng, atoms=("a", "b", "c", "d"), max_rules=4, max_domain=3)
        for _ in range(12):
            yield generators.random_disjunctive_constraint_program(rng, max_rules=3)
            yield generators.random_basic_program(rng, max_rules=3)

    def test_verdicts_and_refusals_match_the_set_ascent(self):
        # Only a disjunctive head is refused: c-atom and ``bot`` heads are taken.
        refused = normal = stable = 0
        for program in self._programs():
            rewrite = _outcome(lambda: to_positive_basic(program))
            single = all(len(r.head) == 1 for r in program.rules)
            assert isinstance(rewrite, Program) == single, (program, rewrite)
            if single:
                normal += any(not lit.positive for r in program.rules for lit in r.body)
            else:
                refused += 1
            for candidate in iter_subsets(program.language | {"z"}):  # z is outside
                direct = _outcome(lambda: fixpoint_stable(program, candidate))
                rewritten = _outcome(lambda: fixpoint_stable(to_positive_basic(program), candidate))
                brute = _outcome(lambda: oracles.brute_fixpoint_stable(
                    to_positive_basic(program), candidate))
                assert direct == rewritten == brute, (program, candidate)
                stable += direct is True
                if not isinstance(rewrite, Program):
                    assert direct == rewrite
        assert refused >= 8 and normal >= 40 and stable >= 150

    def test_step_matches_the_set_step(self):
        rng = random.Random(83)
        pool = ("a", "b", "c", "d", "z")  # z is outside every vocabulary
        for _ in range(300):
            program = generators.random_positive_basic_program(
                rng, atoms=pool[:4], max_rules=4, max_domain=3)
            if rng.random() < 0.5:
                program = Program((Rule((CAtom.elementary(program.rules[0].head[0]),),
                                        program.rules[0].body),) + program.rules[1:])
            context = frozenset(a for a in pool if rng.random() < 0.6)
            lower = frozenset(a for a in context if rng.random() < 0.5)
            assert tp_step(program, lower, context) == oracles.brute_tp_step(
                program, lower, context)

    def test_step_matches_the_set_step_from_a_lower_set_outside_the_context(self):
        # ``lower`` is drawn apart from ``context``: a body c-atom whose lower
        # part leaves its context part has no interpolants, so only the plain
        # satisfaction of ``lower`` decides it (``core.interval``'s first test).
        rng = random.Random(83)
        pool = ("a", "b", "c", "d", "z")  # z is outside every vocabulary
        outside = 0
        for _ in range(300):
            program = generators.random_positive_basic_program(
                rng, atoms=pool[:4], max_rules=4, max_domain=3)
            domains = [lit.item.domain for rule in program.rules for lit in rule.body
                       if lit.is_constraint]
            for _ in range(10):
                context = frozenset(a for a in pool if rng.random() < 0.6)
                lower = frozenset(a for a in pool if rng.random() < 0.5)
                outside += any((lower - context) & domain for domain in domains)
                assert tp_step(program, lower, context) == oracles.brute_tp_step(
                    program, lower, context), (program, lower, context)
        assert outside >= 600


class TestCAtomHeadFeed:
    """Programs of one head per rule, an atom, a c-atom or ``bot``, whose bodies
    negate atoms and c-atoms: the heads the operator adds a domain for."""

    @staticmethod
    def _programs(count):
        rng = random.Random(97)
        return [generators.random_single_head_program(rng) for _ in range(count)]

    def test_fixpoint_stable_models_match_the_reduct_route(self):
        heads = bots = negated_atoms = negated_catoms = answers = 0
        for program in self._programs(3000):
            found = fixpoint_stable_models(program)
            assert found == stable_models(program), program
            answers += len(found)
            for rule in program.rules:
                (head,) = rule.head
                bots += head == FALSE_CATOM
                heads += isinstance(head, CAtom) and head != FALSE_CATOM
                for lit in rule.body:
                    negated_atoms += not lit.positive and lit.is_atom
                    negated_catoms += not lit.positive and lit.is_constraint
        assert heads >= 2000 and bots >= 1000 and answers >= 2000
        assert negated_atoms >= 1000 and negated_catoms >= 800

    def test_one_candidate_and_every_candidate_agree(self):
        models = stable = answers = 0
        for program in self._programs(1000):
            found = fixpoint_stable_models(program)
            answers += len(found)
            for candidate in iter_subsets(program.language):
                try:
                    verdict = fixpoint_stable(program, candidate)
                except NotAModelError:
                    verdict = False  # not a model, so not stable
                else:
                    models += 1
                assert verdict == (candidate in found), (program, candidate)
                stable += verdict
        assert stable == answers
        assert models >= 4000 and stable >= 800


class TestAggregateFeed:
    """Normal programs of 12-16 atoms whose even loops give thousands of models,
    with count and sum aggregates, some of them negated, deriving further atoms."""

    @staticmethod
    def _programs(count):
        rng = random.Random(89)
        return [generators.random_aggregate_program(rng, 12 + i % 5) for i in range(count)]

    def test_fixpoint_stable_models_match_the_reduct_route(self):
        negated = 0
        for program in self._programs(200):
            assert fixpoint_stable_models(program) == stable_models(program), program
            negated += any(lit.is_constraint and not lit.positive
                           for rule in program.rules for lit in rule.body)
        assert negated >= 150

    def test_one_candidate_and_every_candidate_agree(self, monkeypatch):
        # The all-candidates ascent decides every model at once: no route may
        # turn a candidate back into a vocabulary mask, as a per-model ascent would.
        def refuse(space, k):
            raise AssertionError("a per-model driver read CandidateBits.mask")

        monkeypatch.setattr(CandidateBits, "mask", refuse)
        models = stable = answers = 0
        for program in self._programs(3):
            found = fixpoint_stable_models(program)
            answers += len(found)
            for candidate in iter_subsets(program.language):
                try:
                    verdict = fixpoint_stable(program, candidate)
                except NotAModelError:
                    verdict = False  # not a model, so not stable
                else:
                    models += 1
                assert verdict == (candidate in found), (program, candidate)
                stable += verdict
        assert stable == answers
        assert models >= 1000 and stable >= 10


def test_fixpoint_oracle_imports_only_core_and_errors():
    """The fixpoint route is the paper's second characterization: it may
    share no code with the reduct or the abstract forms."""
    tree = ast.parse(Path(fixpoint_module.__file__).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                imported.add(node.module)
            elif node.module:
                imported.add(f"catlp.{node.module}")
            else:  # ``from . import x``
                imported.update(f"catlp.{alias.name}" for alias in node.names)
    assert {"catlp.core", "catlp.errors"} <= imported
    assert {m for m in imported if m.partition(".")[0] == "catlp"} == {"catlp.core", "catlp.errors"}
