"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import contextlib
import random
import time
import warnings

from catlp import golden
from catlp.abstraction import (
    PrefixedPowerSet,
    build_abstract,
    classify_catom,
    expand,
    satisfiable_sets,
)
from catlp.core import CAtom, is_model
from catlp.analysis import translate_normal
from catlp.fixpoint import fixpoint_stable
from catlp.reduct import gl_reduct, is_stable, minimal_models, reduct_size_bound, stable_models

import generators
import oracles
from oracles import iter_subsets, satisfies_catom


@contextlib.contextmanager
def criterion(name):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"FAIL {name}")
        raise
    print(f"PASS {name} ({time.perf_counter() - started:.1f}s)")


def test_criterion_1_golden_corpus():
    with criterion("golden corpus, exact matches under 1s each"):
        for case in golden.CASES:
            started = time.perf_counter()
            case.check()
            assert time.perf_counter() - started < 1.0, case.name


def test_criterion_2_abstract_representation_properties():
    with criterion("abstract form properties on 2000 random constraint atoms"):
        started = time.perf_counter()
        rng = random.Random(2024)
        oversized = []
        for _ in range(2000):
            catom = generators.random_catom(rng, max_domain=6)
            abstract = build_abstract(catom)
            assert expand(abstract) == catom
            for interp in iter_subsets(catom.domain):
                assert bool(satisfiable_sets(abstract, interp)) == satisfies_catom(
                    interp, catom)
            flags = classify_catom(abstract)
            assert flags.monotone == oracles.brute_monotone(catom)
            assert flags.antimonotone == oracles.brute_antimonotone(catom)
            assert flags.convex == oracles.brute_convex(catom)
            if len(abstract.lattices) > len(catom.solutions):
                oversized.append(catom)
        if oversized:  # report-only: the size conjecture admits counterexamples
            warnings.warn(
                f"{len(oversized)} of 2000 instances have more sublattices "
                f"than solutions (first domain: {sorted(oversized[0].domain)})")
        assert time.perf_counter() - started <= 10.0


def test_criterion_3_fixpoint_equivalence():
    with criterion("reduct vs fixpoint verdicts on 500 positive basic programs"):
        started = time.perf_counter()
        rng = random.Random(2025)
        divergences = 0
        for _ in range(500):
            program = generators.random_positive_basic_program(
                rng, atoms=("a", "b", "c", "d", "e", "f"), max_rules=5,
                max_domain=4)
            for candidate in iter_subsets(program.language):
                if not is_model(candidate, program):
                    continue
                if fixpoint_stable(program, candidate) != is_stable(program, candidate):
                    divergences += 1
        assert divergences == 0
        assert time.perf_counter() - started < 60.0


def test_criterion_4_ordinary_program_conformance():
    with criterion("textbook conformance on 500 ordinary programs"):
        rng = random.Random(2026)
        for index in range(500):
            program = generators.random_ordinary_program(
                rng, atoms=("a", "b", "c", "d", "e", "f"), max_rules=5,
                disjunctive=index % 2 == 0)
            ours = set(stable_models(program))
            textbook = oracles.standard_gl_stable_models(program)
            assert ours == textbook
            embedded = oracles.embed_ordinary(program)
            assert set(stable_models(embedded)) == textbook


def test_criterion_5_theorem_backed_properties():
    with criterion("stable models are models, minimal for elementary heads"):
        rng = random.Random(2027)
        for _ in range(150):
            program = generators.random_positive_basic_program(
                rng, atoms=("a", "b", "c", "d"), max_rules=4, max_domain=3)
            for model in stable_models(program):
                assert is_model(model, program)
                assert model in minimal_models(program)
        for _ in range(50):
            program = generators.random_ordinary_program(
                rng, atoms=("a", "b", "c", "d"), max_rules=4, disjunctive=True)
            for model in stable_models(program):
                assert is_model(model, program)
                assert model in minimal_models(program)
        # Constraint heads may break minimality but never model-hood.
        from catlp.parser import load_program

        pair = load_program(golden.PAIR_CHOICE_FACT)
        for model in stable_models(pair):
            assert is_model(model, pair)

    with criterion("reduct size bound on every reduct"):
        rng = random.Random(2028)
        for _ in range(100):
            program = generators.random_basic_program(rng)
            bound = reduct_size_bound(program)
            for candidate in iter_subsets(program.language):
                # gl_reduct also asserts this internally on every call.
                assert len(gl_reduct(program, candidate).rules) <= bound

    with criterion("translation projection identity on 300 basic programs"):
        rng = random.Random(2029)
        for _ in range(300):
            program = generators.random_basic_program(rng)
            translated = translate_normal(program)
            projected = {m & program.atoms
                         for m in oracles.standard_gl_stable_models(translated)}
            assert projected == set(stable_models(program))

    with criterion("dependency-graph implications on 500 basic programs"):
        rng = random.Random(2030)
        for _ in range(500):
            program = generators.random_basic_program(rng)
            implications = oracles.dependency_implications(program)
            assert all(implications.values()), implications


def test_criterion_6_construction_smoke():
    with criterion("abstract form of a 256-solution atom under 5s"):
        domain = frozenset(f"x{i}" for i in range(8))
        catom = CAtom(domain, frozenset(iter_subsets(domain)))
        assert len(catom.solutions) == 256
        started = time.perf_counter()
        abstract = build_abstract(catom)
        elapsed = time.perf_counter() - started
        assert abstract.lattices == frozenset(
            (PrefixedPowerSet(frozenset(), domain),))
        assert elapsed < 5.0
