"""Seeded random instance builders for the differential suites."""

from __future__ import annotations

import random

from catlp.core import CAtom, FALSE_CATOM, Literal, Program, Rule

from oracles import iter_subsets

POOL = ("a", "b", "c", "d", "e", "f")


def random_catom(rng: random.Random, pool=POOL, max_domain=4, min_domain=0) -> CAtom:
    size = rng.randint(min_domain, max_domain)
    domain = frozenset(rng.sample(pool, size))
    solutions = frozenset(s for s in iter_subsets(domain) if rng.random() < 0.5)
    return CAtom(domain, solutions)


def _random_body(rng, atoms, max_domain, max_items=2, negation=False,
                 negated_constraints=True):
    body = []
    for _ in range(rng.randint(0, max_items)):
        roll = rng.random()
        if roll < 0.45:
            atom = rng.choice(atoms)
            if negation and rng.random() < 0.4:
                body.append(Literal.negated_atom(atom))
            else:
                body.append(Literal.atom(atom))
        else:
            catom = random_catom(rng, atoms, max_domain)
            if negation and negated_constraints and rng.random() < 0.25:
                body.append(Literal.negated_constraint(catom))
            else:
                body.append(Literal.constraint(catom))
    return tuple(body)


def random_positive_basic_program(
    rng: random.Random, atoms=POOL, max_rules=5, max_domain=4
) -> Program:
    rules = []
    for _ in range(rng.randint(1, max_rules)):
        head = rng.choice(atoms)
        rules.append(Rule((head,), _random_body(rng, atoms, max_domain)))
    return Program(tuple(rules))


def random_basic_program(
    rng: random.Random, atoms=POOL[:4], max_rules=4, max_domain=3,
    bot_probability=0.15,
) -> Program:
    rules = []
    for _ in range(rng.randint(1, max_rules)):
        if rng.random() < bot_probability:
            head: tuple = (FALSE_CATOM,)
        else:
            head = (rng.choice(atoms),)
        rules.append(Rule(head, _random_body(rng, atoms, max_domain)))
    return Program(tuple(rules))


def random_ordinary_program(
    rng: random.Random, atoms=POOL, max_rules=6, disjunctive=False
) -> Program:
    rules = []
    for _ in range(rng.randint(1, max_rules)):
        width = rng.randint(1, 2) if disjunctive else 1
        head = tuple(rng.sample(atoms, width))
        body = []
        for _ in range(rng.randint(0, 3)):
            atom = rng.choice(atoms)
            if rng.random() < 0.6:
                body.append(Literal.atom(atom))
            else:
                body.append(Literal.negated_atom(atom))
        rules.append(Rule(head, tuple(body)))
    return Program(tuple(rules))


def random_normal_constraint_program(
    rng: random.Random, atoms=POOL[:5], max_rules=4, max_domain=3
) -> Program:
    """Elementary heads, bodies mixing atoms and constraints under ``not``."""
    rules = []
    for _ in range(rng.randint(1, max_rules)):
        head = rng.choice(atoms)
        rules.append(Rule(
            (head,), _random_body(rng, atoms, max_domain, negation=True)))
    return Program(tuple(rules))


def random_disjunctive_constraint_program(
    rng: random.Random, atoms=POOL[:4], max_rules=4, max_domain=3, max_width=3
) -> Program:
    """Disjunctive heads mixing atoms and constraints; bodies may negate atoms."""
    rules = []
    for _ in range(rng.randint(1, max_rules)):
        head = tuple(
            rng.choice(atoms) if rng.random() < 0.5
            else random_catom(rng, atoms, max_domain)
            for _ in range(rng.randint(1, max_width)))
        body = _random_body(
            rng, atoms, max_domain, negation=True, negated_constraints=False)
        rules.append(Rule(head, body))
    return Program(tuple(rules))
