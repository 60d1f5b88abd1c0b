"""The contract of the immutable value types (``core.Value`` and its subclasses).

One case per public type: its constructor's parameter names, order and
defaults, keyword construction, equality and hashing on its fields (or on
identity for ``CycleReport``), inequality against other types, refusal to
assign or delete a field, its cached properties and its repr.
"""

import inspect
from typing import NamedTuple

import pytest

from catlp.abstraction import AbstractCAtom, CAtomClass, PrefixedPowerSet
from catlp.analysis import CycleReport, DependencyGraph
from catlp.core import CAtom, Literal, Program, Rule
from catlp.golden import GoldenCase
from catlp.reduct import ReductProgram

REQUIRED = inspect.Parameter.empty

CYCLES = dict(has_positive_cycle=False, has_odd_cycle=True, has_even_cycle=False,
              has_even_cycle_literal=False, call_consistent=False, acyclic=False,
              witnesses={})
CYCLES_REPR = ("CycleReport(has_positive_cycle=False, has_odd_cycle=True, has_even_cycle=False, "
               "has_even_cycle_literal=False, call_consistent=False, acyclic=False, "
               "witnesses={})")
RULE = Rule(("h",))


class Case(NamedTuple):
    cls: type
    signature: list            # (name, default) per parameter, REQUIRED for none
    kwargs: dict               # a keyword construction by those names
    repr: str                  # the repr of ``cls(**kwargs)``
    cached: tuple = ()         # cached properties, each computed once
    identity: bool = False     # equal only to itself


CASES = [
    Case(CAtom, [("domain", REQUIRED), ("solutions", REQUIRED)],
         dict(domain="ab", solutions=["a", "b"]), "CAtom(atoms=('a', 'b'), table=0x6)",
         cached=("solutions", "digest")),
    Case(Literal, [("positive", REQUIRED), ("item", REQUIRED)],
         dict(positive=False, item="a"), "Literal(positive=False, item='a')"),
    Case(Rule, [("head", REQUIRED), ("body", ())],
         dict(head=["h"], body=[Literal(True, "a")]),
         "Rule(head=('h',), body=(Literal(positive=True, item='a'),))"),
    Case(Program, [("rules", REQUIRED), ("declared_atoms", frozenset())],
         dict(rules=[RULE], declared_atoms=["z"]),
         "Program(rules=(Rule(head=('h',), body=()),), declared_atoms=frozenset({'z'}))",
         cached=("atoms", "language", "compiled")),
    Case(ReductProgram, [("rules", REQUIRED), ("declared_atoms", frozenset()),
                         ("gamma", frozenset())],
         dict(rules=[RULE], gamma=frozenset({"g"})),
         "ReductProgram(rules=(Rule(head=('h',), body=()),), declared_atoms=frozenset(), "
         "gamma=frozenset({'g'}))",
         cached=("atoms", "language", "compiled")),
    Case(PrefixedPowerSet, [("base", REQUIRED), ("free", REQUIRED)],
         dict(base="a", free="b"),
         "PrefixedPowerSet(base=frozenset({'a'}), free=frozenset({'b'}))"),
    Case(AbstractCAtom, [("domain", REQUIRED), ("lattices", REQUIRED)],
         dict(domain="ab", lattices=[PrefixedPowerSet("a", "b")]),
         "AbstractCAtom(atoms=('a', 'b'), groups=((2, 2),))",
         cached=("domain", "primes", "lattices", "tables")),
    Case(CAtomClass, [("monotone", REQUIRED), ("antimonotone", REQUIRED), ("convex", REQUIRED)],
         dict(monotone=True, antimonotone=False, convex=True),
         "CAtomClass(monotone=True, antimonotone=False, convex=True)"),
    Case(DependencyGraph, [("vertices", REQUIRED), ("edges", REQUIRED)],
         dict(vertices=["a"], edges=[("a", "a", "-")]),
         "DependencyGraph(vertices=frozenset({'a'}), edges=frozenset({('a', 'a', '-')}))"),
    Case(CycleReport, [(name, REQUIRED) for name in CYCLES], CYCLES, CYCLES_REPR,
         identity=True),
    Case(GoldenCase, [("name", REQUIRED), ("check", REQUIRED)],
         dict(name="n", check=print), "GoldenCase(name='n', check=<built-in function print>)"),
]


@pytest.mark.parametrize("case", CASES, ids=lambda case: case.cls.__name__)
def test_value_contract(case):
    assert [(p.name, p.default) for p in inspect.signature(case.cls).parameters.values()] == (
        case.signature)
    value, twin = case.cls(**case.kwargs), case.cls(**case.kwargs)
    assert repr(value) == case.repr
    fields = list(vars(twin))  # nothing cached yet

    if case.identity:
        assert value == value and value != twin
        assert hash(value) == object.__hash__(value)
    else:
        assert value == twin and hash(value) == hash(twin)
    # Another class, even a subclass with the same fields, is never equal.
    sibling = object.__new__(type("Sibling", (case.cls,), {}))
    vars(sibling).update(vars(value))
    assert value.__eq__(sibling) is NotImplemented
    assert value != sibling and value != Literal(True, "a") and value != object()

    for name in fields:
        before = getattr(value, name)
        with pytest.raises(AttributeError):
            setattr(value, name, before)
        with pytest.raises(AttributeError):
            delattr(value, name)
        assert getattr(value, name) is before

    for name in case.cached:
        first = getattr(value, name)
        assert getattr(value, name) is first and vars(value)[name] is first
