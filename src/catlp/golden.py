"""Built-in worked examples with known results, used by ``catlp selftest``.

Each case packages a small program or constraint atom together with the
expected outcome of the relevant pipeline: abstract forms, reducts, stable
models, translations, and dependency graphs.  The test suite reuses these
definitions; the CLI runs them as a smoke check.
"""

from __future__ import annotations

import re
from typing import Callable

from .abstraction import PrefixedPowerSet, build_abstract
from .analysis import cycle_report, dependency_graph, translate_normal
from .core import CAtom, Literal, Program, Rule, Value, is_model
from .fixpoint import fixpoint_stable, fixpoint_stable_models, to_positive_basic
from .parser import format_program, load_program
from .reduct import (
    beta_atom,
    gl_reduct,
    is_stable,
    least_model,
    minimal_models,
    stable_models,
    theta_atom,
)

# -- programs ---------------------------------------------------------------

#: A fact, a chained rule, and a rule whose body aggregates a signed sum.
SUM_LOOP = """\
p(1).
p(-1) :- p(2).
p(2) :- #sum{p(-1)=-1, p(1)=1, p(2)=2} >= 1.
"""

#: Disjunctive fact over two one-atom constraints plus a bridging rule.
DISJUNCTIVE_FACT = """\
[a : {a}] | [b : {b}].
a :- b.
"""

#: Shift grouping: choose a or not, then one of b,c or two of d,e,f.
SHIFT_GROUPING = """\
1 {a, not a} 1.
1 {b,c} 1 | 2 {d,e,f} 2 :- a.
"""

#: Disjunctive aggregates over a fixed three-atom vocabulary.
SUM_COUNT_DISJUNCTION = """\
#atoms p(-1), p(1), p(2).
p(1) | p(-1).
#sum{p(-1)=-1, p(1)=1, p(2)=2} >= 3 | #sum{p(-1)=-1, p(1)=1, p(2)=2} <= 0 :- #count{p(-1)=1, p(1)=1, p(2)=1} >= 1.
"""

#: A single head constraint admitting {a}, {b}, and {a,b}.
PAIR_CHOICE_FACT = "[a,b : {a}, {b}, {a,b}].\n"

#: Two rules negatively entangled through shared-domain constraints.
EVEN_LOOP = """\
p.
a :- [b,p : {p}].
b :- [a,p : {p}].
"""

#: Deriving d needs b and c, which only follow from d.
SELF_SUPPORT = """\
b :- c.
c :- d.
d :- [b,c : {}, {b}, {b,c}].
"""

#: Body constraint satisfied by anything; the head still needs support.
TAUTOLOGY_BODY = "a :- [a : {}, {a}].\n"

#: One rule, one body constraint: one positive and two negative edges.
NEGATIVE_EDGE_RULE = "a :- [a,b,c : {}, {b}, {b,c}].\n"

#: An integrity constraint that leaves no stable model.
BOT_CONSTRAINT = """\
bot :- a.
a.
"""

# -- constraint atoms --------------------------------------------------------

#: Eight admissible solutions collapsing to three sublattices.
LATTICE_FAMILY = CAtom(
    "abcd",
    [set(), {"b"}, {"c"}, {"a", "c"}, {"b", "c"}, {"c", "d"},
     {"a", "b", "c"}, {"b", "c", "d"}])

#: The at-least-one constraint over two atoms; minimal DNF is ``a | b``.
AT_LEAST_ONE = CAtom("ab", [{"a"}, {"b"}, {"a", "b"}])

#: Mixed family whose minimal DNF keeps exactly two disjuncts.
MIXED_FAMILY = CAtom(
    "abcd", [{"d"}, {"a"}, {"a", "b"}, {"a", "c"}, {"a", "b", "c"}])

#: Every subset of three atoms except {a,b}.
PUNCTURED_CUBE = CAtom(
    "abc",
    [set(), {"a"}, {"b"}, {"c"}, {"a", "c"}, {"b", "c"}, {"a", "b", "c"}])


def pps(base: str, free: str) -> PrefixedPowerSet:
    return PrefixedPowerSet(frozenset(base), frozenset(free))


def minimal_dnf(catom: CAtom) -> set[tuple[Literal, ...]]:
    """The minimal DNF of ``catom``: the bodies of the ``__theta_`` rules that
    ``translate_normal`` gives ``h :- A.``, one disjunct each."""
    translated = translate_normal(Program((Rule(("h",), (Literal.constraint(catom),)),)))
    return {rule.body for rule in translated.rules if rule.head == (theta_atom(catom),)}


def disjunctive_fact_program() -> Program:
    """DISJUNCTIVE_FACT with the head constraints kept as constraints."""
    return Program((
        Rule((CAtom.elementary("a"), CAtom.elementary("b"))),
        Rule(("a",), (Literal.atom("b"),)),
    ))


# -- checks -------------------------------------------------------------------
#
# Checks raise AssertionError through these helpers rather than ``assert``
# statements, which ``python -O`` strips.


def _expect(condition: bool, what: str) -> None:
    if not condition:
        raise AssertionError(what)


def _expect_equal(actual, expected) -> None:
    if actual != expected:
        raise AssertionError(f"got {actual!r}, expected {expected!r}")


def _strip_special(text: str) -> str:
    """Collapse introduced atom names to T1/T2/... and B1/B2/... placeholders."""
    names: dict[str, str] = {}

    def replace(match: re.Match) -> str:
        token = match.group(0)
        if token not in names:
            prefix = "T" if token.startswith("__theta_") else "B"
            count = sum(1 for v in names.values() if v.startswith(prefix))
            names[token] = f"{prefix}{count + 1}"
        return names[token]

    return re.sub(r"__(?:theta|beta)_[0-9a-f]+", replace, text)


def reduct_lines(program: Program, interpretation) -> set[str]:
    """Printed reduct lines with introduced names collapsed to T/B."""
    return set(_strip_special(format_program(gl_reduct(program, interpretation))).splitlines())


def check_lattice_family():
    abstract = build_abstract(LATTICE_FAMILY)
    _expect_equal(abstract.lattices, frozenset(
        (pps("", "bc"), pps("c", "ab"), pps("c", "bd"))))


def check_minimal_dnf():
    a, b, c, d = map(Literal.atom, "abcd")
    not_a, not_b, not_c, not_d = map(Literal.negated_atom, "abcd")
    _expect_equal(minimal_dnf(AT_LEAST_ONE), {(a,), (b,)})
    _expect_equal(minimal_dnf(MIXED_FAMILY), {(a, not_d), (d, not_a, not_b, not_c)})


def check_punctured_cube():
    abstract = build_abstract(PUNCTURED_CUBE)
    _expect_equal(abstract.lattices, frozenset(
        (pps("", "ac"), pps("", "bc"), pps("c", "ab"))))


def check_sum_loop():
    program = load_program(SUM_LOOP)
    catom = next(
        lit.item for rule in program.rules for lit in rule.body if lit.is_constraint)
    _expect_equal(build_abstract(catom).lattices, frozenset((
        PrefixedPowerSet(frozenset(("p(1)",)), frozenset(("p(2)",))),
        PrefixedPowerSet(frozenset(("p(2)",)), frozenset(("p(-1)", "p(1)"))),
    )))
    everything = frozenset(("p(-1)", "p(1)", "p(2)"))
    reduct = gl_reduct(program, everything)
    _expect_equal(reduct_lines(program, everything), {
        "p(1).", "p(-1) :- p(2).", "p(2) :- T1.", "T1 :- p(2)."})
    _expect_equal(least_model(reduct) - reduct.gamma, frozenset(("p(1)",)))
    _expect(not is_stable(program, everything), "the full interpretation is stable")
    _expect_equal(stable_models(program), ())


def check_disjunctive_fact():
    program = disjunctive_fact_program()
    _expect_equal(reduct_lines(program, frozenset("ab")), {
        "B1 | B2.", "a :- B1.", "B1 :- a.", "b :- B2.", "B2 :- b.", "a :- b."})
    _expect(not is_stable(program, frozenset("ab")), "{a, b} is stable")
    _expect(is_stable(program, frozenset("a")), "{a} is not stable")
    reduct = gl_reduct(program, frozenset("ab"))
    expected = frozenset(("a", beta_atom(CAtom.elementary("a"))))
    _expect_equal(minimal_models(reduct), (expected,))
    # The parsed spelling flattens the heads; the verdicts must agree.
    parsed = load_program(DISJUNCTIVE_FACT)
    _expect(not is_stable(parsed, frozenset("ab")), "parsed: {a, b} is stable")
    _expect(is_stable(parsed, frozenset("a")), "parsed: {a} is not stable")


def check_shift_grouping():
    program = load_program(SHIFT_GROUPING)
    _expect_equal(stable_models(program), tuple(
        frozenset(s) for s in (
            (), ("a", "b"), ("a", "c"), ("a", "d", "e"), ("a", "d", "f"),
            ("a", "e", "f"))))


def check_sum_count_disjunction():
    program = load_program(SUM_COUNT_DISJUNCTION)
    _expect_equal(stable_models(program), tuple(
        frozenset(s) for s in (
            ("p(-1)",), ("p(-1)", "p(1)"), ("p(1)", "p(2)"))))


def check_pair_choice_fact():
    program = load_program(PAIR_CHOICE_FACT)
    _expect_equal(stable_models(program), tuple(
        frozenset(s) for s in (("a",), ("a", "b"), ("b",))))
    _expect_equal(fixpoint_stable_models(program), stable_models(program))
    _expect(is_model(frozenset("ab"), program), "{a, b} is not a model")
    _expect(frozenset("ab") not in minimal_models(program), "{a, b} is a minimal model")


def check_even_loop():
    program = load_program(EVEN_LOOP)
    _expect_equal(stable_models(program), (frozenset(("a", "p")), frozenset(("b", "p"))))
    report = cycle_report(dependency_graph(program))
    _expect(report.has_even_cycle, "no even cycle reported")
    _expect(report.call_consistent, "not reported call-consistent")
    graph = dependency_graph(program)
    _expect(("a", "b", "-") in graph.edges and ("b", "a", "-") in graph.edges,
            "the negative a/b edges are missing")


def check_self_support():
    program = load_program(SELF_SUPPORT)
    everything = frozenset("bcd")
    _expect_equal(minimal_models(program), (everything,))
    _expect(not is_stable(program, everything), "{b, c, d} is stable (reduct)")
    _expect(not fixpoint_stable(to_positive_basic(program), everything),
            "{b, c, d} is stable (fixpoint)")


def check_tautology_body():
    program = load_program(TAUTOLOGY_BODY)
    _expect_equal(stable_models(program), (frozenset("a"),))
    translated = translate_normal(program)
    lines = set(_strip_special(format_program(translated)).splitlines())
    _expect_equal(lines, {"a :- T1.", "T1."})
    _expect_equal(
        {m & frozenset("a") for m in stable_models(translated)}, {frozenset("a")})


def check_normal_translation():
    program = load_program(SUM_LOOP)
    translated = translate_normal(program)
    lines = set(_strip_special(format_program(translated)).splitlines())
    # Ordinary body atoms go through wrapper atoms too, so the chained rule
    # reads through T1 while the aggregate unfolds into T2's two rules.
    _expect_equal(lines, {
        "p(1).", "p(-1) :- T1.", "p(2) :- T2.", "T1 :- p(2).",
        "T2 :- p(1), not p(-1).", "T2 :- p(2)."})
    _expect_equal(stable_models(translated), ())


def check_negative_edges():
    graph = dependency_graph(load_program(NEGATIVE_EDGE_RULE))
    _expect_equal(graph.edges, frozenset(
        (("a", "a", "-"), ("a", "c", "-"), ("a", "b", "+"))))


def check_bot_constraint():
    program = load_program(BOT_CONSTRAINT)
    _expect_equal(stable_models(program), ())
    _expect_equal(fixpoint_stable_models(program), stable_models(program))


class GoldenCase(Value):
    name: str
    check: Callable[[], None]

    def __init__(self, name: str, check: Callable[[], None]):
        self.__dict__.update(name=name, check=check)


CASES: tuple[GoldenCase, ...] = (
    GoldenCase("lattice_family_abstract_form", check_lattice_family),
    GoldenCase("minimal_dnf", check_minimal_dnf),
    GoldenCase("punctured_cube_abstract_form", check_punctured_cube),
    GoldenCase("sum_loop_reduct_and_models", check_sum_loop),
    GoldenCase("disjunctive_fact_verdicts", check_disjunctive_fact),
    GoldenCase("shift_grouping_models", check_shift_grouping),
    GoldenCase("sum_count_disjunction_models", check_sum_count_disjunction),
    GoldenCase("pair_choice_nonminimal_model", check_pair_choice_fact),
    GoldenCase("even_loop_cycles_and_models", check_even_loop),
    GoldenCase("self_support_rejected", check_self_support),
    GoldenCase("tautology_body_translation", check_tautology_body),
    GoldenCase("sum_loop_translation", check_normal_translation),
    GoldenCase("negative_edges", check_negative_edges),
    GoldenCase("bot_constraint_unsatisfiable", check_bot_constraint),
)
