import operator
import random

import pytest
from hypothesis import given, strategies as st

from catlp.core import (
    CAtom, FALSE_CATOM, Literal, Program, Rule, head_atom_name)
from catlp.errors import GuardError, ParseError
from catlp.golden import (
    BOT_CONSTRAINT,
    DISJUNCTIVE_FACT,
    EVEN_LOOP,
    NEGATIVE_EDGE_RULE,
    PAIR_CHOICE_FACT,
    SELF_SUPPORT,
    SHIFT_GROUPING,
    SUM_COUNT_DISJUNCTION,
    SUM_LOOP,
    TAUTOLOGY_BODY,
)
from catlp.parser import (
    desugar_aggregate,
    desugar_weight,
    format_program,
    load_program,
    parse_constraint,
    parse_interpretation,
)

import generators
from oracles import iter_subsets, satisfies_catom

#: The aggregate relations, spelled out apart from the parser's table.
RELATIONS = {">=": operator.ge, "<=": operator.le, "=": operator.eq,
             ">": operator.gt, "<": operator.lt}

GOLDEN_TEXTS = (
    SUM_LOOP, DISJUNCTIVE_FACT, SHIFT_GROUPING, SUM_COUNT_DISJUNCTION,
    PAIR_CHOICE_FACT, EVEN_LOOP, SELF_SUPPORT, TAUTOLOGY_BODY,
    NEGATIVE_EDGE_RULE, BOT_CONSTRAINT)


class TestGrammar:
    def test_catom_literal(self):
        program = load_program("x :- [a,b,c : {}, {b}, {b,c}].")
        (rule,) = program.rules
        assert rule.body[0].item == CAtom("abc", [set(), {"b"}, {"b", "c"}])

    def test_weight_constraints_in_disjunctive_head(self):
        program = load_program("1 {b,c} 1 | 2 {d,e,f} 2 :- a.")
        (rule,) = program.rules
        assert rule.head == (
            CAtom("bc", [{"b"}, {"c"}]),
            CAtom("def", [{"d", "e"}, {"d", "f"}, {"e", "f"}]),
        )
        assert rule.body == (Literal.atom("a"),)

    def test_parenthesized_atom_names(self):
        program = load_program("p(1).")
        assert program.rules[0].head == ("p(1)",)

    def test_bot_head(self):
        program = load_program("bot :- a.")
        assert program.rules[0].head == (FALSE_CATOM,)

    def test_elementary_head_constraint_flattened(self):
        program = load_program("[a : {a}].")
        assert program.rules[0].head == ("a",)

    def test_atoms_directive(self):
        program = load_program("#atoms x, y.\nx.")
        assert program.declared_atoms == frozenset("xy")
        assert program.language == frozenset("xy")

    def test_comments_and_whitespace(self):
        program = load_program("% nothing here\n a . % trailing\n")
        assert program.rules[0].head == ("a",)

    def test_empty_domain_catom(self):
        program = load_program("x :- [ : {}].")
        assert program.rules[0].body[0].item == CAtom((), [()])

    def test_catom_without_sets(self):
        program = load_program("x :- [a,b : ].")
        assert program.rules[0].body[0].item == CAtom("ab", [])
        assert load_program("x :- [ : ].").rules[0].body[0].item == FALSE_CATOM


class TestParseErrors:
    def test_position_reported(self):
        with pytest.raises(ParseError) as err:
            load_program("a :- \n b,, c.")
        assert err.value.line == 2
        assert err.value.column == 4

    def test_unknown_directive(self):
        with pytest.raises(ParseError):
            load_program("#minimize a.")

    def test_reserved_prefix_rejected(self):
        with pytest.raises(ParseError):
            load_program("__theta_x :- a.")

    def test_set_atom_outside_domain(self):
        with pytest.raises(ParseError):
            load_program("x :- [a : {b}].")

    def test_missing_period(self):
        with pytest.raises(ParseError):
            load_program("a :- b")

    def test_stray_character(self):
        with pytest.raises(ParseError):
            load_program("a $ b.")

    @pytest.mark.parametrize("text, line, column", [
        ("a :-", 1, 3),
        ("x.\ny :- not", 2, 6),
    ])
    def test_end_of_input_at_last_token(self, text, line, column):
        with pytest.raises(ParseError, match="unexpected end of input") as err:
            load_program(text)
        assert (err.value.line, err.value.column) == (line, column)

    @pytest.mark.parametrize("text, line, column", [
        ("a :- #sum{a=1, a=2} >= 2.", 1, 16),
        ("a :- #sum{a=2, a=1} >= 2.", 1, 16),
        ("x.\ny :- #count{b=1,\n c=1, b=3} >= 2.", 3, 7),
    ])
    def test_aggregate_atom_listed_twice(self, text, line, column):
        # Whichever value comes last, the aggregate is refused, not resolved.
        with pytest.raises(ParseError, match="'[ab]' is listed twice") as err:
            load_program(text)
        assert (err.value.line, err.value.column) == (line, column)

    @pytest.mark.parametrize("entry, text, message, line, column", [
        (load_program, "a :-\r\n\tb,\r\n\t$ c.", "unexpected character '$'", 3, 2),
        (load_program, "% head\n\ta. % tail\n  #minimize b.", "unknown directive '#minimize'", 3, 3),
        (load_program, "a :- b\r\n% c.\r\n\tc.", "expected '.', found 'c'", 3, 2),
        (load_program, "x.\n\ty :- not\t:- z.", "expected an atom or constraint, found ':-'", 2, 11),
        (load_program, "p :- #sum{a=1,\r\n\tb=2} % >=\r\n\t 3.",
         "expected a comparison, found '3'", 3, 3),
        (load_program, "a.\n% __beta_b.\n\tb :- c, __theta_c.",
         "atom name '__theta_c' uses a reserved prefix", 3, 10),
        (load_program, "x :-\r\n\t[a,b :\r\n {a}, {c}].", "set atom 'c' is outside the constraint domain",
         2, 2),
        (parse_constraint, "1 {a, b}\r\n\t% c\r\n 2 x", "trailing input 'x'", 3, 4),
        (parse_interpretation, "a,\r\n\tb % c\n c", "trailing input 'c'", 3, 2),
    ])
    def test_every_site_reports_its_position(self, entry, text, message, line, column):
        # Newlines come as \n and \r\n, after comments and before tabs; a
        # tab is one column.
        with pytest.raises(ParseError) as err:
            entry(text)
        assert str(err.value) == f"{line}:{column}: {message}"
        assert (err.value.line, err.value.column) == (line, column)


class TestDesugarWeight:
    def test_cardinality_window(self):
        entries = [("a", 1, False), ("b", 1, False)]
        assert desugar_weight(entries, 1, 1) == CAtom("ab", [{"a"}, {"b"}])

    def test_bare_choice(self):
        assert desugar_weight([("a", 1, False)]) == CAtom("a", [set(), {"a"}])

    def test_negated_entry(self):
        entries = [("a", 1, False), ("b", 1, True)]
        assert desugar_weight(entries, 1) == CAtom("ab", [set(), {"a"}, {"a", "b"}])

    def test_duplicate_atom_entries(self):
        entries = [("a", 1, False), ("a", 1, True)]
        assert desugar_weight(entries, 1, 1) == CAtom("a", [set(), {"a"}])

    def test_negative_weights(self):
        entries = [("a", -2, False), ("b", 1, False)]
        assert desugar_weight(entries, 0) == CAtom("ab", [set(), {"b"}])

    def test_entry_guard(self):
        entries = [(f"x{i}", 1, False) for i in range(17)]
        with pytest.raises(GuardError) as caught:
            desugar_weight(entries, 0)
        assert (caught.value.guard, caught.value.actual) == ("weight_entries", 17)

    def test_agrees_with_direct_evaluation(self):
        rng = random.Random(103)
        for _ in range(60):
            entries = [(a, rng.randint(-2, 3), rng.random() < 0.3)
                       for a in rng.sample("abcdefgh", rng.randint(1, 8))]
            lower = rng.choice((None, rng.randint(-3, 4)))
            upper = rng.choice((None, rng.randint(-3, 6)))
            catom = desugar_weight(entries, lower, upper)
            for mask in range(1 << len(catom.domain)):
                atoms = sorted(catom.domain)
                interp = frozenset(a for i, a in enumerate(atoms) if mask >> i & 1)
                total = weight_total(entries, interp)
                expected = ((lower is None or lower <= total)
                            and (upper is None or total <= upper))
                assert satisfies_catom(interp, catom) == expected

    def test_repeated_and_negated_entries_agree_with_the_definition(self):
        # Entries drawn with replacement, so an atom may come back plain,
        # negated or both, as in ``1 {s, not s} 1``.
        rng = random.Random(104)
        for _ in range(120):
            entries = [(rng.choice("abcde"), rng.randint(-3, 3), rng.random() < 0.4)
                       for _ in range(rng.randint(1, 7))]
            lower = rng.choice((None, rng.randint(-4, 4)))
            upper = rng.choice((None, rng.randint(-3, 6)))
            catom = desugar_weight(entries, lower, upper)
            assert catom.domain == {atom for atom, _, _ in entries}
            expected = frozenset(
                s for s in iter_subsets(catom.domain)
                if (lower is None or lower <= weight_total(entries, s))
                and (upper is None or weight_total(entries, s) <= upper))
            assert catom.solutions == expected


def weight_total(entries, interpretation) -> int:
    return sum(weight for atom, weight, negated in entries
               if (atom in interpretation) != negated)


class TestDesugarAggregate:
    @pytest.mark.parametrize("relation", sorted(RELATIONS))
    def test_agrees_with_the_definition_under_every_relation(self, relation):
        rng = random.Random(relation)
        for _ in range(40):
            atoms = rng.sample("abcdefg", rng.randint(0, 7))
            kind = rng.choice(("sum", "count"))
            values = {a: rng.randint(-3, 4) for a in atoms}
            bound = rng.randint(-3, 6)
            catom = desugar_aggregate(kind, values, relation, bound)
            expected = frozenset(
                s for s in iter_subsets(atoms)
                if RELATIONS[relation](
                    sum(values[a] for a in s) if kind == "sum" else len(s), bound))
            assert catom == CAtom(atoms, expected)

    def test_signed_sum(self):
        values = {"p(-1)": -1, "p(1)": 1, "p(2)": 2}
        assert desugar_aggregate("sum", values, ">=", 1) == CAtom(
            ("p(-1)", "p(1)", "p(2)"),
            [{"p(1)"}, {"p(2)"}, {"p(-1)", "p(2)"}, {"p(1)", "p(2)"},
             {"p(-1)", "p(1)", "p(2)"}])

    def test_empty_count_is_tautological(self):
        assert desugar_aggregate("count", {}, ">=", 0) == CAtom((), [()])

    def test_count_at_least_one(self):
        assert desugar_aggregate("count", {"a": 1, "b": 1}, ">=", 1) == CAtom(
            "ab", [{"a"}, {"b"}, {"a", "b"}])

    def test_relations(self):
        values = {"a": 1, "b": 2}
        below = desugar_aggregate("sum", values, "<", 2)
        assert below == CAtom("ab", [set(), {"a"}])
        exact = desugar_aggregate("sum", values, "=", 2)
        assert exact == CAtom("ab", [{"b"}])

    def test_entry_guard(self):
        values = {f"x{i}": 1 for i in range(17)}
        with pytest.raises(GuardError) as caught:
            desugar_aggregate("count", values, ">=", 1)
        assert (caught.value.guard, caught.value.actual) == ("weight_entries", 17)


class TestNegatedConstraints:
    """Loading keeps ``not A``; the compiled program holds A's complement."""

    def test_body_complement(self):
        program = load_program("x :- not [a : {a}].")
        assert program.rules[0].body[0] == Literal.negated_constraint(CAtom.elementary("a"))
        assert [c.catom for c in program.compiled.body_catoms] == [CAtom("a", [()])]

    def test_idempotent_without_negation(self):
        program = load_program(SUM_LOOP)
        written = [lit.item for rule in program.rules for lit in rule.body if lit.is_constraint]
        assert all(lit.positive for rule in program.rules for lit in rule.body)
        assert [c.catom for c in program.compiled.body_catoms] == list(dict.fromkeys(written))

    def test_double_negation_round_trips(self):
        catom = CAtom("ab", [{"a"}, {"a", "b"}])
        once = parse_constraint("not [a,b : {a}, {a,b}]")
        twice = load_program("x :- not [a,b : {}, {b}].")
        assert once == CAtom("ab", [set(), {"b"}])
        assert twice.rules[0].body[0] == Literal.negated_constraint(once)
        assert twice.compiled.body_catoms[0].catom == catom

    def test_negated_weight_desugars_then_complements(self):
        program = load_program("x :- not 1 {a, b} 2.")
        assert program.rules[0].body[0] == Literal.negated_constraint(
            CAtom("ab", [{"a"}, {"b"}, {"a", "b"}]))
        assert [c.catom for c in program.compiled.body_catoms] == [CAtom("ab", [()])]


class TestRoundTrip:
    @pytest.mark.parametrize("text", GOLDEN_TEXTS)
    def test_core_print_round_trip(self, text):
        program = load_program(text)
        assert load_program(format_program(program)) == program

    def test_unsatisfiable_catom_keeps_its_domain(self):
        program = load_program("x :- 1 {a,b} 0.")
        assert format_program(program) == "x :- [a,b : ].\n"
        reloaded = load_program(format_program(program))
        assert reloaded == program
        assert reloaded.language == frozenset("abx")


GENERATED_FAMILIES = (
    generators.random_positive_basic_program,
    generators.random_basic_program,
    generators.random_ordinary_program,
    generators.random_normal_constraint_program,
    generators.random_disjunctive_constraint_program,
)


def _as_loaded(program: Program) -> Program:
    """``program`` with its elementary head constraints flattened, as loading does."""
    return Program(
        tuple(Rule(tuple(head_atom_name(e) or e for e in rule.head), rule.body)
              for rule in program.rules),
        program.declared_atoms)


@given(st.sampled_from(GENERATED_FAMILIES), st.integers(0, 2**32 - 1))
def test_generated_programs_print_and_reload_exactly(family, seed):
    program = family(random.Random(seed))
    assert load_program(format_program(program)) == _as_loaded(program)


class TestInterpretationArgument:
    def test_basic_list(self):
        assert parse_interpretation("a, b") == frozenset("ab")

    def test_empty(self):
        assert parse_interpretation("") == frozenset()

    def test_reserved_rejected(self):
        with pytest.raises(ParseError):
            parse_interpretation("a,__bot")

    def test_atoms_with_commas_are_read_whole(self):
        assert parse_interpretation("p(1,2), q") == frozenset(("p(1,2)", "q"))

    @pytest.mark.parametrize("text, column", [("a b", 3), ("a,,b", 3), ("a,", 2)])
    def test_malformed_list_rejected_with_position(self, text, column):
        with pytest.raises(ParseError) as caught:
            parse_interpretation(text)
        assert (caught.value.line, caught.value.column) == (1, column)


class TestParseConstraint:
    def test_weight_expression(self):
        assert parse_constraint("1 {a,b} 1") == CAtom("ab", [{"a"}, {"b"}])

    def test_bare_atom_is_elementary(self):
        assert parse_constraint("a") == CAtom.elementary("a")

    def test_trailing_input_rejected(self):
        with pytest.raises(ParseError):
            parse_constraint("a b")
