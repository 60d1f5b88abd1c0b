import random

import pytest

from catlp.abstraction import checked_primes
from catlp.analysis import (
    DependencyGraph,
    check_dependency_theorem,
    cycle_report,
    dependency_graph,
    format_translation,
    normalize_basic,
    to_dot,
    translate_normal,
)
from catlp.core import (
    CAtom,
    FALSE_CATOM,
    Literal,
    Program,
    Rule,
    complement,
    select,
)
from catlp.errors import GuardError, NameCollisionError, ProgramClassError
from catlp.golden import EVEN_LOOP, NEGATIVE_EDGE_RULE, SUM_LOOP, TAUTOLOGY_BODY
from catlp.parser import format_program, load_program
from catlp.reduct import stable_models, theta_atom

import generators
import oracles
from cli_corpus import FAMILIES, golden_texts


def graph_of(edges, vertices=None):
    vs = set(vertices or ())
    for u, v, _ in edges:
        vs.update((u, v))
    return DependencyGraph(frozenset(vs), frozenset(edges))


class TestNormalizeBasic:
    def test_bot_rule_rewritten(self):
        program = load_program("bot :- a.")
        normalized = normalize_basic(program)
        (rule,) = normalized.rules
        assert rule.head == ("__f_1",)
        assert rule.body[0] == Literal.atom("a")
        guard = rule.body[-1].item
        assert guard == CAtom(frozenset(("__f_1",)), [()])

    def test_programs_without_bot_unchanged(self):
        program = load_program(SUM_LOOP)
        assert normalize_basic(program) == program

    def test_guarded_rewrite_blocks_models(self):
        program = normalize_basic(load_program("bot :- a.\na."))
        assert stable_models(program) == ()

    def test_rejects_disjunction(self):
        with pytest.raises(ProgramClassError):
            normalize_basic(Program((Rule(("a", "b")),)))

    def test_rejects_wide_constraint_heads(self):
        program = Program((Rule((CAtom("ab", [{"a"}]),)),))
        with pytest.raises(ProgramClassError):
            normalize_basic(program)

    def test_fresh_atom_taken_by_the_program_is_refused(self):
        # Built through the library, a program may hold ``__f_1`` already;
        # minting it again made ``bot :- b`` a rule for that atom, which
        # turned the program's lack of stable models into {b, __f_1}.
        program = Program((Rule(("__f_1",)), Rule((FALSE_CATOM,), (Literal.atom("b"),)),
                           Rule(("b",))))
        assert stable_models(program) == ()
        for route in (normalize_basic, translate_normal, format_translation,
                      dependency_graph, check_dependency_theorem):
            with pytest.raises(NameCollisionError, match="__f_1"):
                route(program)

    def test_own_output_mints_no_taken_name(self):
        # Only minted names are checked, so what normalization and the
        # translation return, ``__f_`` and ``__theta_`` atoms and all, is
        # taken as input again.
        program = load_program("bot :- a. a :- not b. b :- 1 {a, c}. c :- [a, b : {a}].")
        basic = normalize_basic(program)
        assert normalize_basic(basic) == basic
        assert translate_normal(basic) == translate_normal(program)
        translated = translate_normal(program)
        assert check_dependency_theorem(translated).all_hold
        assert set(dependency_graph(translated).vertices) >= {"__f_1", "a", "b", "c"}


class TestTranslateNormal:
    def test_tautology_translation(self):
        translated = translate_normal(load_program(TAUTOLOGY_BODY))
        assert len(translated.rules) == 2
        assert stable_models(translated)[0] >= frozenset("a")

    def test_sum_loop_translation_has_no_stable_models(self):
        translated = translate_normal(load_program(SUM_LOOP))
        assert oracles.standard_gl_stable_models(translated) == set()

    def test_translation_is_ordinary_normal(self):
        from catlp.core import classify_program

        translated = translate_normal(load_program(SUM_LOOP))
        assert classify_program(translated).normal

    def test_ordinary_rules_round_through_wrappers(self):
        rng = random.Random(81)
        for _ in range(60):
            program = generators.random_ordinary_program(
                rng, atoms=("a", "b", "c"), max_rules=4)
            translated = translate_normal(program)
            direct = oracles.standard_gl_stable_models(program)
            lifted = oracles.standard_gl_stable_models(translated)
            assert {m & program.atoms for m in lifted} == direct

    def test_name_collision_is_detected(self, monkeypatch):
        monkeypatch.setattr(CAtom, "digest", property(lambda self: "0" * 10))
        program = Program((
            Rule(("x",), (Literal.constraint(CAtom("ab", [{"a", "b"}])),)),
            Rule(("y",), (Literal.constraint(CAtom("ab", [{"b"}, {"a", "b"}])),)),
        ))
        for translate in (translate_normal, format_translation):
            with pytest.raises(NameCollisionError, match="__theta_0000000000"):
                translate(program)

    def test_name_taken_by_an_atom_is_refused(self):
        # Named ``__theta_`` of the body c-atom, a fact would make the body
        # true whatever a and b are.
        catom = CAtom("ab", [{"a"}, {"b"}])
        taken = theta_atom(catom)
        program = Program((Rule(("x",), (Literal.constraint(catom),)), Rule((taken,))))
        for translate in (translate_normal, format_translation):
            with pytest.raises(NameCollisionError, match=taken):
                translate(program)

    def test_own_output_translates_again(self):
        # The first translation defines ``__theta_`` of ``[b : {}]`` by
        # ``... :- not b``; the second mints that name for the same literal.
        program = load_program("a :- not b, [b,c : {b}, {}]. b :- a. c :- not d. d :- not c.")
        once = translate_normal(program)
        twice = translate_normal(once)
        assert format_translation(once) == format_program(twice)
        assert stable_models(program) == (frozenset("c"),)
        assert tuple(m & program.language for m in stable_models(twice)) == (frozenset("c"),)

    def test_own_output_of_random_programs_translates_again(self):
        rng = random.Random(83)
        compared = 0
        for _ in range(100):
            program = generators.random_basic_program(rng)
            twice = translate_normal(translate_normal(program))
            if len(twice.language) <= 20:
                projected = sorted(m & program.language for m in stable_models(twice))
                assert projected == sorted(stable_models(program)), program
                compared += 1
        assert compared == 95

    def test_name_taken_with_other_rules_is_refused(self):
        # One of the two defining rules alone: the atom is not the c-atom.
        catom = CAtom("ab", [{"a"}, {"b"}])
        rule = Rule(("x",), (Literal.constraint(catom),))
        definitions = translate_normal(Program((rule,))).rules[1:]
        assert len(definitions) == 2
        program = Program((rule, definitions[0]))
        for translate in (translate_normal, format_translation):
            with pytest.raises(NameCollisionError, match=theta_atom(catom)):
                translate(program)
        assert set(definitions) <= set(translate_normal(Program((rule,) + definitions)).rules)

    def test_identical_catoms_share_a_name(self, monkeypatch):
        monkeypatch.setattr(CAtom, "digest", property(lambda self: "0" * 10))
        catom = CAtom("ab", [{"b"}, {"a", "b"}])
        program = Program((
            Rule(("x",), (Literal.constraint(catom),)),
            Rule(("y",), (Literal.constraint(catom),)),
        ))
        heads = {r.head[0] for r in translate_normal(program).rules}
        assert heads == {"x", "y", "__theta_0000000000"}

    def test_projection_identity_on_random_basic_programs(self):
        rng = random.Random(83)
        for _ in range(100):
            program = generators.random_basic_program(rng)
            translated = translate_normal(program)
            projected = {m & program.atoms
                         for m in oracles.standard_gl_stable_models(translated)}
            assert projected == set(stable_models(program))


def _outcome(translate, program):
    """What ``translate`` gives on ``program``: its text, or its refusal."""
    try:
        return translate(program)
    except (NameCollisionError, GuardError, ProgramClassError) as exc:
        return type(exc), str(exc)


class TestFormatTranslation:
    """``format_translation`` renders the text of ``translate_normal``
    straight from the masks, and refuses what it refuses, alike."""

    EXTRA = (
        "#atoms z, y.\na :- not b, [b,c : {}, {b,c}].\nb :- a.\nc.\n",
        "a :- [x0,x1,x2,x3,x4,x5,x6,x7,x8,x9,x10,x11,x12,x13,x14,x15,x16,x17,x18,x19,x20"
        " : {x0}].\n",
        "a :- [b : {b}].\nb :- not [c,d,e : {}].\nbot :- a, b.\n",
    )

    def test_text_matches_the_rule_route(self):
        programs = [load_program(text) for text in (*golden_texts().values(), *self.EXTRA)]
        for family in FAMILIES:
            rng = random.Random(f"format_translation {family.__name__}")
            programs += [family(rng) for _ in range(60)]
        refused = set()
        for program in programs:
            expected = _outcome(lambda p: format_program(translate_normal(p)), program)
            assert _outcome(format_translation, program) == expected, program
            if isinstance(expected, tuple):
                refused.add(expected[0])
        assert refused == {GuardError, ProgramClassError}


def _cube_signs(atoms, cubes):
    """The atoms of the OR of the bases, and of the OR of the parts outside the tops."""
    domain = (1 << len(atoms)) - 1
    pos = neg = 0
    for base, free in cubes:
        pos |= base
        neg |= domain ^ (base | free)
    return select(atoms, pos), select(atoms, neg)


def _table_signs(catom):
    """The atoms ``h :- catom.`` depends on positively, and negatively."""
    graph = dependency_graph(Program((Rule(("h",), (Literal.constraint(catom),)),)))
    return tuple(tuple(sorted(v for _, v, s in graph.edges if s == sign)) for sign in "+-")


def _member_signs(catom, members):
    pos = frozenset().union(*(m.base for m in members))
    neg = frozenset().union(*(catom.domain - m.top for m in members))
    return tuple(sorted(pos)), tuple(sorted(neg))


class TestSignLemma:
    """An atom is in some maximal sublattice's base iff removing it from
    some solution gives a non-solution, and outside some top iff adding it
    to some solution does: the signs ``dependency_graph`` reads off the
    table equal the ORs over the members."""

    def check(self, catom, oracle=oracles.brute_abstract):
        signs = _table_signs(catom)
        assert signs == _cube_signs(*checked_primes(catom)), catom
        assert signs == _member_signs(catom, oracle(catom)), catom
        return signs

    def test_every_table_over_at_most_three_atoms(self):
        for n in range(4):
            atoms = "abc"[:n]
            for table in range(1 << (1 << n)):
                self.check(CAtom.from_table(atoms, table))

    def test_named_families(self):
        assert self.check(CAtom.from_table("", 0)) == ((), ())
        assert self.check(CAtom.from_table("", 1)) == ((), ())
        assert self.check(CAtom.from_table("abcde", 0)) == ((), ())
        assert self.check(CAtom.from_table("abcde", (1 << 32) - 1)) == ((), ())
        elementary = CAtom("a", [{"a"}])
        assert self.check(elementary) == (("a",), ())
        assert self.check(complement(elementary)) == ((), ("a",))
        # The complement of one set: every other atom is in a base, the set's
        # own atoms lie outside a top.
        assert self.check(complement(CAtom("abcde", [{"b", "d"}]))) == (
            ("a", "c", "e"), ("b", "d"))

    def test_seeded_catoms_of_four_to_eight_atoms(self):
        # brute_abstract takes seconds on a dense family over 7 or 8 atoms,
        # so those are checked against offset_abstract, which is built for
        # families with few non-solutions.
        rng = random.Random(97)
        pool = tuple(f"x{i}" for i in range(8))
        for _ in range(60):
            n = rng.randint(4, 8)
            density = rng.choice((0.1, 0.3, 0.5))
            table = sum(1 << x for x in range(1 << n) if rng.random() < density)
            catom = CAtom.from_table(rng.sample(pool, n), table)
            self.check(catom)
            dense = oracles.brute_abstract if n <= 6 else oracles.offset_abstract
            self.check(complement(catom), dense)

    def test_a_dense_family_at_the_guard_limit(self):
        # The prime-cube kernel takes about 2**20 steps here; the table
        # route takes one pass over 20 atoms.
        program = load_program(
            "h :- not [%s : {x0}].\n" % ",".join(f"x{i}" for i in range(20)))
        assert dependency_graph(program).edges == frozenset(
            {("h", "x0", "-")} | {("h", f"x{i}", "+") for i in range(1, 20)})


class TestDependencyGraph:
    def test_mixed_signs_from_one_constraint(self):
        graph = dependency_graph(load_program(NEGATIVE_EDGE_RULE))
        assert graph.edges == frozenset(
            (("a", "a", "-"), ("a", "c", "-"), ("a", "b", "+")))

    def test_ordinary_rule_edges(self):
        graph = dependency_graph(load_program("a :- b, not c."))
        assert graph.edges == frozenset((("a", "b", "+"), ("a", "c", "-")))

    def test_even_loop_edges(self):
        graph = dependency_graph(load_program(EVEN_LOOP))
        assert ("a", "b", "-") in graph.edges
        assert ("b", "a", "-") in graph.edges

    def test_vertices_cover_constraint_domains(self):
        graph = dependency_graph(load_program("a :- [b,c : {b}]."))
        assert graph.vertices == frozenset("abc")

    def test_endpoints_must_be_vertices(self):
        with pytest.raises(ValueError):
            DependencyGraph(frozenset("a"), frozenset((("a", "b", "+"),)))

    def test_edges_match_translation_paths(self):
        # Positive edges appear as wrapper-mediated positive two-step paths
        # in the translated program; negative edges as positive-then-negative.
        # The graph reads the truth tables, the translation the prime cubes.
        rng = random.Random(87)
        for index in range(400):
            program = generators.random_basic_program(rng)
            if index % 2:
                program = Program(program.rules + (_dense_rule(rng),))
            graph = dependency_graph(program)
            translated = translate_normal(program)
            ordinary = oracles.ordinary_dependency_edges(translated)
            two_step = set()
            for u, mid, first in ordinary:
                if first != "+" or not mid.startswith("__theta_"):
                    continue
                for m2, v, second in ordinary:
                    if m2 == mid:
                        two_step.add((u, v, second))
            assert graph.edges == frozenset(two_step)

    def test_cycle_flags_survive_wrapper_contraction(self):
        rng = random.Random(89)
        for _ in range(60):
            program = generators.random_basic_program(rng)
            report = cycle_report(dependency_graph(program))
            translated = translate_normal(program)
            contracted = _contract_wrappers(
                oracles.ordinary_dependency_edges(translated))
            other = cycle_report(graph_of(
                contracted, dependency_graph(program).vertices))
            for flag in ("has_positive_cycle", "has_odd_cycle", "has_even_cycle",
                         "has_even_cycle_literal", "call_consistent", "acyclic"):
                assert getattr(report, flag) == getattr(other, flag), flag


def _dense_rule(rng):
    """A rule whose body c-atom misses at most two subsets of its domain
    (none: a tautology)."""
    domain = rng.sample(generators.POOL[:4], rng.randint(0, 4))
    table = (1 << (1 << len(domain))) - 1
    for _ in range(rng.randint(0, 2)):
        table &= ~(1 << rng.randrange(1 << len(domain)))
    head = rng.choice(generators.POOL[:4])
    return Rule((head,), (Literal.constraint(CAtom.from_table(domain, table)),))


def _contract_wrappers(edges):
    contracted = set()
    for u, mid, first in edges:
        if mid.startswith("__theta_"):
            continue
        if u.startswith("__theta_"):
            continue
        contracted.add((u, mid, first))
    for u, mid, first in edges:
        if first == "+" and mid.startswith("__theta_"):
            for m2, v, second in edges:
                if m2 == mid:
                    contracted.add((u, v, second))
    return contracted


class TestCycleReport:
    def test_even_loop_program(self):
        report = cycle_report(dependency_graph(load_program(EVEN_LOOP)))
        assert report.has_even_cycle
        assert report.call_consistent
        assert not report.has_positive_cycle
        assert report.witness("even")

    def test_empty_graph(self):
        report = cycle_report(graph_of((), vertices="ab"))
        assert report.acyclic
        assert not report.has_even_cycle_literal
        assert report.call_consistent

    def test_positive_self_loop(self):
        report = cycle_report(dependency_graph(load_program("a :- [a : {a}].")))
        assert report.has_positive_cycle
        assert report.witness("positive") == ("a", "a")
        assert report.has_even_cycle_literal  # zero negative edges counts here
        assert not report.has_even_cycle

    def test_negative_self_loop(self):
        report = cycle_report(graph_of((("a", "a", "-"),)))
        assert report.has_odd_cycle
        assert not report.call_consistent
        assert report.has_even_cycle  # going around twice uses two negatives

    def test_flags_are_consistent(self):
        rng = random.Random(91)
        atoms = "abcd"
        for _ in range(200):
            edges = set()
            for _ in range(rng.randint(0, 6)):
                edges.add((rng.choice(atoms), rng.choice(atoms),
                           rng.choice("+-")))
            report = cycle_report(graph_of(edges, vertices=atoms))
            assert report.call_consistent == (not report.has_odd_cycle)
            if report.acyclic:
                assert not (report.has_positive_cycle or report.has_odd_cycle
                            or report.has_even_cycle
                            or report.has_even_cycle_literal)
            if report.has_positive_cycle:
                assert report.has_even_cycle_literal
            if report.has_even_cycle:
                assert report.has_even_cycle_literal

    def test_matches_the_layered_oracle(self):
        """Flags, witness starts and lengths against ``brute_cycle_flags``;
        each witness is a closed walk over graph edges that meets its flag."""
        rng = random.Random(93)
        for _ in range(2000):
            vertices = [f"v{i}" for i in range(rng.randint(1, 6))]
            edges = {(rng.choice(vertices), rng.choice(vertices), rng.choice("+-"))
                     for _ in range(rng.randint(0, 10))}
            if rng.random() < 0.3:
                u, v = rng.choice(vertices), rng.choice(vertices)
                edges |= {(u, v, "+"), (u, v, "-")}
            report = cycle_report(graph_of(edges, vertices))
            expected = oracles.brute_cycle_flags(vertices, edges)
            assert set(report.witnesses) == set(expected)
            assert (report.has_positive_cycle, report.has_odd_cycle,
                    report.has_even_cycle, report.has_even_cycle_literal,
                    report.call_consistent, report.acyclic) == (
                "positive" in expected, "odd" in expected, "even" in expected,
                "even_literal" in expected, "odd" not in expected,
                "cycle" not in expected)
            for flag, walk in report.witnesses.items():
                assert (walk[0], len(walk) - 1) == expected[flag], (flag, edges)
                assert walk[-1] == walk[0]
                negatives = {0}
                for u, v in zip(walk, walk[1:]):
                    negatives = {n + (sign == "-") for n in negatives
                                 for sign in "+-" if (u, v, sign) in edges}
                assert any(map(oracles.CYCLE_CONDITIONS[flag], negatives)), (flag, walk)


class TestDependencyTheorem:
    def test_even_loop_report(self):
        report = check_dependency_theorem(load_program(EVEN_LOOP))
        assert report.stable == (frozenset(("a", "p")), frozenset(("b", "p")))
        assert report.all_hold

    def test_acyclic_chain(self):
        report = check_dependency_theorem(load_program("a. b :- a."))
        assert report.cycles.acyclic
        assert report.stable == (frozenset("ab"),)
        assert report.all_hold

    def test_random_basic_programs(self):
        rng = random.Random(97)
        for _ in range(150):
            program = generators.random_basic_program(rng)
            assert check_dependency_theorem(program).all_hold


class TestDot:
    def test_dot_output(self):
        graph = graph_of((("a", "b", "+"), ("a", "c", "-")))
        assert to_dot(graph) == "\n".join((
            "digraph dependencies {",
            '  "a";',
            '  "b";',
            '  "c";',
            '  "a" -> "b";',
            '  "a" -> "c" [style=dashed, label="-"];',
            "}",
        ))
