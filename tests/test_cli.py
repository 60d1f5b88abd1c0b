import argparse
import ast
import contextlib
import hashlib
import importlib
import io
import json
import os
import random
import re
import shlex
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import catlp
from catlp import abstraction, cli, core, fixpoint, golden, reduct
from catlp.analysis import dependency_graph, translate_normal
from catlp.core import CAtom
from catlp.golden import EVEN_LOOP, SUM_COUNT_DISJUNCTION, SUM_LOOP
from catlp.parser import format_catom, format_program, load_program
from catlp.reduct import theta_atom

import generators
import oracles
from oracles import iter_subsets


@pytest.fixture
def sum_loop(tmp_path):
    path = tmp_path / "sum_loop.lp"
    path.write_text(SUM_LOOP)
    return str(path)


@pytest.fixture
def disjunction(tmp_path):
    path = tmp_path / "disjunction.lp"
    path.write_text(SUM_COUNT_DISJUNCTION)
    return str(path)


class TestSolve:
    def test_all_models(self, disjunction, capsys):
        assert cli.run(["solve", disjunction, "--all"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == ["{p(-1)}", "{p(-1), p(1)}", "{p(1), p(2)}"]

    def test_first_model_only(self, disjunction, capsys):
        assert cli.run(["solve", disjunction]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "{p(-1)}"
        assert "more" in out[1]

    def test_json(self, disjunction, capsys):
        assert cli.run(["solve", disjunction, "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data == {"models": [["p(-1)"], ["p(-1)", "p(1)"], ["p(1)", "p(2)"]]}

    def test_unsatisfiable(self, sum_loop, capsys):
        assert cli.run(["solve", sum_loop, "--all"]) == 0
        assert capsys.readouterr().out.strip() == "no stable models"

    def test_parse_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.lp"
        bad.write_text("a :- ,.")
        assert cli.run(["solve", str(bad)]) == 1
        assert "parse error" in capsys.readouterr().err

    def test_lone_carriage_return_is_whitespace(self, tmp_path, capsys):
        # Read as ``load_program`` reads the text: no line break at "\r".
        bad = tmp_path / "cr.lp"
        bad.write_bytes(b"a.\rb :- $.\n")
        assert cli.run(["solve", str(bad)]) == 1
        assert capsys.readouterr().err == "parse error: 1:9: unexpected character '$'\n"

    @pytest.mark.parametrize("values", ["1, a=2", "2, a=1"])
    def test_aggregate_atom_listed_twice_exit_code(self, values, tmp_path, capsys):
        bad = tmp_path / "twice.lp"
        bad.write_text("a :- #sum{a=%s} >= 2." % values)
        assert cli.run(["solve", str(bad)]) == 1
        assert capsys.readouterr().err == (
            "parse error: 1:16: atom 'a' is listed twice in the aggregate\n")

    def test_guard_exit_code(self, tmp_path, capsys):
        wide = tmp_path / "wide.lp"
        wide.write_text("".join(f"x{i}.\n" for i in range(21)))
        assert cli.run(["solve", str(wide)]) == 2
        assert capsys.readouterr().err == (
            "refused: stable_language guard: 21 exceeds the limit of 20\n")

    def test_depgraph_guard_exit_code(self, tmp_path, capsys):
        # depgraph reads no prime cube, but keeps the abstract_domain guard.
        wide = tmp_path / "wide_body.lp"
        wide.write_text("h :- [%s : {x0}].\n" % ",".join(f"x{i}" for i in range(21)))
        assert cli.run(["depgraph", str(wide), "--report"]) == 2
        assert capsys.readouterr().err == (
            "refused: abstract_domain guard: 21 exceeds the limit of 20\n")

    def test_weight_guard_exit_code(self, tmp_path, capsys):
        wide = tmp_path / "weight.lp"
        wide.write_text("y :- 1 {%s}." % ", ".join(f"x{i}" for i in range(17)))
        assert cli.run(["solve", str(wide)]) == 2
        assert capsys.readouterr().err == (
            "refused: weight_entries guard: 17 exceeds the limit of 16\n")

    def test_missing_file(self, capsys):
        assert cli.run(["solve", "/nonexistent/path.lp"]) == 1

    def test_file_that_is_not_utf8(self, tmp_path, capsys):
        # An input error like any other: exit 1 and one stderr line naming the file.
        bad = tmp_path / "bad.lp"
        bad.write_bytes(b"a.\n\xff\xfe b.\n")
        assert cli.run(["solve", str(bad)]) == 1
        assert capsys.readouterr().err == (
            f"{bad}: 'utf-8' codec can't decode byte 0xff in position 3: invalid start byte\n")


class TestCheck:
    def test_not_stable(self, sum_loop, capsys):
        code = cli.run(["check", sum_loop, "-I", "p(-1),p(1),p(2)"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "not stable"

    def test_stable(self, disjunction, capsys):
        assert cli.run(["check", disjunction, "-I", "p(-1)"]) == 0
        assert capsys.readouterr().out.strip() == "stable"

    def test_vocabulary_beyond_the_language_guard(self, tmp_path, capsys):
        # Forty atoms: ``check`` decides one candidate, so only ``solve``
        # is bound by the ``stable_language`` guard.
        loops = tmp_path / "loops.lp"
        loops.write_text(" ".join(f"x{i} :- not y{i}. y{i} :- not x{i}." for i in range(20)))
        xs = ",".join(f"x{i}" for i in range(20))
        assert cli.run(["check", str(loops), "-I", xs]) == 0
        assert capsys.readouterr().out == "stable\n"

    def test_both_oracles_agree(self, sum_loop, capsys):
        code = cli.run(
            ["check", sum_loop, "-I", "p(-1),p(1),p(2)", "--oracle", "both"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "not stable"

    def test_non_model_reported(self, sum_loop, capsys):
        assert cli.run(["check", sum_loop, "-I", "p(1)", "--oracle", "both"]) == 0
        assert capsys.readouterr().out.strip() == "not stable (not a model)"

    def test_fixpoint_oracle_needs_suitable_program(self, disjunction, capsys):
        code = cli.run(["check", disjunction, "-I", "p(-1)", "--oracle", "fixpoint"])
        assert code == 2

    def test_fixpoint_refusals_come_in_rule_order(self, tmp_path, capsys):
        # As the rewrite meets them: an earlier rule's complement guard
        # before a later rule's disjunctive head.
        path = tmp_path / "wide.lp"
        path.write_text("a :- not [%s : {x0}].\nb | c.\n" % ", ".join(
            f"x{i}" for i in range(21)))
        assert cli.run(["check", str(path), "-I", "", "--oracle", "fixpoint"]) == 2
        assert capsys.readouterr().err == (
            "refused: complement_domain guard: 21 exceeds the limit of 20\n")

    def test_both_oracles_take_choice_and_bot_heads(self, tmp_path, capsys):
        # Every candidate of every golden text without a disjunction, a choice
        # fact and an integrity constraint among them: both oracles decide it,
        # and the verdict is the reduct's.  A disjunctive head is still refused.
        import cli_corpus

        path = tmp_path / "program.lp"
        texts = {label: text for label, text in cli_corpus.golden_texts().items()
                 if "|" not in text}
        assert {"PAIR_CHOICE_FACT", "BOT_CONSTRAINT"} <= texts.keys()
        for label, text in texts.items():
            path.write_text(text, encoding="utf-8")
            for candidate in iter_subsets(load_program(text).language):
                argv = ["check", str(path), "-I", ",".join(sorted(candidate))]
                assert cli.run(argv) == 0
                reduct_verdict = capsys.readouterr().out
                assert cli.run(argv + ["--oracle", "both"]) == 0, (label, candidate)
                assert capsys.readouterr() == (reduct_verdict, ""), (label, candidate)
        path.write_text("a | b.\n", encoding="utf-8")
        assert cli.run(["check", str(path), "-I", "a", "--oracle", "both"]) == 2
        assert capsys.readouterr().err == "refused: the rewrite requires non-disjunctive rules\n"

    def test_both_oracles_compile_the_program_once(self, tmp_path, capsys, monkeypatch):
        # The fixpoint oracle reads the ``Program.compiled`` that ``is_stable``
        # built, not a compile of the rewritten program.
        path = tmp_path / "negated_loop.lp"
        path.write_text("x1 :- not y1. y1 :- not x1.\n"
                        "x2 :- not y2, x1. y2 :- not x2, [x1, y1 : {x1}, {y1}].\n"
                        "w :- not 1{x1, x2}1.\n")
        compiles = []
        init = core.CompiledProgram.__init__
        monkeypatch.setattr(core.CompiledProgram, "__init__",
                            lambda self, program: compiles.append(program) or init(self, program))

        def rewrite(program):
            raise AssertionError("to_positive_basic was called")

        for module in (cli, fixpoint):
            monkeypatch.setattr(module, "to_positive_basic", rewrite, raising=False)
        assert cli.run(["check", str(path), "-I", "x1,x2,w", "--oracle", "both"]) == 0
        assert capsys.readouterr().out == "stable\n"
        assert len(compiles) == 1

    def test_divergence_exit_code(self, sum_loop, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_fixpoint_verdict", lambda *args: True)
        code = cli.run(
            ["check", sum_loop, "-I", "p(-1),p(1),p(2)", "--oracle", "both"])
        assert code == 3
        assert "divergence" in capsys.readouterr().err


@pytest.fixture
def commas(tmp_path):
    path = tmp_path / "commas.lp"
    path.write_text("p(1,2). q :- p(1,2). r :- not p(1,2).\n")
    return str(path)


class TestCommaAtoms:
    """``-I`` reads ``p(1,2)`` as one atom, as the program text does."""

    def test_check_and_reduct(self, commas, capsys):
        assert cli.run(["solve", commas, "--all"]) == 0
        assert capsys.readouterr().out == "{p(1,2), q}\n"
        assert cli.run(["check", commas, "-I", "p(1,2),q", "--oracle", "both"]) == 0
        assert capsys.readouterr().out == "stable\n"
        assert cli.run(["reduct", commas, "-I", "p(1,2),q"]) == 0
        assert capsys.readouterr().out == "p(1,2).\nq :- p(1,2).\n"

    def test_malformed_list_is_an_input_error(self, commas, capsys):
        assert cli.run(["check", commas, "-I", "p(1,2) q"]) == 1
        assert "1:8" in capsys.readouterr().err


class TestReduct:
    def test_text(self, sum_loop, capsys):
        assert cli.run(["reduct", sum_loop, "-I", "p(-1),p(1),p(2)"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "p(1)."
        assert len(lines) == 4

    def test_json(self, sum_loop, capsys):
        assert cli.run(["reduct", sum_loop, "-I", "", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert set(data) == {"rules", "gamma"}

    def test_empty_reduct_prints_one_empty_line(self, tmp_path, capsys):
        path = tmp_path / "blocked.lp"
        path.write_text("a :- not b.")
        assert cli.run(["reduct", str(path), "-I", "b"]) == 0
        assert capsys.readouterr().out == "\n"


class TestAbstract:
    def test_expression(self, capsys):
        code = cli.run(["abstract", "--catom", "[a,b : {a}, {b}, {a,b}]",
                        "--classify"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["domain"] == ["a", "b"]
        assert data["monotone"] is True
        assert {"base": ["a"], "free": ["b"]} in data["lattices"]

    def test_file_lists_constraints(self, sum_loop, capsys):
        assert cli.run(["abstract", sum_loop]) == 0
        data = json.loads(capsys.readouterr().out)
        assert len(data) == 1
        assert data[0]["domain"] == ["p(-1)", "p(1)", "p(2)"]

    def test_requires_exactly_one_source(self, sum_loop, capsys):
        assert cli.run(["abstract"]) == 1
        assert cli.run(["abstract", sum_loop, "--catom", "a"]) == 1


class TestTranslateAndDepgraph:
    def test_translate(self, sum_loop, capsys):
        assert cli.run(["translate", sum_loop]) == 0
        out = capsys.readouterr().out
        assert "__theta_" in out
        assert "not p(-1)" in out

    def test_depgraph_edges(self, tmp_path, capsys):
        path = tmp_path / "loop.lp"
        path.write_text(EVEN_LOOP)
        assert cli.run(["depgraph", str(path)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert "a ---> b" in out
        assert "a -+-> p" in out

    def test_depgraph_dot_and_report(self, tmp_path, capsys):
        path = tmp_path / "loop.lp"
        path.write_text(EVEN_LOOP)
        assert cli.run(["depgraph", str(path), "--dot", "--report"]) == 0
        out = capsys.readouterr().out
        assert "digraph dependencies {" in out
        assert "even_cycle=True" in out
        assert "call_consistent=True" in out


#: ``h :- C. a :- not h. b :- h.``: the analysis commands' output on C is
#: checked against brute force; C's atoms avoid h, a and b.
ANALYZED = "h :- {catom}. a :- not h. b :- h.\n"
C_POOL = ("c", "d", "e", "f", "g", "i", "j")


def analyzed_catoms() -> list[CAtom]:
    """Random explicit c-atoms over 0-7 atoms, every family over two atoms,
    then the edge cases: the empty domain (with and without its one set), an
    empty and a complete family, and the pinned family with 15 solutions and
    16 maximal sublattices."""
    rng = random.Random(1515)
    catoms = [generators.random_catom(rng, C_POOL, max_domain=7) for _ in range(60)]
    pairs = list(iter_subsets("cd"))
    catoms += [CAtom("cd", [s for i, s in enumerate(pairs) if k >> i & 1])
               for k in range(16)]
    pinned = [{"c", "d"}, {"c", "d", "e"}, {"c", "d", "f"}, {"c", "d", "g"},
              {"c", "e"}, {"c", "e", "f", "g"}, {"c", "f"}, {"c", "f", "g"},
              {"d", "e", "f"}, {"d", "e", "g"}, {"e"}, {"e", "f"},
              {"e", "f", "g"}, {"f"}, {"g"}]
    return catoms + [
        CAtom((), [()]), CAtom((), ()), CAtom("cdef", ()),
        CAtom("cdefgij", iter_subsets("cdefgij")), CAtom("cdefg", pinned)]


def run_cli(argv: list[str]) -> str:
    """``cli.run(argv)``'s stdout; the command must succeed."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.run(argv) == 0, argv
    return out.getvalue()


class TestAnalysisAgainstBruteForce:
    """``translate``, ``depgraph --report`` and ``abstract --classify`` on
    ``ANALYZED``, against ``oracles.brute_abstract`` and the brute-force
    closure properties."""

    def test_outputs_match_the_definitions(self, tmp_path):
        path = str(tmp_path / "analyzed.lp")
        catoms = analyzed_catoms()
        assert len(catoms[-1].solutions) == 15
        assert len(oracles.brute_abstract(catoms[-1])) == 16
        for catom in catoms:
            text = format_catom(catom)
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(ANALYZED.format(catom=text))
            members = sorted(oracles.brute_abstract(catom),
                             key=lambda m: (sorted(m.base), sorted(m.free)))

            name = theta_atom(catom)
            bodies = [sorted(m.base) + [f"not {a}" for a in sorted(catom.domain - m.top)]
                      for m in members]
            defining = [f"{name} :- {', '.join(body)}." if body else f"{name}."
                        for body in bodies]
            lines = run_cli(["translate", path]).splitlines()
            assert [line for line in lines if line.startswith((f"{name} ", f"{name}."))
                    ] == defining, text
            assert len(lines) == 3 + len(members) + 2  # the rules and the other thetas

            edges = {("h", a, "+") for m in members for a in m.base}
            edges |= {("h", a, "-") for m in members for a in catom.domain - m.top}
            edges |= {("a", "h", "-"), ("b", "h", "+")}
            flags = oracles.brute_cycle_flags(catom.domain | {"h", "a", "b"}, edges)
            assert run_cli(["depgraph", path, "--report"]).splitlines() == [
                f"{u} -{sign}-> {v}" for u, v, sign in sorted(edges)] + [
                f"positive_cycle={'positive' in flags}",
                f"odd_cycle={'odd' in flags}",
                f"even_cycle={'even' in flags}",
                f"even_cycle_literal={'even_literal' in flags}",
                f"call_consistent={'odd' not in flags}",
                f"acyclic={'cycle' not in flags}"], text

            expected = {
                "domain": sorted(catom.domain),
                "lattices": [{"base": sorted(m.base), "free": sorted(m.free)}
                             for m in members],
                "monotone": oracles.brute_monotone(catom),
                "antimonotone": oracles.brute_antimonotone(catom),
                "convex": oracles.brute_convex(catom),
            }
            assert json.loads(run_cli(["abstract", path, "--classify"])) == [expected], text
            assert json.loads(run_cli(["abstract", "--catom", text, "--classify"])) == expected


def test_twenty_atom_complement_in_desk_time(tmp_path):
    # ``not A`` over 20 atoms is A's complement, which holds all but one of
    # 2**20 sets and has one prime per atom; every guard admits it.
    atoms = [f"x{i}" for i in range(20)]
    path = tmp_path / "wide.lp"
    path.write_text("a :- not [%s : {x0}].\n" % ", ".join(atoms))
    cases = [
        (["translate", str(path)], lambda out: len(out.splitlines()) == 21),
        (["abstract", str(path), "--classify"],
         lambda out: len(json.loads(out)[0]["lattices"]) == 20),
        (["check", str(path), "-I", "a", "--oracle", "reduct"], lambda out: out == "stable\n"),
        (["check", str(path), "-I", "a,x1", "--oracle", "reduct"],
         lambda out: out == "not stable\n"),
    ]
    for argv, expected in cases:
        started = time.perf_counter()
        out = run_cli(argv)
        assert time.perf_counter() - started < 1.0, argv
        assert expected(out), (argv, out)


def test_eight_of_sixteen_is_classified_in_desk_time():
    # 12,870 primes, all with 8 atoms in the base and none free.
    text = "8{%s}8" % ",".join(f"x{i}" for i in range(16))
    started = time.perf_counter()
    data = json.loads(run_cli(["abstract", "--catom", text, "--classify"]))
    assert time.perf_counter() - started < 1.0
    assert len(data["lattices"]) == 12870
    assert (data["monotone"], data["antimonotone"], data["convex"]) == (False, False, True)


def test_twenty_atom_head_cycle_free_solve_in_desk_time(tmp_path):
    # 2 * 2**17 stable models, one of a | b plus any subset of c0..c16,
    # decided by the shifted least fixpoint and printed from their indices.
    path = tmp_path / "hcf.lp"
    path.write_text("#atoms z. a | b. {%s}. {%s}.\n" % (
        ", ".join(f"c{i}" for i in range(8)), ", ".join(f"c{i}" for i in range(8, 17))))
    started = time.perf_counter()
    first = run_cli(["solve", str(path)])
    printed = run_cli(["solve", str(path), "--all", "--json"])
    assert time.perf_counter() - started < 1.5
    models = json.loads(printed)["models"]
    assert first == "{a}\n(262143 more; use --all)\n"
    assert len(models) == 262144
    assert models[:3] == [["a"], ["a", "c0"], ["a", "c0", "c1"]]
    assert models == sorted(models) and len(set(map(tuple, models))) == 262144


class TestSolveRendering:
    """``solve``'s three outputs against the same text rendered from ``stable_models``."""

    @staticmethod
    def _programs():
        rng = random.Random(41)
        for _ in range(150):
            yield generators.random_normal_constraint_program(rng)
        for _ in range(150):
            yield generators.random_disjunctive_constraint_program(rng)
        for _ in range(100):
            yield generators.random_ordinary_program(
                rng, atoms=("a", "b", "c", "d"), max_rules=5, disjunctive=True)

    @staticmethod
    def _expected(models) -> dict[str, str]:
        keys = [sorted(model) for model in models]
        lines = ["{%s}\n" % ", ".join(key) for key in keys] or ["no stable models\n"]
        more = [f"({len(keys) - 1} more; use --all)\n"] if len(keys) > 1 else []
        return {"default": "".join(lines[:1] + more), "--all": "".join(lines),
                "--json": json.dumps({"models": keys}) + "\n"}

    def test_every_mode_prints_what_stable_models_answers(self, tmp_path):
        path = tmp_path / "program.lp"
        routes = {"normal": 0, "shifted": 0, "witness": 0}
        counts = set()
        for program in self._programs():
            text = format_program(program)
            path.write_text(text)
            models = reduct.stable_models(load_program(text))
            expected = self._expected(models)
            for mode, flags in (("default", []), ("--all", ["--all"]), ("--json", ["--json"])):
                assert run_cli(["solve", str(path), *flags]) == expected[mode], (text, mode)
            space = core.CandidateBits(program.compiled)
            models_reduct = reduct._Reduct(space, space.models())
            if not models_reduct.disjunctive:
                routes["normal"] += 1
            elif reduct._head_cycle_free(models_reduct):
                routes["shifted"] += 1
            else:
                routes["witness"] += 1
            counts.add(min(len(models), 2))
        assert routes == {"normal": 219, "shifted": 82, "witness": 99}
        assert counts == {0, 1, 2}


class TestMaskRoute:
    """The analysis passes read the checked prime-cube masks: they build no
    abstract-form object, and they keep the irredundancy check."""

    PROGRAM = "h :- 2 {c, d, e, not f} 3. a :- not h. b :- h, [c,d : {}, {c}, {c,d}].\n"
    DEPGRAPH_REPORT = (
        "a ---> h\nb -+-> c\nb ---> d\nb -+-> h\nh -+-> c\nh ---> c\n"
        "h -+-> d\nh ---> d\nh -+-> e\nh ---> e\nh -+-> f\nh ---> f\n"
        "positive_cycle=False\nodd_cycle=False\neven_cycle=False\n"
        "even_cycle_literal=False\ncall_consistent=True\nacyclic=True\n")

    def answers(self, path: str) -> list:
        program = load_program(self.PROGRAM)
        return [
            translate_normal(program),
            dependency_graph(program),
            run_cli(["translate", path]),
            run_cli(["depgraph", path, "--report"]),
            run_cli(["abstract", path, "--classify"]),
            run_cli(["abstract", "--catom", "[c,d : {}, {c}, {c,d}]", "--classify"]),
        ]

    @pytest.fixture
    def path(self, tmp_path):
        path = tmp_path / "route.lp"
        path.write_text(self.PROGRAM)
        return str(path)

    def test_no_abstract_form_object_is_built(self, path, monkeypatch):
        expected = self.answers(path)

        def refuse(*args, **kwargs):
            raise AssertionError("an abstract-form object was built")

        abstraction.abstract_of.cache_clear()  # so a call to it would build
        monkeypatch.setattr(abstraction, "build_abstract", refuse)
        monkeypatch.setattr(abstraction.AbstractCAtom, "__init__", refuse)
        monkeypatch.setattr(abstraction.AbstractCAtom, "from_groups", refuse)
        monkeypatch.setattr(abstraction.PrefixedPowerSet, "__init__", refuse)
        assert self.answers(path) == expected

    def test_a_redundant_cube_list_is_refused(self, path, monkeypatch):
        kernel = abstraction._primes

        def redundant(n, table, point=None):
            # The cube of the empty set lies inside that of {} and {atoms[0]}.
            groups = dict(kernel(n, table, point))  # a copy: the kernel's may be a shared memo
            groups[0] = groups.get(0, 0) | 1
            groups[1] = groups.get(1, 0) | 1
            return groups

        monkeypatch.setattr(abstraction, "_primes", redundant)
        abstraction.abstract_of.cache_clear()
        program = load_program(self.PROGRAM)
        for call in (lambda: translate_normal(program),
                     lambda: cli.run(["translate", path]),
                     lambda: cli.run(["abstract", path, "--classify"]),
                     lambda: cli.run(["abstract", "--catom", "[c : {c}]"]),
                     # Both body c-atoms hold, so the reduct runs the kernel at the candidate.
                     lambda: cli.run(["check", path, "-I", "b,c,d,h"])):
            with pytest.raises(ValueError, match="redundant"):
                call()

        # depgraph reads its signs off the truth tables, not the kernel.
        def refuse(n, table, point=None):
            raise AssertionError("depgraph ran the prime-cube kernel")

        monkeypatch.setattr(abstraction, "_primes", refuse)
        assert run_cli(["depgraph", path, "--report"]) == self.DEPGRAPH_REPORT


class TestUsageErrors:
    """An argparse refusal exits 1 with its message on stderr, and never
    raises ``SystemExit``; help exits 0."""

    def test_usage_errors_exit_1(self, sum_loop, capsys):
        for argv in (["check", sum_loop], ["solve"], ["nosuch"]):
            assert cli.run(argv) == 1, argv
            err = capsys.readouterr().err
            assert err.startswith("usage: catlp") and "error:" in err, argv

    @pytest.mark.parametrize("argv", [["--help"], ["-h"], ["check", "--help"]])
    def test_help_exits_0(self, argv, capsys):
        assert cli.run(argv) == 0
        assert capsys.readouterr().out.startswith("usage: catlp")


class TestParserReuse:
    """``run`` reuses one parser; an option of one call must not reach the
    next call of the same command."""

    def test_solve_json_then_text(self, disjunction, capsys):
        assert cli.run(["solve", disjunction, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)
        assert cli.run(["solve", disjunction]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "{p(-1)}"

    def test_depgraph_report_then_plain(self, tmp_path, capsys):
        path = tmp_path / "loop.lp"
        path.write_text(EVEN_LOOP)
        assert cli.run(["depgraph", str(path), "--report"]) == 0
        assert "acyclic=" in capsys.readouterr().out
        assert cli.run(["depgraph", str(path)]) == 0
        out = capsys.readouterr().out
        assert "a ---> b" in out and "=" not in out

    def test_abstract_classify_then_plain(self, capsys):
        expression = "[a,b : {a}, {b}, {a,b}]"
        assert cli.run(["abstract", "--catom", expression, "--classify"]) == 0
        assert "monotone" in json.loads(capsys.readouterr().out)
        assert cli.run(["abstract", "--catom", expression]) == 0
        assert "monotone" not in json.loads(capsys.readouterr().out)

    def test_check_oracle_returns_to_its_default(self, disjunction, capsys):
        # The fixpoint oracle refuses a disjunctive program; the reduct does not.
        argv = ["check", disjunction, "-I", "p(-1)"]
        assert cli.run(argv + ["--oracle", "both"]) == 2
        assert cli.run(argv) == 0
        assert capsys.readouterr().out.strip() == "stable"


def test_selftest(capsys):
    assert cli.run(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "cases passed" in out
    assert "FAIL" not in out


SRC = str(Path(catlp.__file__).resolve().parents[1])


def _run_python(*args: str) -> subprocess.CompletedProcess:
    """Run a fresh interpreter with catlp importable, capturing text output."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True,
        timeout=120)


def _run_optimized(*args: str) -> subprocess.CompletedProcess:
    """Run ``python -O`` with catlp importable, capturing text output."""
    return _run_python("-O", *args)


def test_parser_is_built_at_the_first_run_not_at_import():
    """Importing ``catlp.cli`` builds no ``ArgumentParser``; the first ``run``
    builds the parsers and later calls build none."""
    script = (
        "import argparse\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "argparse.ArgumentParser.__init__ = (\n"
        "    lambda self, *a, **k: built.append(1) or init(self, *a, **k))\n"
        "from catlp import cli\n"
        "counts = [len(built)]\n"
        "for _ in range(2):\n"
        "    cli.run(['nosuch'])\n"
        "    counts.append(len(built))\n"
        "print(*counts)\n")
    result = _run_python("-c", script)
    assert result.returncode == 0, result.stderr
    at_import, first, second = map(int, result.stdout.split())
    assert at_import == 0
    assert first == second > 0


def test_import_loads_no_dataclasses_hashlib_or_worked_examples():
    """A fresh ``import catlp.cli`` leaves out what only some commands read:
    ``hashlib`` (introduced names), ``catlp.golden`` (``selftest``), and
    ``dataclasses`` with the ``inspect`` it pulls in (no value type uses it)."""
    script = (
        "import sys\n"
        "import catlp.cli\n"
        "print(*(name for name in ('dataclasses', 'inspect', 'hashlib', 'catlp.golden')\n"
        "        if name in sys.modules))\n")
    result = _run_python("-c", script)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == []


class TestSelftestUnderOptimize:
    def test_module_entry_point_passes(self):
        result = _run_optimized("-m", "catlp", "selftest")
        assert result.returncode == 0, result.stdout + result.stderr
        assert "14/14 cases passed" in result.stdout

    def test_failing_case_still_fails(self):
        # Golden checks must not be bare asserts, which -O strips.
        script = (
            "import sys\n"
            "from catlp import cli, golden\n"
            "golden.stable_models = lambda program: ()\n"
            "sys.exit(cli.run(['selftest']))\n")
        result = _run_optimized("-c", script)
        assert result.returncode == 1, result.stdout + result.stderr
        assert "9/14 cases passed" in result.stdout


def test_library_has_no_assert_statements():
    """``python -O`` strips ``assert``, so no library check may be one."""
    sources = sorted(Path(catlp.__file__).resolve().parent.glob("*.py"))
    assert sources
    found = [f"{path.name}:{node.lineno}" for path in sources
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_library_has_no_unused_imports():
    """No module but ``__init__.py``, which re-exports, imports a name it never reads."""
    sources = sorted(Path(catlp.__file__).resolve().parent.glob("*.py"))
    unused = []
    for path in sources:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {(alias.asname or alias.name).partition(".")[0]: node.lineno
                    for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"
                    for alias in node.names}
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items()
                   if name not in read]
    assert len(sources) > 1
    assert unused == []


def test_library_has_no_orphan_routes():
    """Every public top-level ``def``/``class`` is read by name somewhere in the
    library, a re-export in ``__init__.py`` included; ``cli.main`` is the console script.
    The scan must see every module's definitions, whatever their number."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in Path(catlp.__file__).resolve().parent.glob("*.py")}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                read.add(node.id)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    defined = [(module, node.name) for module, tree in trees.items() for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and not node.name.startswith("_")]
    assert {module for module, _ in defined} == set(trees) - {"__init__", "__main__"}
    assert {("core", "is_model"), ("reduct", "stable_models")} <= set(defined)
    orphans = [f"{module}.{name}" for module, name in defined
               if name not in read and (module, name) != ("cli", "main")]
    assert orphans == []


def test_library_routes_read_only_by_init_are_traced_or_documented():
    """A public top-level ``def``/``class`` that no module but ``__init__.py`` reads
    is a name ``perfbench/tracer.LAYERS`` rebinds or one the README Library sketch runs."""
    root = Path(__file__).resolve().parents[1]
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in Path(catlp.__file__).resolve().parent.glob("*.py")}
    read = set()
    for node in (node for module, tree in trees.items() if module != "__init__"
                 for node in ast.walk(tree)):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    tracer = ast.parse((root / "perfbench" / "tracer.py").read_text(encoding="utf-8"))
    traced = {function for node in tracer.body if isinstance(node, ast.Assign)
              and any(getattr(target, "id", None) == "LAYERS" for target in node.targets)
              for _, function in ast.literal_eval(node.value)}
    section = (root / "README.md").read_text().split("## Library sketch\n", 1)[1]
    sketch = ast.parse(section.split("```python\n", 1)[1].split("```", 1)[0])
    shown = {node.id for node in ast.walk(sketch) if isinstance(node, ast.Name)}
    assert traced and shown
    unread = [f"{module}.{node.name}" for module, tree in trees.items() for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_") and node.name not in read | traced | shown]
    assert unread == []


class TestPoolGuard:
    @staticmethod
    def _pairs(tmp_path, count):
        path = tmp_path / "pairs.lp"
        path.write_text(" ".join(f"a{i} | b{i}." for i in range(count)))
        return str(path)

    def test_twelve_pairs_answer(self, tmp_path, capsys):
        candidate = ",".join(f"a{i}" for i in range(12))
        assert cli.run(["check", self._pairs(tmp_path, 12), "-I", candidate]) == 0
        assert capsys.readouterr().out.strip() == "stable"

    def test_pool_over_limit_refused(self, tmp_path, capsys):
        candidate = ",".join(f"a{i}" for i in range(23))
        assert cli.run(["check", self._pairs(tmp_path, 23), "-I", candidate]) == 2
        assert capsys.readouterr().err == (
            "refused: minimal_models guard: 23 exceeds the limit of 22\n")


#: Well-formed statements over atoms a, b, c, x.
STATEMENTS = (
    "a :- not b.", "b :- not a.", "1 {a, not b, c} 2.", "c :- #sum{a=1, b=-1} >= 0.",
    "c :- [a,b : ].", "[a : {a}] | b.", "bot :- a, b.", "x :- not [a,b : {}, {b}].",
    "#atoms x.", "a | [b,c : {b}, {c}] :- #count{a=1, c=1} < 2.",
)

#: Single tokens, stray characters and statements.
SOUP = (
    "a", "b", "c", "not", "bot", ":-", ",", ".", "|", "{", "}", "[", "]", ":",
    "=", "1", "2", "-1", "#sum", "#count", "#atoms", "#min", ">=", "<", "%",
    "\n", "$", "__theta_a") + STATEMENTS


@settings(deadline=None)
@given(st.lists(st.sampled_from(STATEMENTS), max_size=4),
       st.lists(st.sampled_from(SOUP), max_size=12),
       st.frozensets(st.sampled_from("abcx")))
def test_malformed_input_never_raises(statements, soup, interpretation):
    """Statements then token soup: exit codes 0, 1 or 2, never an exception."""
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "soup.lp")
        Path(path).write_text(" ".join(statements + soup), encoding="utf-8")
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            assert cli.run(["solve", path]) in (0, 1, 2)
            checked = cli.run(["check", path, "-I", ",".join(sorted(interpretation))])
            assert checked in (0, 1, 2)


def test_readme_cli_block_matches_the_parser():
    """Each README CLI line names a subcommand and only its options; every
    option of a subcommand but ``-h`` appears on its line in some spelling."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    block = readme.read_text().split("## CLI\n", 1)[1].split("```")[1]
    lines = {line.split()[1]: set(re.findall(r"(?<![\w-])--?[A-Za-z][\w-]*", line))
             for line in block.splitlines() if line.startswith("catlp ")}
    subparsers = next(action for action in cli.build_arg_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    assert set(lines) == set(subparsers.choices)
    for command, parser in subparsers.choices.items():
        spellings = [set(a.option_strings) for a in parser._actions
                     if a.option_strings and "-h" not in a.option_strings]
        assert lines[command] <= set().union(*spellings), command
        for options in spellings:
            assert lines[command] & options, (command, options)


def test_readme_library_sketch_runs_as_documented():
    """The README library sketch runs.  Each expression line with a comment
    gives the value the comment starts with (up to ``": "``), and ``print``
    prints its comment and the comment-only lines under it."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text().split("## Library sketch\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace: dict = {}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), namespace)
    printed, values = [], 0
    lines = block.splitlines()
    for number, line in enumerate(lines):
        code, _, comment = (part.strip() for part in line.partition("#"))
        if not comment or not code:
            continue
        if code.startswith("print("):
            printed.append(comment)
            for follow in lines[number + 1:]:
                if not follow.strip().startswith("#"):
                    break
                printed.append(follow.strip()[1:].strip())
            continue
        try:
            ast.parse(code, mode="eval")
        except SyntaxError:
            continue  # a statement, such as an assignment
        value = comment.split(": ", 1)[0]
        assert eval(code, namespace) == eval(value, namespace), line
        values += 1
    assert [line for line in out.getvalue().splitlines() if line] == printed
    assert printed and values >= 5


TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_traced_functions_exist():
    """``perfbench/run.py --trace 1`` rebinds each name in ``tracer.LAYERS``."""
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    layers = next(
        ast.literal_eval(node.value) for node in tree.body
        if isinstance(node, ast.Assign)
        and any(getattr(target, "id", None) == "LAYERS" for target in node.targets))
    for module, function in layers:
        target = getattr(importlib.import_module(f"catlp.{module}"), function, None)
        assert callable(target), f"catlp.{module}.{function} is gone"
    # ``Tracer.install`` reads the cache counters of ``abstract_of`` too.
    assert callable(getattr(importlib.import_module("catlp.abstraction").abstract_of,
                            "cache_info", None))


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.mark.parametrize("workload, smoke", [
    ("solve", False), ("check", False), ("analyze", True)])
def test_benchmark_traffic_is_answered_right(workload, smoke, tmp_path, monkeypatch):
    """One pass of a ``perfbench`` workload through ``cli.run``, each answer
    checked against the command's own reference, as the benchmark runs it."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from workloads import build_pass

    commands = build_pass(workload, random.Random(f"{workload}:5"), smoke=smoke)
    assert commands
    program = tmp_path / "program.lp"
    for number, command in enumerate(commands):
        prefix = f"k{number}_"
        program.write_text(command.text.replace("@", prefix), encoding="utf-8")
        argv = [command.verb, str(program), *(a.replace("@", prefix) for a in command.args)]
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.run(argv)
        assert code == 0, command.name
        assert command.check(out.getvalue().replace(prefix, "@")), command.name


def test_tracer_reduct_hooks_count_rules_and_atoms(monkeypatch):
    """``perfbench/tracer.py`` reads the rules ``gl_reduct`` emits and the
    atoms ``minimal_models`` is given, and ``uninstall`` restores both."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracer import Tracer

    original = reduct.gl_reduct
    tracer = Tracer()
    tracer.install()
    try:
        emitted = reduct.gl_reduct(golden.disjunctive_fact_program(), frozenset("ab"))
        reduct.minimal_models(emitted)
        metrics = tracer.metrics()
    finally:
        tracer.uninstall()
    assert reduct.gl_reduct is original
    assert metrics["reduct.gl_reduct.calls"] == metrics["reduct.minimal_models.calls"] == 1
    assert metrics["reduct.gl_reduct.rules_emitted"] == len(emitted.rules)
    assert metrics["reduct.minimal_models.atoms_max"] == len(emitted.atoms)


CLI_CORPUS = Path(__file__).resolve().parent / "cli_corpus.py"


def test_cli_corpus_slice_is_complete_and_reproducible():
    """``tests/cli_corpus.py`` on one program per family: every command runs
    on every program, and a separate process prints the same bytes."""
    import cli_corpus

    out = io.StringIO()
    assert cli_corpus.main(["--per-family", "1"], out=out) == 0
    text = out.getvalue()
    labels = list(cli_corpus.golden_texts()) + [
        f"{family.__name__}#0" for family in cli_corpus.FAMILIES]
    assert len(labels) == 15
    shown = [shlex.split(line)[2:] for line in text.splitlines()
             if line.startswith("$ catlp ")]
    catoms = cli_corpus.golden_catoms()
    assert len(catoms) == 16
    malformed = (len(cli_corpus.MALFORMED_PROGRAMS) + len(cli_corpus.MALFORMED_INTERPRETATIONS)
                 + len(cli_corpus.MALFORMED_CATOMS))
    assert len(shown) == 15 * 25 + 16 + malformed
    for label in labels:
        assert [argv[0] for argv in shown[:15 * 25] if argv[1] == label] == (
            ["solve", "translate", "depgraph", "depgraph", "abstract"]
            + ["check", "check", "reduct", "reduct"] * 5), label
    assert shown[15 * 25:15 * 25 + 16] == [
        ["abstract", "--catom", c, "--classify"] for c in catoms]
    # Every malformed input is refused with a positioned parse error, exit 1.
    assert text.count("\nexit 1\nstderr: parse error: ") == malformed
    assert (
        "$ catlp solve SUM_COUNT_DISJUNCTION --all --json\nexit 0\n"
        '{"models": [["p(-1)"], ["p(-1)", "p(1)"], ["p(1)", "p(2)"]]}\n') in text
    assert "$ catlp check EVEN_LOOP -I '' --oracle both\nexit 0\n" in text

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    result = subprocess.run(
        [sys.executable, str(CLI_CORPUS), "--per-family", "1"], env=env,
        capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout == text


#: Lines and sha256 of ``tests/cli_corpus.py --per-family 40``; a change
#: that alters CLI output on purpose updates both and says why.
CORPUS_LINES = 22017
CORPUS_SHA256 = "2b95ae65a5f5806c9f0e8fe09523af3349a62c0a7943e3292055260fcb140311"


def test_cli_corpus_output_is_pinned():
    import cli_corpus

    out = io.StringIO()
    assert cli_corpus.main(["--per-family", "40"], out=out) == 0
    text = out.getvalue()
    hint = ("CLI output changed: diff `PYTHONPATH=src python tests/cli_corpus.py "
            "--per-family 40` on this tree and on its parent")
    assert len(text.splitlines()) == CORPUS_LINES, hint
    assert hashlib.sha256(text.encode()).hexdigest() == CORPUS_SHA256, hint
    assert "oracle divergence" not in text  # the two oracles agree on every `check`


def test_no_library_route_reads_the_solutions_view(tmp_path, monkeypatch):
    """The printers and every command on the golden texts read the table:
    with ``CAtom.solutions`` raising they print what they printed."""
    import cli_corpus

    path = str(tmp_path / "program.lp")

    def transcript() -> str:
        out = io.StringIO()
        for label, text in cli_corpus.golden_texts().items():
            program = load_program(text)
            out.write(format_program(program))
            Path(path).write_text(text, encoding="utf-8")
            for argv in cli_corpus.commands(text, label):
                cli_corpus.run(argv, path, label, out)
        for text in cli_corpus.golden_catoms():
            cli_corpus.run(["abstract", "--catom", text, "--classify"], "", "", out)
        out.write(format_catom(golden.PUNCTURED_CUBE))
        return out.getvalue()

    expected = transcript()
    assert "__theta_" in expected and "__beta_" in expected

    def refuse(catom):
        raise RuntimeError("CAtom.solutions was read")

    monkeypatch.setattr(CAtom, "solutions", property(refuse))
    with pytest.raises(RuntimeError):
        golden.PUNCTURED_CUBE.solutions
    assert transcript() == expected
