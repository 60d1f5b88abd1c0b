"""Program families for the benchmark, each with an independent reference answer.

Every generator returns a list of :class:`Command` objects.  A command's program text
and arguments spell every atom with an ``@`` in front; the runner replaces
``@`` with a prefix unique to that command, so no two commands share a
constraint atom and ``abstract_of``'s cache never hits across commands, just
as with one process per CLI call.

References never come from the library's own algorithms: stable models and
verdicts are closed forms of the family, ordinary programs go through
``tests/oracles.standard_gl_stable_models``, abstract forms of linear
constraints come from the interval characterisation below and those of
random constraint atoms from ``tests/oracles.brute_abstract``.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from itertools import combinations, product
from typing import Callable

from catlp.core import CAtom, Literal, Program, Rule

import oracles


@dataclass(frozen=True)
class Command:
    """One CLI call: ``catlp <verb> FILE <args>`` plus its expected outcome.

    ``check`` receives the captured stdout with the command's atom prefix
    already turned back into ``@`` and says whether it is the right answer.
    """

    family: str
    size: int
    verb: str
    text: str
    args: tuple[str, ...]
    check: Callable[[str], bool]

    @property
    def name(self) -> str:
        return f"{self.verb}:{self.family}:{self.size}"


def _atoms(prefix: str, count: int) -> list[str]:
    return [f"@{prefix}{i}" for i in range(count)]


def _subsets(atoms):
    for size in range(len(atoms) + 1):
        yield from combinations(atoms, size)


def _expect_models(expected: frozenset) -> Callable[[str], bool]:
    def check(stdout: str) -> bool:
        models = json.loads(stdout)["models"]
        return len(models) == len(expected) and {frozenset(m) for m in models} == expected
    return check


def _expect_line(expected: str) -> Callable[[str], bool]:
    return lambda stdout: stdout.strip() == expected


def _card(lo: int, atoms, hi: int | None = None) -> str:
    text = "%d {%s}" % (lo, ", ".join(atoms))
    return text if hi is None else f"{text} {hi}"


# ---------------------------------------------------------------------------
# solve families


def choice_program(rng: random.Random, n: int) -> list[Command]:
    """``{x0..x(n-1)}. y :- 2{S}3. bot :- y, not x0.`` with S of n - 2 atoms.

    Every subset X of the x atoms is stable, with y added exactly when
    2 <= |X & S| <= 3; the constraint removes those with y but without x0.
    """
    xs = _atoms("x", n)
    window = sorted(rng.sample(xs, n - 2), key=xs.index)
    lo, hi = 2, 3
    text = "{%s}.\n@y :- %s.\nbot :- @y, not @x0.\n" % (
        ", ".join(xs), _card(lo, window, hi))
    models = set()
    for chosen in _subsets(xs):
        with_y = lo <= len(set(chosen) & set(window)) <= hi
        if with_y and "@x0" not in chosen:
            continue
        models.add(frozenset(chosen) | ({"@y"} if with_y else set()))
    return [Command("choice", n, "solve", text, ("--all", "--json"),
                    _expect_models(frozenset(models)))]


def _even_loop_rules(k: int) -> tuple[list[str], list[str], str]:
    xs, ys = _atoms("x", k), _atoms("y", k)
    rules = "".join(f"{x} :- not {y}.\n{y} :- not {x}.\n" for x, y in zip(xs, ys))
    return xs, ys, rules


def even_loop_program(rng: random.Random, k: int) -> list[Command]:
    """k even loops ``xi :- not yi. yi :- not xi.`` plus two cardinality rules.

    The stable models pick one of xi, yi per loop; z and w follow from the
    number of picked x and y atoms.
    """
    xs, ys, text = _even_loop_rules(k)
    window = rng.sample(xs, k - 1)
    lo_z, lo_w, hi_w = (k - 1) // 2, 1, k - 1
    text += f"@z :- {_card(lo_z, window)}.\n@w :- {_card(lo_w, ys, hi_w)}, @z.\n"
    models = set()
    for picks in product((0, 1), repeat=k):
        chosen = {xs[i] if p else ys[i] for i, p in enumerate(picks)}
        z = len(chosen & set(window)) >= lo_z
        w = z and lo_w <= k - sum(picks) <= hi_w
        models.add(frozenset(chosen | ({"@z"} if z else set()) | ({"@w"} if w else set())))
    return [Command("even_loop", k, "solve", text, ("--all", "--json"),
                    _expect_models(frozenset(models)))]


def shift_program(rng: random.Random, size: tuple[int, int]) -> list[Command]:
    """``1 {s, not s} 1.  1 {b..} 1 | 2 {d..} 2 :- s.`` with p b and q d atoms.

    Stable: the empty set, and s with exactly one of the b atoms or exactly
    two of the d atoms (never both groups).
    """
    p, q = size
    bs, ds = _atoms("b", p), _atoms("d", q)
    rng.shuffle(bs)
    rng.shuffle(ds)
    c1, c2 = 1, 2
    text = "1 {@s, not @s} 1.\n%s | %s :- @s.\n" % (_card(c1, bs, c1), _card(c2, ds, c2))
    models = {frozenset()}
    models |= {frozenset(("@s",) + group) for group in combinations(bs, c1)}
    models |= {frozenset(("@s",) + group) for group in combinations(ds, c2)}
    return [Command("shift", p * 10 + q, "solve", text, ("--all", "--json"),
                    _expect_models(frozenset(models)))]


def random_ordinary_program(rng: random.Random, n: int) -> list[Command]:
    """Seeded random normal program over exactly n declared atoms."""
    atoms = _atoms("a", n)
    rules = []
    for _ in range(n + n // 2):
        body = []
        for atom in rng.sample(atoms, rng.randint(0, 3)):
            body.append(Literal.atom(atom) if rng.random() < 0.6
                        else Literal.negated_atom(atom))
        rules.append(Rule((rng.choice(atoms),), tuple(body)))
    program = Program(tuple(rules), frozenset(atoms))
    lines = ["#atoms %s." % ", ".join(atoms)]
    for rule in rules:
        body = ", ".join(lit.item if lit.positive else f"not {lit.item}"
                         for lit in rule.body)
        lines.append(f"{rule.head[0]} :- {body}." if body else f"{rule.head[0]}.")
    models = frozenset(oracles.standard_gl_stable_models(program))
    return [Command("random_ordinary", n, "solve", "\n".join(lines) + "\n",
                    ("--all", "--json"), _expect_models(models))]


# ---------------------------------------------------------------------------
# check families

STABLE = "stable"
UNSTABLE = "not stable"
NOT_A_MODEL = "not stable (not a model)"


def pair_programs(rng: random.Random, n: int) -> list[Command]:
    """``ai | bi.`` for i < n plus bridges ``a(i+1) :- bi``.

    The minimal models pick exactly one of ai, bi per pair with no two
    consecutive b picks; a model needs every pair hit and every bridge kept.
    One stable, one model-but-unstable and one non-model candidate.
    """
    a, b = _atoms("a", n), _atoms("b", n)
    text = "".join(f"{a[i]} | {b[i]}.\n" for i in range(n))
    text += "".join(f"{a[i + 1]} :- {b[i]}.\n" for i in range(n - 1))
    picks = []
    for i in range(n):
        picks.append("a" if i and picks[-1] == "b" else rng.choice("ab"))
    stable = {a[i] if p == "a" else b[i] for i, p in enumerate(picks)}
    j = rng.randrange(n)
    extra = {a[j]} if picks[j] == "b" else (
        {b[j]} if j == n - 1 or picks[j + 1] == "a" else {a[j], b[j], a[j + 1]})
    unstable = stable | extra
    dropped = stable - {rng.choice(sorted(stable))}

    def is_model(m):
        return (all(a[i] in m or b[i] in m for i in range(n))
                and all(b[i] not in m or a[i + 1] in m for i in range(n - 1)))

    assert is_model(stable) and is_model(unstable) and not is_model(dropped)
    return [
        Command("pairs", n, "check", text, ("-I", ",".join(sorted(m))), _expect_line(v))
        for m, v in ((stable, STABLE), (unstable, UNSTABLE), (dropped, NOT_A_MODEL))
    ]


def negated_loop_programs(rng: random.Random, k: int) -> list[Command]:
    """Even loops with a cardinality body and a negated cardinality body.

    ``z :- 2{x..}4.  w :- not k/2{y..}k.`` is stratified over the loops,
    so a candidate is stable iff it picks one atom per loop and holds z, w
    exactly when their bodies do.  Checked under ``--oracle both``.
    """
    xs, ys, text = _even_loop_rules(k)
    lo_z, hi_z, lo_w, hi_w = 2, 4, k // 2, k
    text += f"@z :- {_card(lo_z, xs, hi_z)}.\n@w :- not {_card(lo_w, ys, hi_w)}.\n"

    def z_body(m):
        return lo_z <= len(m & set(xs)) <= hi_z

    def w_body(m):
        return not lo_w <= len(m & set(ys)) <= hi_w

    def derive(chosen):
        return chosen | ({"@z"} if z_body(chosen) else set()) | ({"@w"} if w_body(chosen) else set())

    def is_model(m):
        return (all(xs[i] in m or ys[i] in m for i in range(k))
                and (not z_body(m) or "@z" in m) and (not w_body(m) or "@w" in m))

    chosen = {rng.choice(pair) for pair in zip(xs, ys)}
    stable = derive(chosen)
    i = rng.randrange(k)
    both = chosen | {xs[i], ys[i]}
    # Both atoms of one loop, with z and w kept consistent: a model, not stable.
    unstable = both | {"@z", "@w"}
    dropped = stable - {xs[i], ys[i]}
    assert is_model(stable) and is_model(unstable) and not is_model(dropped)
    return [
        Command("negated_loops", k, "check", text,
                ("-I", ",".join(sorted(m)), "--oracle", "both"), _expect_line(v))
        for m, v in ((stable, STABLE), (unstable, UNSTABLE), (dropped, NOT_A_MODEL))
    ]


# ---------------------------------------------------------------------------
# analyze families


@dataclass(frozen=True)
class Reference:
    """Closed-form facts about one constraint atom, as bit masks over ``atoms``."""

    atoms: tuple[str, ...]
    lattices: frozenset[tuple[int, int]]  # (base, top) masks
    monotone: bool
    antimonotone: bool
    convex: bool

    def names(self, mask: int) -> frozenset[str]:
        return frozenset(a for i, a in enumerate(self.atoms) if mask >> i & 1)


def linear_reference(atoms, weights, const, lo, hi) -> Reference:
    """Abstract form of ``lo <= const + sum of weights of true atoms <= hi``.

    Every set in the interval [p, q] has a value between value(p) plus the
    negative weights of q - p and value(p) plus the positive ones, so the
    interval is admissible iff both extremes are in bounds.  Admissible
    intervals are closed under sub-intervals, so an interval is maximal iff
    no single atom can leave p or join q.
    """
    n = len(atoms)
    full = (1 << n) - 1
    lo = float("-inf") if lo is None else lo
    hi = float("inf") if hi is None else hi
    value, low, high = [const] * (full + 1), [0] * (full + 1), [0] * (full + 1)
    for mask in range(1, full + 1):
        i = (mask & -mask).bit_length() - 1
        rest, w = mask & (mask - 1), weights[i]
        value[mask] = value[rest] + w
        low[mask] = low[rest] + min(w, 0)
        high[mask] = high[rest] + max(w, 0)

    def admissible(p, q):
        return lo <= value[p] + low[q & ~p] and value[p] + high[q & ~p] <= hi

    lattices = set()
    convex = True
    for q in range(full + 1):
        if not lo <= value[q] <= hi:
            continue
        p = q
        while True:
            if admissible(p, q):
                if not any((p >> i & 1 and admissible(p & ~(1 << i), q))
                           or (not q >> i & 1 and admissible(p, q | 1 << i))
                           for i in range(n)):
                    lattices.add((p, q))
            elif lo <= value[p] <= hi:
                convex = False
            if p == 0:
                break
            p = (p - 1) & q
    solutions = [m for m in range(full + 1) if lo <= value[m] <= hi]
    members = set(solutions)
    return Reference(
        tuple(atoms), frozenset(lattices),
        monotone=all(m | 1 << i in members for m in solutions for i in range(n)),
        antimonotone=all(m & ~(1 << i) in members for m in solutions for i in range(n)),
        convex=convex)


def catom_reference(catom: CAtom) -> Reference:
    """Abstract form and closure flags of an explicit constraint atom, by brute force."""
    atoms = tuple(sorted(catom.domain))
    bit = {a: 1 << i for i, a in enumerate(atoms)}

    def mask(names):
        return sum(bit[a] for a in names)

    return Reference(
        atoms,
        frozenset((mask(m.base), mask(m.top)) for m in oracles.brute_abstract(catom)),
        monotone=oracles.brute_monotone(catom),
        antimonotone=oracles.brute_antimonotone(catom),
        convex=oracles.brute_convex(catom))


#: Weights of the #sum constraints; a pass permutes them over the atoms.
SUM_WEIGHTS = (3, -2, 2, 1, -1, 4, 2, -3, 1)


def aggregate_constraint(rng: random.Random, kind: str, n: int) -> tuple[str, Reference]:
    """A #sum, #count or weight constraint over n fresh atoms, with its reference.

    The shape is fixed by kind and n; the seed permutes the atoms and picks
    the negated weight entry, which leaves the cost of the abstract form alone.
    """
    xs = _atoms("x", n)
    rng.shuffle(xs)
    if kind == "count":
        bound = n // 2
        text = "#count{%s} = %d" % (", ".join(f"{x}=1" for x in xs), bound)
        return text, linear_reference(xs, [1] * n, 0, bound, bound)
    if kind == "sum":
        weights = SUM_WEIGHTS[:n]
        bound = sum(w for w in weights if w > 0) // 3
        text = "#sum{%s} >= %d" % (", ".join(f"{x}={w}" for x, w in zip(xs, weights)), bound)
        return text, linear_reference(xs, weights, 0, bound, None)
    # A cardinality window with one negated entry, which counts when its atom is false.
    lo, hi = 2, 4
    entries = ", ".join(xs[1:] + [f"not {xs[0]}"])
    return "%d {%s} %d" % (lo, entries, hi), linear_reference(xs, [-1] + [1] * (n - 1), 1, lo, hi)


def random_constraint(rng: random.Random, n: int) -> tuple[str, Reference]:
    """A random explicit constraint atom over n fresh atoms (at least one solution)."""
    atoms = _atoms("c", n)
    solutions = [s for s in _subsets(atoms) if rng.random() < 0.5] or [()]
    catom = CAtom(frozenset(atoms), frozenset(frozenset(s) for s in solutions))
    text = "[%s : %s]" % (", ".join(atoms),
                          ", ".join("{%s}" % ", ".join(s) for s in solutions))
    return text, catom_reference(catom)


def _closure(size: int, edges) -> list[list[bool]]:
    """Transitive closure (paths of length >= 1) by Warshall's algorithm."""
    reach = [[False] * size for _ in range(size)]
    for u, v in edges:
        reach[u][v] = True
    for k in range(size):
        for i in range(size):
            if reach[i][k]:
                row, via = reach[i], reach[k]
                for j in range(size):
                    if via[j]:
                        row[j] = True
    return reach


def cycle_flags(vertices, edges) -> dict[str, bool]:
    """Closed-walk flags of a signed graph, from closures of product graphs.

    A state carries the parity of negative edges walked and whether one was
    seen; a flag holds when some state reaches the matching state at the
    same vertex.
    """
    index = {v: i for i, v in enumerate(sorted(vertices))}
    n = len(index)
    signed = [(index[u], index[v], 1 if s == "-" else 0) for u, v, s in edges]

    def state(v, parity, seen):
        return (v * 2 + parity) * 2 + seen

    product_edges = [
        (state(u, par, seen), state(v, par ^ neg, seen | neg))
        for u, v, neg in signed for par in (0, 1) for seen in (0, 1)]
    reach = _closure(4 * n, product_edges)
    plain = _closure(n, [(u, v) for u, v, _ in signed])
    positive = _closure(n, [(u, v) for u, v, neg in signed if not neg])
    odd = any(reach[state(v, 0, 0)][state(v, 1, 1)] for v in range(n))
    return {
        "positive_cycle": any(positive[v][v] for v in range(n)),
        "odd_cycle": odd,
        "even_cycle": any(reach[state(v, 0, 0)][state(v, 0, 1)] for v in range(n)),
        "even_cycle_literal": any(
            reach[state(v, 0, 0)][state(v, 0, seen)] for v in range(n) for seen in (0, 1)),
        "call_consistent": not odd,
        "acyclic": not any(plain[v][v] for v in range(n)),
    }


def _parse_rules(text: str) -> list[tuple[str, list[str]]]:
    rules = []
    for line in text.strip().splitlines():
        head, _, body = line.rstrip(".").partition(" :- ")
        rules.append((head, body.split(", ") if body else []))
    return rules


def analysis_programs(family: str, size: int, constraint: str, ref: Reference) -> list[Command]:
    """``h :- C.  a :- not h.  b :- h.`` through translate, depgraph and abstract.

    a and b are the first two atoms of C's domain; every answer follows from
    the reference sublattices of C: a translation with one defining rule per
    sublattice, signed edges read off base and top, and the closure flags.
    """
    a, b = ref.atoms[0], ref.atoms[1]
    text = f"@h :- {constraint}.\n{a} :- not @h.\n{b} :- @h.\n"
    full = (1 << len(ref.atoms)) - 1
    definitions = {(ref.names(p), ref.names(full & ~q)) for p, q in ref.lattices}

    def check_translate(stdout: str) -> bool:
        rules = _parse_rules(stdout)
        main, defs = rules[:3], rules[3:]
        if [head for head, _ in main] != ["@h", a, b]:
            return False
        if any(len(body) != 1 or not body[0].startswith("__theta_") for _, body in main):
            return False
        theta_c, theta_not_h, theta_h = (body[0] for _, body in main)
        grouped: dict[str, set] = {}
        for head, body in defs:
            pos = frozenset(x for x in body if not x.startswith("not "))
            neg = frozenset(x[4:] for x in body if x.startswith("not "))
            grouped.setdefault(head, set()).add((pos, neg))
        return (len(defs) == len(definitions) + 2 and grouped == {
            theta_c: definitions,
            theta_not_h: {(frozenset(), frozenset({"@h"}))},
            theta_h: {(frozenset({"@h"}), frozenset())},
        })

    edges = {("@h", x, "+") for p, _ in ref.lattices for x in ref.names(p)}
    edges |= {("@h", x, "-") for _, q in ref.lattices for x in ref.names(full & ~q)}
    edges |= {(a, "@h", "-"), (b, "@h", "+")}
    vertices = {"@h", *ref.atoms}
    flags = cycle_flags(vertices, edges)

    def check_depgraph(stdout: str) -> bool:
        seen, report = set(), {}
        for line in stdout.splitlines():
            if "=" in line:
                key, _, value = line.partition("=")
                report[key] = value == "True"
            else:
                u, sign, v = line.split(" ")
                seen.add((u, v, sign[1]))
        return seen == edges and report == flags

    def check_abstract(stdout: str) -> bool:
        (data,) = json.loads(stdout)
        bit = {x: 1 << i for i, x in enumerate(ref.atoms)}
        lattices = {
            (sum(bit[x] for x in m["base"]), sum(bit[x] for x in m["base"] + m["free"]))
            for m in data["lattices"]}
        return (set(data["domain"]) == set(ref.atoms)
                and len(data["lattices"]) == len(ref.lattices)
                and lattices == ref.lattices
                and (data["monotone"], data["antimonotone"], data["convex"])
                == (ref.monotone, ref.antimonotone, ref.convex))

    return [
        Command(family, size, "translate", text, (), check_translate),
        Command(family, size, "depgraph", text, ("--report",), check_depgraph),
        Command(family, size, "abstract", text, ("--classify",), check_abstract),
    ]
