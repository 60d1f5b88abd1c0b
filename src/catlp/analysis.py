"""Basic-form normalization, ordinary translation, and dependency analysis.

A basic program has single heads that are atoms (or always-false constraints,
which normalization rewrites into guarded fresh atoms) and bodies of positive
constraint atoms; negative literals are absorbed as complement constraints.
Such programs translate into ordinary normal programs by routing every body
constraint through a shared ``__theta_`` atom with one defining rule per
sublattice.  The same sublattices induce the signed dependency graph: the
head depends positively on a sublattice base and negatively on the domain
atoms outside the sublattice.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .abstraction import abstract_of
from .core import (
    CAtom,
    Literal,
    Program,
    Rule,
    candidate_models,
    head_atom_name,
    is_false_head,
    is_supported,
    literal_catom,
    set_key,
)
from .errors import ProgramClassError
from .reduct import claim_name, stable_models, theta_atom

#: Prefix of the fresh atoms standing in for always-false heads.
FALSE_HEAD_PREFIX = "__f_"


def normalize_basic(program: Program) -> Program:
    """Rewrite always-false heads into guarded fresh atoms.

    ``bot :- body`` becomes ``f :- body, [f : {}]`` with a fresh reserved
    atom per rule, which keeps the rule acting as a constraint.  Elementary
    constraint heads are flattened to their atoms.
    """
    rules = []
    counter = 0
    for rule in program.rules:
        if len(rule.head) != 1:
            raise ProgramClassError("basic form requires single-element heads")
        element = rule.head[0]
        if is_false_head(element):
            counter += 1
            fresh = f"{FALSE_HEAD_PREFIX}{counter}"
            guard = CAtom(frozenset((fresh,)), frozenset((frozenset(),)))
            rules.append(
                Rule((fresh,), tuple(rule.body) + (Literal.constraint(guard),)))
        elif head_atom_name(element) is not None:
            rules.append(Rule((head_atom_name(element),), rule.body))
        else:
            raise ProgramClassError(
                "basic form requires elementary or always-false heads")
    return Program(tuple(rules), program.declared_atoms)


def translate_normal(program: Program) -> Program:
    """Compile a basic program into an ordinary normal program.

    Each rule body becomes a conjunction of shared ``__theta_`` atoms; each
    sublattice of a constraint contributes one defining rule listing the
    sublattice base positively and the domain atoms outside the sublattice
    under negation.  Raises :class:`NameCollisionError` when two distinct
    c-atoms would share a ``__theta_`` name.
    """
    basic = normalize_basic(program)
    main: list[Rule] = []
    definitions: dict[CAtom, list[Rule]] = {}
    order: list[CAtom] = []
    owners: dict[str, CAtom] = {}
    for rule in basic.rules:
        head = rule.head[0]
        body: list[Literal] = []
        for catom in map(literal_catom, rule.body):
            name = theta_atom(catom)
            body.append(Literal.atom(name))
            if catom not in definitions:
                claim_name(owners, name, catom)
                order.append(catom)
                defs = []
                for member in abstract_of(catom).members():
                    lits = [Literal.atom(a) for a in sorted(member.base)]
                    lits += [Literal.negated_atom(a)
                             for a in sorted(catom.domain - member.top)]
                    defs.append(Rule((name,), tuple(lits)))
                definitions[catom] = defs
        main.append(Rule((head,), tuple(body)))
    rules = main + [r for catom in order for r in definitions[catom]]
    return Program(tuple(rules), basic.declared_atoms)


@dataclass(frozen=True)
class DependencyGraph:
    """Signed dependency graph; edges are (source, target, "+" or "-")."""

    vertices: frozenset[str]
    edges: frozenset[tuple[str, str, str]]

    def __post_init__(self):
        object.__setattr__(self, "vertices", frozenset(self.vertices))
        object.__setattr__(self, "edges", frozenset(self.edges))
        for u, v, sign in self.edges:
            if sign not in ("+", "-"):
                raise ValueError("edge sign must be '+' or '-'")
            if u not in self.vertices or v not in self.vertices:
                raise ValueError("edge endpoints must be vertices")


def dependency_graph(program: Program) -> DependencyGraph:
    """Signed atom dependencies of a basic program."""
    basic = normalize_basic(program)
    edges: set[tuple[str, str, str]] = set()
    for rule in basic.rules:
        head = rule.head[0]
        for catom in map(literal_catom, rule.body):
            for member in abstract_of(catom).lattices:
                for atom in member.base:
                    edges.add((head, atom, "+"))
                for atom in catom.domain - member.top:
                    edges.add((head, atom, "-"))
    return DependencyGraph(basic.atoms, frozenset(edges))


@dataclass(frozen=True, eq=False)
class CycleReport:
    """Cycle structure of a dependency graph.

    ``has_even_cycle`` demands at least two negative edges on the cycle;
    ``has_even_cycle_literal`` also counts negative-edge-free cycles.
    Witnesses map flag names to one closed vertex walk each.
    """

    has_positive_cycle: bool
    has_odd_cycle: bool
    has_even_cycle: bool
    has_even_cycle_literal: bool
    call_consistent: bool
    acyclic: bool
    witnesses: dict

    def witness(self, flag: str) -> tuple[str, ...] | None:
        return self.witnesses.get(flag)


def cycle_report(graph: DependencyGraph) -> CycleReport:
    succ: dict[str, list[tuple[str, int]]] = {v: [] for v in graph.vertices}
    for u, v, sign in sorted(graph.edges):
        succ[u].append((v, 1 if sign == "-" else 0))
    positive_succ = {
        v: [(w, 0) for w, neg in nbrs if neg == 0] for v, nbrs in succ.items()}

    witnesses: dict[str, tuple[str, ...]] = {}

    def first(finder, *args):
        for vertex in sorted(graph.vertices):
            walk = finder(vertex, *args)
            if walk is not None:
                return walk
        return None

    any_cycle = first(lambda v: _closed_walk(succ, v, parity=None))
    pos_cycle = first(lambda v: _closed_walk(positive_succ, v, parity=0))
    odd_cycle = first(lambda v: _closed_walk(succ, v, parity=1))
    even_literal = first(lambda v: _closed_walk(succ, v, parity=0))
    even_strict = first(lambda v: _closed_walk_negative_even(succ, v))

    if any_cycle:
        witnesses["cycle"] = any_cycle
    if pos_cycle:
        witnesses["positive"] = pos_cycle
    if odd_cycle:
        witnesses["odd"] = odd_cycle
    if even_strict:
        witnesses["even"] = even_strict
    if even_literal:
        witnesses["even_literal"] = even_literal

    return CycleReport(
        has_positive_cycle=pos_cycle is not None,
        has_odd_cycle=odd_cycle is not None,
        has_even_cycle=even_strict is not None,
        has_even_cycle_literal=even_literal is not None,
        call_consistent=odd_cycle is None,
        acyclic=any_cycle is None,
        witnesses=witnesses,
    )


def _closed_walk(succ, start, parity):
    """Shortest nonempty closed walk from ``start`` back to itself.

    With ``parity`` 0 or 1 the walk must use an even or odd number of
    negative edges; with ``parity`` None any walk closes.  Returns the vertex
    sequence or None.
    """
    states = deque()
    parents: dict = {}
    for w, neg in succ[start]:
        state = (w, neg if parity is not None else 0)
        if state not in parents:
            parents[state] = None
            states.append(state)
    target = (start, parity if parity is not None else 0)
    goal = (lambda s: s[0] == start) if parity is None else (lambda s: s == target)
    while states:
        state = states.popleft()
        if goal(state):
            return _reconstruct(parents, state, start)
        vertex, par = state
        for w, neg in succ[vertex]:
            nxt = (w, (par ^ neg) if parity is not None else 0)
            if nxt not in parents:
                parents[nxt] = state
                states.append(nxt)
    return None


def _closed_walk_negative_even(succ, start):
    """Closed walk with an even, nonzero number of negative edges."""
    states = deque()
    parents: dict = {}
    for w, neg in succ[start]:
        state = (w, neg, neg)
        if state not in parents:
            parents[state] = None
            states.append(state)
    target = (start, 0, 1)
    while states:
        state = states.popleft()
        if state == target:
            return _reconstruct(parents, state, start)
        vertex, par, seen = state
        for w, neg in succ[vertex]:
            nxt = (w, par ^ neg, seen | neg)
            if nxt not in parents:
                parents[nxt] = state
                states.append(nxt)
    return None


def _reconstruct(parents, state, start):
    path = [state]
    while parents[path[-1]] is not None:
        path.append(parents[path[-1]])
    return tuple([start] + [s[0] for s in reversed(path)])


def to_dot(graph: DependencyGraph) -> str:
    """GraphViz rendering: positive edges solid, negative dashed."""
    lines = ["digraph dependencies {"]
    for vertex in sorted(graph.vertices):
        lines.append(f'  "{vertex}";')
    for u, v, sign in sorted(graph.edges):
        if sign == "+":
            lines.append(f'  "{u}" -> "{v}";')
        else:
            lines.append(f'  "{u}" -> "{v}" [style=dashed, label="-"];')
    lines.append("}")
    return "\n".join(lines)


@dataclass(frozen=True)
class ImplicationCheck:
    name: str
    antecedent: bool
    holds: bool
    detail: str


@dataclass(frozen=True, eq=False)
class DependencyTheoremReport:
    checks: tuple[ImplicationCheck, ...]
    stable: tuple[frozenset[str], ...]
    supported: tuple[frozenset[str], ...]
    cycles: CycleReport

    @property
    def all_hold(self) -> bool:
        return all(c.holds for c in self.checks)


def check_dependency_theorem(program: Program) -> DependencyTheoremReport:
    """Evaluate the four graph-vs-semantics implications by enumeration.

    Call-consistency guarantees a stable model; several stable models demand
    an even cycle; acyclicity forces a unique stable model; without positive
    cycles every supported model is stable.
    """
    basic = normalize_basic(program)
    cycles = cycle_report(dependency_graph(basic))
    stable = stable_models(basic)
    supported = tuple(sorted(
        (c for c in candidate_models(basic) if is_supported(c, basic)),
        key=set_key))

    stable_set = set(stable)
    checks = (
        ImplicationCheck(
            "call_consistent_implies_stable_model",
            cycles.call_consistent,
            (not cycles.call_consistent) or bool(stable),
            f"{len(stable)} stable model(s)"),
        ImplicationCheck(
            "multiple_stable_models_imply_even_cycle",
            len(stable) > 1,
            len(stable) <= 1 or cycles.has_even_cycle,
            f"{len(stable)} stable model(s), even cycle: {cycles.has_even_cycle}"),
        ImplicationCheck(
            "acyclic_implies_unique_stable_model",
            cycles.acyclic,
            (not cycles.acyclic) or len(stable) == 1,
            f"acyclic: {cycles.acyclic}, {len(stable)} stable model(s)"),
        ImplicationCheck(
            "no_positive_cycle_implies_supported_are_stable",
            not cycles.has_positive_cycle,
            cycles.has_positive_cycle
            or all(model in stable_set for model in supported),
            f"{len(supported)} supported vs {len(stable)} stable"),
    )
    return DependencyTheoremReport(checks, stable, supported, cycles)
