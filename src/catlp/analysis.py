"""Basic-form normalization, ordinary translation, and dependency analysis.

A basic program has single heads that are atoms (or always-false constraints,
which normalization rewrites into guarded fresh atoms) and bodies of positive
constraint atoms; negative literals are absorbed as complement constraints.
Such programs translate into ordinary normal programs by routing every body
constraint through a shared ``__theta_`` atom with one defining rule per
sublattice.  One walk (:func:`_translation`) names the c-atoms and takes
their checked prime cubes; :func:`translate_normal` builds rules from it and
:func:`format_translation` renders the same text straight from the masks.
The same sublattices induce the signed dependency graph: the head depends
positively on a sublattice base and negatively on the domain atoms outside
the sublattice top.  An atom is in some base iff removing it from some
solution gives a non-solution, and outside some top iff adding it to some
solution does, so :func:`dependency_graph` reads the signs off the truth
table without computing a sublattice.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cache

from .abstraction import checked_primes
from .core import (
    CAtom,
    Literal,
    Program,
    Rule,
    bit_pattern,
    candidate_models,
    head_atom_name,
    is_false_head,
    is_supported,
    literal_catom,
    select,
    set_key,
)
from .errors import ProgramClassError, check_guard
from .reduct import claim_name, stable_models, theta_atom

#: Prefix of the fresh atoms standing in for always-false heads.
FALSE_HEAD_PREFIX = "__f_"


def normalize_basic(program: Program) -> Program:
    """Rewrite always-false heads into guarded fresh atoms.

    ``bot :- body`` becomes ``f :- body, [f : {}]`` with a fresh reserved
    atom per rule, which keeps the rule acting as a constraint.  Elementary
    constraint heads are flattened to their atoms.  Raises
    :class:`NameCollisionError` when a fresh atom is an atom of the program.
    """
    rules = []
    owners: dict[str, CAtom] = {}
    for rule in program.rules:
        if len(rule.head) != 1:
            raise ProgramClassError("basic form requires single-element heads")
        element = rule.head[0]
        if is_false_head(element):
            fresh = f"{FALSE_HEAD_PREFIX}{len(owners) + 1}"
            guard = CAtom(frozenset((fresh,)), frozenset((frozenset(),)))
            claim_name(owners, fresh, guard, program.language)
            rules.append(
                Rule((fresh,), tuple(rule.body) + (Literal.constraint(guard),)))
        elif head_atom_name(element) is not None:
            rules.append(Rule((head_atom_name(element),), rule.body))
        else:
            raise ProgramClassError(
                "basic form requires elementary or always-false heads")
    return Program(tuple(rules), program.declared_atoms)


def _translation(program: Program):
    """The walk both translation consumers share.

    Returns the declared atoms, each rule of the basic form as its head and
    the ``__theta_`` names of its body c-atoms, and for each distinct body
    c-atom, in first-seen order, its name, sorted domain and checked prime
    cubes.  Raises as :func:`translate_normal` documents.
    """
    basic = normalize_basic(program)
    main: list[tuple[str, list[str]]] = []
    definitions: dict[CAtom, tuple] = {}
    owners: dict[str, CAtom] = {}
    for rule in basic.rules:
        names = []
        for catom in map(literal_catom, rule.body):
            name = theta_atom(catom)
            names.append(name)
            if catom not in definitions:
                definitions[catom] = definition = (name, *checked_primes(catom))
                taken = basic.language
                if name in taken:
                    own = {frozenset(r.body) for r in basic.rules if r.head == (name,)}
                    if own == {frozenset(r.body) for r in _defining_rules(*definition)}:
                        taken = ()  # a translation's own output: the atom is the c-atom
                claim_name(owners, name, catom, taken)
        main.append((rule.head[0], names))
    return basic.declared_atoms, main, definitions.values()


def _defining_rules(name: str, atoms: tuple[str, ...], cubes) -> list[Rule]:
    """``name :-`` each prime cube's base and ``not`` the domain atoms outside its top."""
    domain = (1 << len(atoms)) - 1
    positive = tuple(map(Literal.atom, atoms))
    negated = tuple(map(Literal.negated_atom, atoms))
    return [Rule((name,), select(positive, base) + select(negated, domain ^ (base | free)))
            for base, free in cubes]


def translate_normal(program: Program) -> Program:
    """Compile a basic program into an ordinary normal program.

    Each rule body becomes a conjunction of shared ``__theta_`` atoms; each
    sublattice of a constraint contributes one defining rule listing the
    sublattice base positively and the domain atoms outside the sublattice
    top under negation, in canonical order.  Raises
    :class:`NameCollisionError` when two distinct c-atoms would share a
    ``__theta_`` name or a name it introduces is an atom of the program,
    unless the program's rules for that atom are exactly the defining rules
    this would emit, as in a translation's own output.
    """
    declared, main, definitions = _translation(program)
    rules = [Rule((head,), tuple(map(Literal.atom, names))) for head, names in main]
    for definition in definitions:
        rules.extend(_defining_rules(*definition))
    return Program(tuple(rules), declared)


def format_translation(program: Program) -> str:
    """``format_program(translate_normal(program))``, rendered from the masks.

    Each distinct base gets its rule head and positive text once, and each
    distinct domain part outside a top its ``not`` text once; no rule or
    literal object is built.
    """
    declared, main, definitions = _translation(program)
    lines = ["#atoms %s." % ", ".join(sorted(declared))] if declared else []
    lines.extend(f"{head} :- {', '.join(names)}." if names else f"{head}."
                 for head, names in main)
    for name, atoms, cubes in definitions:
        domain = (1 << len(atoms)) - 1
        negated = tuple(f"not {atom}" for atom in atoms)
        head = cache(lambda base: f"{name} :- {', '.join(select(atoms, base))}" if base else name)
        rest = cache(lambda outside: ", ".join(select(negated, outside)))
        for base, free in cubes:
            outside = domain ^ (base | free)
            sep = ", " if base else " :- "
            lines.append(f"{head(base)}{sep}{rest(outside)}." if outside else f"{head(base)}.")
    return "\n".join(lines) + ("\n" if lines else "")


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
    """Signed atom dependencies of a basic program.

    The head of a rule depends positively on the atoms of every sublattice
    base of a body c-atom, and negatively on its domain atoms outside some
    sublattice top.  Both signs are read off the c-atom's truth table, and
    no sublattice is computed: an atom is in some base iff removing it from
    some solution gives a non-solution, and outside some top iff adding it
    to some solution does (:func:`_signed_atoms` has the proof).
    """
    basic = normalize_basic(program)
    signed: dict[CAtom, tuple[tuple[str, ...], tuple[str, ...]]] = {}
    edges: set[tuple[str, str, str]] = set()
    for rule in basic.rules:
        head = rule.head[0]
        for catom in map(literal_catom, rule.body):
            found = signed.get(catom)
            if found is None:
                found = signed[catom] = _signed_atoms(catom)
            edges.update((head, atom, "+") for atom in found[0])
            edges.update((head, atom, "-") for atom in found[1])
    return DependencyGraph(basic.atoms, frozenset(edges))


def _signed_atoms(catom: CAtom) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The atoms in some maximal sublattice's base, and those outside some top.

    Atom x is in the base of a maximal sublattice iff some solution S with
    x in S has S - {x} not a solution; x is outside the top of one iff some
    solution S without x has S | {x} not a solution.  Proof for the base
    (the top is symmetric): a solution S lies in some maximal sublattice
    (b, F); if S - {x} is no solution, x is not free there, so x is in b.
    Conversely, let x be in the base b of a maximal (b, F).  If every
    solution S with x had S - {x} a solution, each set of (b - {x}, F |
    {x}) would be a solution, in (b, F) or one atom below it, and (b, F)
    would not be maximal.  On the table T, with H the positions whose bit
    i is set, atom i is in a base when ``T & H & ~(T << 2**i)`` is non-zero
    and outside a top when ``T & ~H & ~(T >> 2**i)`` is.
    """
    check_guard("abstract_domain", len(catom.domain))
    atoms, table = catom.atoms, catom.table
    n = len(atoms)
    pos = neg = 0
    for i in range(n):
        shift = 1 << i
        holds = bit_pattern(i, n)
        if table & holds & ~(table << shift):
            pos |= shift
        if table & ~holds & ~(table >> shift):
            neg |= shift
    return select(atoms, pos), select(atoms, neg)


@dataclass(frozen=True, eq=False)
class CycleReport:
    """Cycle structure of a dependency graph, read off closed walks.

    A closed walk is positive when it has no negative edge, odd when it has
    an odd number of them, even when it has an even number and at least two,
    and even-literal when it has an even number, zero included.  The graph
    is call-consistent when no walk is odd, and acyclic when it has no
    closed walk at all.  ``witnesses`` maps each flag that holds, of
    "cycle", "positive", "odd", "even" and "even_literal", to the shortest
    such walk from the first vertex in sorted order that has one.
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


#: The end states (parity, any negative edge) of the closed walks of each flag.
_FLAG_ENDS = {
    "cycle": ((0, 0), (0, 1), (1, 1)),
    "positive": ((0, 0),),
    "odd": ((1, 1),),
    "even": ((0, 1),),
    "even_literal": ((0, 0), (0, 1)),
}


def cycle_report(graph: DependencyGraph) -> CycleReport:
    """Decide every cycle flag with one breadth-first search per vertex.

    The search from a start vertex runs over states (vertex, parity of the
    negative edges so far, whether any was seen), so a walk back to the
    start ends in (0, 0), (0, 1) or (1, 1); each flag is a set of these end
    states (``_FLAG_ENDS``), and its witness is the first matching walk
    in vertex order, shortest first.
    """
    succ: dict[str, list[tuple[str, int]]] = {v: [] for v in graph.vertices}
    for u, v, sign in sorted(graph.edges):
        succ[u].append((v, 1 if sign == "-" else 0))
    walks = [item for v in sorted(graph.vertices)
             for item in _closed_walks(succ, v).items()]
    witnesses: dict[str, tuple[str, ...]] = {}
    for flag, ends in _FLAG_ENDS.items():
        walk = next((w for end, w in walks if end in ends), None)
        if walk is not None:
            witnesses[flag] = walk
    return CycleReport(
        has_positive_cycle="positive" in witnesses,
        has_odd_cycle="odd" in witnesses,
        has_even_cycle="even" in witnesses,
        has_even_cycle_literal="even_literal" in witnesses,
        call_consistent="odd" not in witnesses,
        acyclic="cycle" not in witnesses,
        witnesses=witnesses,
    )


def _closed_walks(succ, start):
    """Map each end state of a walk back to ``start`` to its shortest walk."""
    parents: dict = {}
    states = deque()
    for w, neg in succ[start]:
        state = (w, neg, neg)
        if state not in parents:
            parents[state] = None
            states.append(state)
    walks: dict[tuple[int, int], tuple[str, ...]] = {}
    while states and len(walks) < 3:
        state = states.popleft()
        vertex, par, seen = state
        if vertex == start:
            path = [state]
            while parents[path[-1]] is not None:
                path.append(parents[path[-1]])
            walks[par, seen] = (start, *(s[0] for s in reversed(path)))
        for w, neg in succ[vertex]:
            nxt = (w, par ^ neg, seen | neg)
            if nxt not in parents:
                parents[nxt] = state
                states.append(nxt)
    return walks


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
