"""Independent reference implementations for differential testing.

Everything here recomputes results straight from the definitions and stays
away from the library's algorithms: sublattice inclusion enumerates covered
sets, abstract forms scan every candidate per solution, stable models of
ordinary programs go through the textbook two-step reduct, and closure
properties of constraint atoms are checked by exhausting subsets, cycle
flags come from a table of walks layered by length, and head-cycle-freeness
from plain reachability over a rendered reduct.  Stable
models of constraint programs go through ``brute_reduct``, the four
transformation steps written on sets with ``brute_abstract`` for the
covering bases, and scan every subset of the reduct's atoms for its
minimal models.  Only the introduced names come from ``catlp.reduct``.
"""

from __future__ import annotations

from catlp.abstraction import PrefixedPowerSet
from catlp.core import (
    CAtom,
    Literal,
    Program,
    Rule,
    head_atom_name,
    iter_subsets,
    set_key,
)
from catlp.reduct import BOT, beta_atom, theta_atom


def covered_sets(member: PrefixedPowerSet) -> frozenset[frozenset[str]]:
    return frozenset(member.base | extra for extra in iter_subsets(member.free))


def brute_covers(member: PrefixedPowerSet, atoms) -> bool:
    return frozenset(atoms) in covered_sets(member)


def brute_included(p: PrefixedPowerSet, q: PrefixedPowerSet) -> bool:
    return covered_sets(p) <= covered_sets(q)


def brute_abstract(catom: CAtom) -> frozenset[PrefixedPowerSet]:
    """Abstract form by definition: per-solution maximal sublattices, then
    removal of members included in another member."""
    gathered = []
    for bottom in catom.solutions:
        rest = catom.domain - bottom
        admissible = [
            free for free in iter_subsets(rest)
            if covered_sets(PrefixedPowerSet(bottom, free)) <= catom.solutions]
        for free in admissible:
            if not any(free < other for other in admissible):
                gathered.append(PrefixedPowerSet(bottom, free))
    return frozenset(
        member for member in gathered
        if not any(member != other and brute_included(member, other)
                   for other in gathered))


def _mask_family(catom: CAtom) -> tuple[int, set[int]]:
    atoms = sorted(catom.domain)
    bit = {a: 1 << i for i, a in enumerate(atoms)}
    family = set()
    for sol in catom.solutions:
        mask = 0
        for a in sol:
            mask |= bit[a]
        family.add(mask)
    return (1 << len(atoms)) - 1, family


def offset_abstract(catom: CAtom) -> frozenset[PrefixedPowerSet]:
    """Abstract form through the non-solutions, for families that have few.

    Every cube ``(base, free)`` of disjoint masks is tried: it is
    admissible when it holds no non-solution, and a member when no cube one
    atom wider that contains it, ``(base - x, free + x)``, is admissible
    (a cube inside a larger admissible cube lies inside one of these).  The
    cost is 3^n cubes times the non-solution count, against 4^n sets for
    ``brute_abstract`` on a dense family.
    """
    full, family = _mask_family(catom)
    off = [x for x in range(full + 1) if x not in family]
    admissible = set()
    for base in range(full + 1):
        rest = full & ~base
        free = rest
        while True:
            if not any(o & ~free == base for o in off):
                admissible.add((base, free))
            if free == 0:
                break
            free = (free - 1) & rest
    atoms = sorted(catom.domain)

    def names(mask):
        return frozenset(a for i, a in enumerate(atoms) if mask >> i & 1)

    return frozenset(
        PrefixedPowerSet(names(base), names(free)) for base, free in admissible
        if not any((base & ~(1 << i), free | 1 << i) in admissible
                   for i in range(len(atoms)) if not free >> i & 1))


def brute_monotone(catom: CAtom) -> bool:
    full, family = _mask_family(catom)
    for mask in family:
        rest = full & ~mask
        sub = rest
        while True:
            if (mask | sub) not in family:
                return False
            if sub == 0:
                break
            sub = (sub - 1) & rest
    return True


def brute_antimonotone(catom: CAtom) -> bool:
    _, family = _mask_family(catom)
    for mask in family:
        sub = mask
        while True:
            if sub not in family:
                return False
            if sub == 0:
                break
            sub = (sub - 1) & mask
    return True


def brute_convex(catom: CAtom) -> bool:
    _, family = _mask_family(catom)
    for low in family:
        for high in family:
            if low & high != low:
                continue
            rest = high & ~low
            sub = rest
            while True:
                if (low | sub) not in family:
                    return False
                if sub == 0:
                    break
                sub = (sub - 1) & rest
    return True


def brute_cond_satisfies(lower, upper, catom: CAtom) -> bool:
    """Conditional satisfaction by definition, enumerating interpolants."""
    low = frozenset(lower)
    if low & catom.domain not in catom.solutions:
        return False
    bottom = low & catom.domain
    top = frozenset(upper) & catom.domain
    for candidate in iter_subsets(top):
        if bottom <= candidate and candidate not in catom.solutions:
            return False
    return True


# -- ordinary-program stable models (textbook two-step reduct) ---------------


def _compile_ordinary(program: Program, atoms: list[str]):
    index = {a: i for i, a in enumerate(atoms)}
    compiled = []
    for rule in program.rules:
        head = positive = negative = 0
        for element in rule.head:
            name = head_atom_name(element)
            assert name is not None, "ordinary programs only"
            head |= 1 << index[name]
        for lit in rule.body:
            if lit.is_atom:
                name = lit.item
            else:
                assert lit.item.is_elementary, "ordinary programs only"
                name = next(iter(lit.item.domain))
            if lit.positive:
                positive |= 1 << index[name]
            else:
                negative |= 1 << index[name]
        compiled.append((head, positive, negative))
    return compiled


def _model_bits(mask: int, rules) -> bool:
    return all(positive & mask != positive or head & mask
               for head, positive in rules)


def _least_bits(rules) -> int:
    derived = 0
    changed = True
    while changed:
        changed = False
        for head, positive in rules:
            if positive & derived == positive and head & derived != head:
                derived |= head
                changed = True
    return derived


def _minimal_model_bits(mask: int, rules) -> bool:
    if not _model_bits(mask, rules):
        return False
    sub = (mask - 1) & mask
    while sub != mask:  # sub == mask only when mask == 0
        if _model_bits(sub, rules):
            return False
        if sub == 0:
            break
        sub = (sub - 1) & mask
    return True


def standard_gl_stable_models(program: Program) -> set[frozenset[str]]:
    """Stable models of an ordinary program: drop rules with falsified
    negative literals, strip the rest, demand minimality of the candidate."""
    atoms = sorted(program.language)
    compiled = _compile_ordinary(program, atoms)
    disjunctive = any(head & (head - 1) for head, _, _ in compiled)
    found = set()
    for candidate in range(1 << len(atoms)):
        reduct = [(head, positive) for head, positive, negative in compiled
                  if negative & candidate == 0]
        if disjunctive:
            stable = _minimal_model_bits(candidate, reduct)
        else:
            stable = _least_bits(reduct) == candidate
        if stable:
            found.add(frozenset(
                atoms[i] for i in range(len(atoms)) if candidate >> i & 1))
    return found


def brute_minimal_models(rules: list[tuple[frozenset[str], frozenset[str]]],
                         atoms) -> set[frozenset[str]]:
    """Minimal models of positive (head-set, body-set) rules by full scan."""
    models = [
        candidate for candidate in iter_subsets(atoms)
        if all(not (body <= candidate and not (head & candidate))
               for head, body in rules)]
    return {m for m in models if not any(o < m for o in models)}


def atom_rules(program: Program) -> list[tuple[frozenset[str], frozenset[str]]]:
    """The (head-set, body-set) rules of a positive ordinary program, such as a reduct."""
    return [(frozenset(rule.head), frozenset(lit.item for lit in rule.body))
            for rule in program.rules]


def brute_reduct(program: Program, candidate):
    """The reduct by definition, as (rules, gamma): a set of (head-set,
    body-set) rules and the set of introduced atoms.

    1. A rule is dropped when the candidate holds one of its negated atoms
       or falsifies one of its body c-atoms.
    2. The negated atoms of the rules left are removed.
    3. Each body c-atom A becomes ``theta(A)``, with ``theta(A) :- B`` for
       the base B of each abstract-form member covering the candidate on A.
    4. Each head c-atom A becomes ``__bot`` when the candidate falsifies it.
       Otherwise it becomes ``beta(A)``, with ``a :- beta(A)`` for each true
       atom a of A, ``__bot :- a, beta(A)`` for each false one, and
       ``beta(A) :-`` the true atoms.  ``__bot`` is false, so a head with
       another element drops it.
    """
    candidate = frozenset(candidate)
    rules: set[tuple[frozenset[str], frozenset[str]]] = set()
    gamma: set[str] = set()
    for rule in program.rules:
        assert all(lit.positive or lit.is_atom for lit in rule.body), \
            "negated c-atoms have no reduct"
        if any(lit.item in candidate for lit in rule.body if not lit.positive):
            continue
        if any(candidate & lit.item.domain not in lit.item.solutions
               for lit in rule.body if lit.is_constraint):
            continue
        body: set[str] = set()
        for lit in rule.body:
            if lit.is_atom:
                if lit.positive:
                    body.add(lit.item)
                continue
            name = theta_atom(lit.item)
            body.add(name)
            gamma.add(name)
            rules.update(
                (frozenset((name,)), member.base)
                for member in brute_abstract(lit.item)
                if brute_covers(member, candidate & lit.item.domain))
        head: set[str] = set()
        for element in rule.head:
            if isinstance(element, str):
                head.add(element)
                continue
            true = candidate & element.domain
            if true not in element.solutions:
                head.add(BOT)
                continue
            name = beta_atom(element)
            head.add(name)
            gamma.add(name)
            rules.add((frozenset((name,)), true))
            rules.update((frozenset((a,)), frozenset((name,))) for a in true)
            rules.update((frozenset((BOT,)), frozenset((a, name)))
                         for a in element.domain - candidate)
        if len(head) > 1:
            head.discard(BOT)
        rules.add((frozenset(head), frozenset(body)))
    return frozenset(rules), frozenset(gamma)


def brute_is_stable(program: Program, candidate) -> bool:
    """Stability by definition: some minimal model of ``brute_reduct``,
    found by a full scan over its atoms, equals the candidate once the
    introduced atoms are stripped."""
    candidate = frozenset(candidate)
    rules, gamma = brute_reduct(program, candidate)
    atoms = frozenset().union(*(head | body for head, body in rules))
    return any(m - gamma == candidate for m in brute_minimal_models(list(rules), atoms))


def is_head_cycle_free(reduct) -> bool:
    """No rule of the reduct has two distinct head atoms that reach each
    other in its positive dependency graph (head atom -> body atom)."""
    edges: dict[str, set[str]] = {}
    for rule in reduct.rules:
        for head in rule.head:
            edges.setdefault(head, set()).update(lit.item for lit in rule.body)

    def reached(start: str) -> set[str]:
        seen: set[str] = set()
        todo = [start]
        while todo:
            for atom in edges.get(todo.pop(), ()):
                if atom not in seen:
                    seen.add(atom)
                    todo.append(atom)
        return seen

    reach = {atom: reached(atom) for atom in edges}
    return not any(b in reach[a] and a in reach[b]
                   for rule in reduct.rules for a in rule.head for b in rule.head
                   if a != b)


def brute_stable_models(program: Program) -> tuple[frozenset[str], ...]:
    """Every subset of the language through ``brute_is_stable``; no model
    prefilter, no witness search."""
    return tuple(sorted(
        (c for c in iter_subsets(program.language) if brute_is_stable(program, c)),
        key=set_key))


def embed_ordinary(program: Program) -> Program:
    """Respell every atom occurrence as a one-atom constraint.

    Positive literals and head atoms become ``({a},{{a}})``; negative
    literals become ``({a},{{}})``.
    """
    rules = []
    for rule in program.rules:
        head = tuple(CAtom.elementary(head_atom_name(e)) for e in rule.head)
        body = []
        for lit in rule.body:
            assert lit.is_atom
            if lit.positive:
                body.append(Literal.constraint(CAtom.elementary(lit.item)))
            else:
                body.append(Literal.constraint(
                    CAtom(frozenset((lit.item,)), frozenset((frozenset(),)))))
        rules.append(Rule(head, tuple(body)))
    return Program(tuple(rules), program.declared_atoms)


def ordinary_dependency_edges(program: Program) -> set[tuple[str, str, str]]:
    """Signed edges of an ordinary normal program, head to body literals."""
    edges = set()
    for rule in program.rules:
        head = head_atom_name(rule.head[0])
        for lit in rule.body:
            name = lit.item if lit.is_atom else next(iter(lit.item.domain))
            edges.add((head, name, "+" if lit.positive else "-"))
    return edges


#: Each cycle flag, and whether a closed walk with ``n`` negative edges has it.
CYCLE_CONDITIONS = {
    "cycle": lambda n: True,
    "positive": lambda n: n == 0,
    "odd": lambda n: n % 2 == 1,
    "even": lambda n: n % 2 == 0 and n >= 2,
    "even_literal": lambda n: n % 2 == 0,
}


def brute_cycle_flags(vertices, edges) -> dict[str, tuple[str, int]]:
    """Per cycle flag that holds: the first vertex in sorted order with such
    a closed walk, and the length of its shortest one.

    Layer k holds the (vertex, negative-edge count) pairs reached by the
    walks of length k from the start; counts from 2 up are kept as 2 or 3 by
    parity.  A shortest walk of a flag repeats no (vertex, parity, any
    negative) state, so 3·|V| layers reach it.  No parent pointers.
    """
    succ = {v: [(w, sign == "-") for u, w, sign in edges if u == v] for v in vertices}
    found: dict[str, tuple[str, int]] = {}
    for start in sorted(vertices):
        layer = {(start, 0)}
        for length in range(1, 3 * len(succ) + 1):
            layer = {(w, n + neg if n + neg < 4 else 2)
                     for v, n in layer for w, neg in succ[v]}
            for flag, holds in CYCLE_CONDITIONS.items():
                if flag not in found and any(v == start and holds(n) for v, n in layer):
                    found[flag] = (start, length)
    return found
