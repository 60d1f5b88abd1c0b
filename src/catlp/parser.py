"""Text frontend: lexer, parser, sugar desugaring, and printers.

The rule language is propositional.  Atoms are opaque identifiers which may
carry a parenthesized constant list (``p(-1)`` is a single token).  Rule
heads are disjunctions of atoms, constraint atoms written
``[a,b : {}, {a}]`` (``[a,b : ]`` admits no set), weight/cardinality
constraints (``1 {a, not b=2} 3``), aggregates (``#sum{a=1} >= 2``), or
``bot``; bodies are conjunctions of the same items, each optionally under
``not``.  ``#atoms`` declares extra vocabulary.  ``%`` starts a line comment.

The parser builds core objects directly: weight constraints and aggregates
are desugared into c-atoms as they are read, ``bot`` is ``FALSE_CATOM`` and
elementary head constraints are flattened to their atom.  :func:`parse`
keeps negated c-atoms; :func:`load_program` also replaces them by their
complements.  :func:`format_program` prints a loaded program so that it
loads back unchanged.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass

from .core import (
    CAtom,
    HeadElement,
    Literal,
    FALSE_CATOM,
    Program,
    Rule,
    head_atom_name,
    is_reserved,
    literal_catom,
)
from .errors import ParseError, check_guard

_RELOPS = {">=": operator.ge, "<=": operator.le, "=": operator.eq,
           ">": operator.gt, "<": operator.lt}


# ---------------------------------------------------------------------------
# sugar


@dataclass(frozen=True)
class WeightEntry:
    atom: str
    weight: int = 1
    negated: bool = False


@dataclass(frozen=True)
class WeightConstraint:
    """``lower { entries } upper`` with missing bounds meaning unbounded."""

    entries: tuple[WeightEntry, ...]
    lower: int | None = None
    upper: int | None = None

    @property
    def is_choice(self) -> bool:
        """All weights one, no negated entries, bounds spanning 0..n."""
        n = len(self.entries)
        return (all(e.weight == 1 and not e.negated for e in self.entries)
                and (self.lower is None or self.lower <= 0)
                and (self.upper is None or self.upper >= n))


@dataclass(frozen=True)
class AggregateConstraint:
    kind: str  # "sum" or "count"
    entries: tuple[tuple[str, int], ...]
    relation: str
    bound: int


def _linear_catom(atoms: list[str], const: int, delta: list[int], accept) -> CAtom:
    """The subsets of ``atoms`` whose total passes ``accept``.

    Subset mask k (``atoms`` sorted, atom ``atoms[i]`` at bit i) totals
    ``const`` plus ``delta[i]`` per atom in it.  Totals are built by
    doubling, one addition per subset, and bit k of the c-atom's table is
    whether ``accept`` takes total k.
    """
    totals = [const]
    for d in delta:
        totals += [t + d for t in totals]
    return CAtom.from_table(atoms, int("".join("01"[accept(t)] for t in reversed(totals)), 2))


def desugar_weight(constraint: WeightConstraint) -> CAtom:
    """The subsets whose satisfied-literal weight sum is in bounds.

    A negated entry counts when its atom is absent: its weight goes into
    the empty set's total and is taken off when the atom is added.
    """
    check_guard("weight_entries", len(constraint.entries))
    atoms = sorted({e.atom for e in constraint.entries})
    index = {a: i for i, a in enumerate(atoms)}
    const, delta = 0, [0] * len(atoms)
    for e in constraint.entries:
        if e.negated:
            const += e.weight
            delta[index[e.atom]] -= e.weight
        else:
            delta[index[e.atom]] += e.weight
    lower, upper = constraint.lower, constraint.upper
    return _linear_catom(atoms, const, delta, lambda total: (
        (lower is None or lower <= total) and (upper is None or total <= upper)))


def desugar_aggregate(aggregate: AggregateConstraint) -> CAtom:
    """The subsets whose sum (or count) satisfies the relation.

    Raises ``ValueError`` when an atom is listed twice: its value would be
    ambiguous.
    """
    check_guard("weight_entries", len(aggregate.entries))
    values = dict(aggregate.entries)
    if len(values) < len(aggregate.entries):
        raise ValueError("an aggregate lists each atom once")
    atoms = sorted(values)
    delta = [values[a] if aggregate.kind == "sum" else 1 for a in atoms]
    relation, bound = _RELOPS[aggregate.relation], aggregate.bound
    return _linear_catom(atoms, 0, delta, lambda total: relation(total, bound))


def eliminate_negated_catoms(program: Program) -> Program:
    """Replace every negated body constraint by its complement."""
    rules = []
    for rule in program.rules:
        body = tuple(
            Literal.constraint(literal_catom(lit))
            if lit.is_constraint and not lit.positive else lit
            for lit in rule.body)
        rules.append(Rule(rule.head, body))
    return Program(tuple(rules), program.declared_atoms)


# ---------------------------------------------------------------------------
# lexer

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>%[^\n]*)
  | (?P<directive>\#(?:atoms|sum|count)\b)
  | (?P<baddirective>\#[A-Za-z_]*)
  | (?P<atom>[A-Za-z_][A-Za-z0-9_]*(?:\([A-Za-z0-9_,\-]*\))?)
  | (?P<int>-?\d+)
  | (?P<op>:-|>=|<=|[.,|:{}\[\]=><])
    """,
    re.VERBOSE,
)

_KEYWORDS = {"not": "not", "bot": "bot"}


@dataclass(frozen=True)
class Token:
    kind: str  # "atom", "int", "not", "bot", "#atoms", "#sum", "#count", or the operator itself
    value: str
    line: int
    column: int


def _tokenize(text: str) -> list[Token]:
    tokens = []
    line = 1
    line_start = 0
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise ParseError(f"unexpected character {text[pos]!r}",
                             line, pos - line_start + 1)
        column = match.start() - line_start + 1
        group = match.lastgroup
        value = match.group()
        if group == "ws":
            newlines = value.count("\n")
            if newlines:
                line += newlines
                line_start = match.start() + value.rfind("\n") + 1
        elif group == "comment":
            pass
        elif group == "baddirective":
            raise ParseError(f"unknown directive {value!r}", line, column)
        elif group == "atom":
            tokens.append(Token(_KEYWORDS.get(value, "atom"), value, line, column))
        elif group == "int":
            tokens.append(Token("int", value, line, column))
        elif group == "directive":
            tokens.append(Token(value, value, line, column))
        else:
            tokens.append(Token(value, value, line, column))
        pos = match.end()
    return tokens


# ---------------------------------------------------------------------------
# parser


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> Token:
        token = self.peek()
        if token is None:
            raise self.end_of_input()
        self.pos += 1
        return token

    def end_of_input(self) -> ParseError:
        """The error for running out of tokens, placed at the last token."""
        last = self.tokens[-1] if self.tokens else Token("", "", 1, 1)
        return ParseError("unexpected end of input", last.line, last.column)

    def expect(self, kind: str) -> Token:
        token = self.next()
        if token.kind != kind:
            raise ParseError(f"expected {kind!r}, found {token.value!r}",
                             token.line, token.column)
        return token

    def at(self, kind: str) -> bool:
        token = self.peek()
        return token is not None and token.kind == kind

    def finish(self) -> None:
        """Refuse any token left over after a complete parse."""
        token = self.peek()
        if token is not None:
            raise ParseError(f"trailing input {token.value!r}", token.line, token.column)

    def separated(self, item, separator: str = ",") -> list:
        """One ``item()`` or more, separated by ``separator`` tokens."""
        items = [item()]
        while self.at(separator):
            self.next()
            items.append(item())
        return items

    # grammar ---------------------------------------------------------------

    def program(self) -> Program:
        rules = []
        declared: set[str] = set()
        while self.peek() is not None:
            if self.at("#atoms"):
                self.next()
                declared.update(self.separated(self.atom_name))
            else:
                rules.append(self.rule())
            self.expect(".")
        return Program(tuple(rules), frozenset(declared))

    def rule(self) -> Rule:
        head = self.separated(self.head_element, "|")
        body: list[Literal] = []
        if self.at(":-"):
            self.next()
            body = self.separated(self.body_literal)
        return Rule(tuple(head), tuple(body))

    def head_element(self) -> HeadElement:
        # Elementary constraints in heads are spelled as their atom.
        element = self.element()
        return head_atom_name(element) or element

    def body_literal(self) -> Literal:
        negated = self.at("not")
        if negated:
            self.next()
        return Literal(not negated, self.element())

    def element(self) -> HeadElement:
        token = self.peek()
        if token is None:
            raise self.end_of_input()
        if token.kind == "bot":
            self.next()
            return FALSE_CATOM
        if token.kind == "atom":
            return self.atom_name()
        if token.kind == "[":
            return self.catom()
        if token.kind in ("int", "{"):
            return self.weight()
        if token.kind in ("#sum", "#count"):
            return self.aggregate()
        raise ParseError(f"expected an atom or constraint, found {token.value!r}",
                         token.line, token.column)

    def atom_name(self) -> str:
        token = self.expect("atom")
        if is_reserved(token.value):
            raise ParseError(f"atom name {token.value!r} uses a reserved prefix",
                             token.line, token.column)
        return token.value

    def catom(self) -> CAtom:
        opening = self.expect("[")
        domain = frozenset(self.separated(self.atom_name) if self.at("atom") else ())
        self.expect(":")
        sets = (self.separated(lambda: self.atom_set(domain, opening))
                if self.at("{") else ())
        self.expect("]")
        return CAtom(domain, frozenset(sets))

    def atom_set(self, domain: frozenset[str], opening: Token) -> frozenset[str]:
        self.expect("{")
        atoms = self.separated(self.atom_name) if self.at("atom") else []
        self.expect("}")
        for atom in atoms:
            if atom not in domain:
                raise ParseError(f"set atom {atom!r} is outside the constraint domain",
                                 opening.line, opening.column)
        return frozenset(atoms)

    def weight(self) -> CAtom:
        lower = int(self.next().value) if self.at("int") else None
        self.expect("{")
        entries = self.separated(self.weight_entry)
        self.expect("}")
        upper = int(self.next().value) if self.at("int") else None
        return desugar_weight(WeightConstraint(tuple(entries), lower, upper))

    def weight_entry(self) -> WeightEntry:
        negated = self.at("not")
        if negated:
            self.next()
        atom = self.atom_name()
        weight = 1
        if self.at("="):
            self.next()
            weight = int(self.expect("int").value)
        return WeightEntry(atom, weight, negated)

    def aggregate(self) -> CAtom:
        kind = self.next().kind.lstrip("#")
        self.expect("{")
        entries: dict[str, int] = {}
        for atom, value in self.separated(self.aggregate_entry):
            if atom.value in entries:
                raise ParseError(f"atom {atom.value!r} is listed twice in the aggregate",
                                 atom.line, atom.column)
            entries[atom.value] = value
        self.expect("}")
        token = self.next()
        if token.kind not in _RELOPS:
            raise ParseError(f"expected a comparison, found {token.value!r}",
                             token.line, token.column)
        bound = int(self.expect("int").value)
        return desugar_aggregate(
            AggregateConstraint(kind, tuple(entries.items()), token.kind, bound))

    def aggregate_entry(self) -> tuple[Token, int]:
        atom = self.peek()
        self.atom_name()
        self.expect("=")
        return (atom, int(self.expect("int").value))


def parse(text: str) -> Program:
    """Parse and desugar program text, keeping negated c-atoms.

    Raises :class:`ParseError` with line and column.
    """
    return _Parser(_tokenize(text)).program()


def parse_constraint(text: str) -> CAtom:
    """Parse a single (possibly negated or sugared) constraint expression."""
    parser = _Parser(_tokenize(text))
    literal = parser.body_literal()
    parser.finish()
    return literal_catom(literal)


def parse_interpretation(text: str) -> frozenset[str]:
    """Parse a comma-separated atom list as ``#atoms`` does; blank is the empty set."""
    parser = _Parser(_tokenize(text))
    names = parser.separated(parser.atom_name) if parser.peek() is not None else ()
    parser.finish()
    return frozenset(names)


def load_program(text: str) -> Program:
    """Parse, desugar, and clear negated constraints: the standard pipeline."""
    return eliminate_negated_catoms(parse(text))


# ---------------------------------------------------------------------------
# printers


def format_catom(catom: CAtom) -> str:
    """``bot`` for ``FALSE_CATOM``; otherwise ``[domain : sets]``, sets may be none."""
    if catom == FALSE_CATOM:
        return "bot"
    domain = ",".join(sorted(catom.domain))
    sets = ", ".join(
        "{%s}" % ",".join(s)
        for s in sorted((tuple(sorted(sol)) for sol in catom.solutions),
                        key=lambda t: (len(t), t)))
    return f"[{domain} : {sets}]"


def format_head_element(element: HeadElement) -> str:
    return element if isinstance(element, str) else format_catom(element)


def format_literal(literal: Literal) -> str:
    body = literal.item if literal.is_atom else format_catom(literal.item)
    return body if literal.positive else f"not {body}"


def format_rule(rule: Rule) -> str:
    head = " | ".join(format_head_element(e) for e in rule.head)
    if rule.body:
        return f"{head} :- {', '.join(format_literal(l) for l in rule.body)}."
    return f"{head}."


def format_program(program: Program) -> str:
    lines = []
    if program.declared_atoms:
        lines.append("#atoms %s." % ", ".join(sorted(program.declared_atoms)))
    lines.extend(format_rule(r) for r in program.rules)
    return "\n".join(lines) + ("\n" if lines else "")
