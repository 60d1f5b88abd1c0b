"""Text frontend: lexer, parser, sugar desugaring, and printers.

The rule language is propositional.  Atoms are opaque identifiers which may
carry a parenthesized constant list (``p(-1)`` is a single token).  Rule
heads are disjunctions of atoms, constraint atoms written
``[a,b : {}, {a}]``, weight/cardinality constraints (``1 {a, not b=2} 3``),
aggregates (``#sum{a=1} >= 2``), or ``bot``; bodies are conjunctions of the
same items, each optionally under ``not``.  ``#atoms`` declares extra
vocabulary.  ``%`` starts a line comment.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from typing import Union

from .core import (
    CAtom,
    HeadElement,
    Literal,
    FALSE_CATOM,
    Program,
    Rule,
    complement,
    head_atom_name,
    is_reserved,
    iter_subsets,
)
from .errors import ParseError, check_guard

_RELOPS = {">=": operator.ge, "<=": operator.le, "=": operator.eq,
           ">": operator.gt, "<": operator.lt}


# ---------------------------------------------------------------------------
# syntax nodes


@dataclass(frozen=True)
class CAtomSyntax:
    """A literal ``[domain : set, ...]`` expression."""

    domain: tuple[str, ...]
    sets: tuple[tuple[str, ...], ...]

    def to_catom(self) -> CAtom:
        return CAtom(frozenset(self.domain),
                     frozenset(frozenset(s) for s in self.sets))


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


@dataclass(frozen=True)
class BotSyntax:
    pass


BOT_SYNTAX = BotSyntax()

ElementSyntax = Union[str, CAtomSyntax, WeightConstraint, AggregateConstraint, BotSyntax]


@dataclass(frozen=True)
class BodyLiteralSyntax:
    negated: bool
    item: ElementSyntax


@dataclass(frozen=True)
class RuleStatement:
    head: tuple[ElementSyntax, ...]
    body: tuple[BodyLiteralSyntax, ...]
    line: int
    column: int


@dataclass(frozen=True)
class AtomsDirective:
    atoms: tuple[str, ...]
    line: int
    column: int


Statement = Union[RuleStatement, AtomsDirective]


@dataclass(frozen=True)
class SourceProgram:
    """Parsed statements; still carries sugar and source positions."""

    statements: tuple[Statement, ...]

    def to_program(self) -> Program:
        """Desugar into a core program (negated constraints are kept)."""
        rules = []
        declared: set[str] = set()
        for statement in self.statements:
            if isinstance(statement, AtomsDirective):
                declared.update(statement.atoms)
                continue
            head = tuple(_lower_head_element(e) for e in statement.head)
            body = tuple(_lower_body_literal(lit) for lit in statement.body)
            rules.append(Rule(head, body))
        return Program(tuple(rules), frozenset(declared))

    def text(self) -> str:
        return "\n".join(format_statement(s) for s in self.statements) + "\n"


def _lower_element(item: ElementSyntax) -> HeadElement:
    if isinstance(item, str):
        return item
    if isinstance(item, BotSyntax):
        return FALSE_CATOM
    if isinstance(item, CAtomSyntax):
        return item.to_catom()
    if isinstance(item, WeightConstraint):
        return desugar_weight(item)
    return desugar_aggregate(item)


def _lower_head_element(item: ElementSyntax) -> HeadElement:
    lowered = _lower_element(item)
    if isinstance(lowered, CAtom):
        # Elementary constraints in heads are spelled as their atom.
        name = head_atom_name(lowered)
        if name is not None:
            return name
    return lowered


def _lower_body_literal(lit: BodyLiteralSyntax) -> Literal:
    lowered = _lower_element(lit.item)
    if isinstance(lowered, str):
        return Literal.atom(lowered) if not lit.negated else Literal.negated_atom(lowered)
    if lit.negated:
        return Literal.negated_constraint(lowered)
    return Literal.constraint(lowered)


# ---------------------------------------------------------------------------
# desugaring


def desugar_weight(constraint: WeightConstraint) -> CAtom:
    """Enumerate the subsets whose satisfied-literal weight sum is in bounds."""
    check_guard("weight_entries", len(constraint.entries))
    domain = frozenset(e.atom for e in constraint.entries)
    solutions = []
    for candidate in iter_subsets(domain):
        total = sum(e.weight for e in constraint.entries
                    if (e.atom in candidate) != e.negated)
        if ((constraint.lower is None or constraint.lower <= total)
                and (constraint.upper is None or total <= constraint.upper)):
            solutions.append(candidate)
    return CAtom(domain, frozenset(solutions))


def desugar_aggregate(aggregate: AggregateConstraint) -> CAtom:
    """Enumerate the subsets whose sum (or count) satisfies the relation."""
    check_guard("weight_entries", len(aggregate.entries))
    domain = frozenset(a for a, _ in aggregate.entries)
    values = dict(aggregate.entries)
    relation = _RELOPS[aggregate.relation]
    solutions = []
    for candidate in iter_subsets(domain):
        if aggregate.kind == "sum":
            value = sum(values[a] for a in candidate)
        else:
            value = len(candidate)
        if relation(value, aggregate.bound):
            solutions.append(candidate)
    return CAtom(domain, frozenset(solutions))


def eliminate_negated_catoms(program: Program) -> Program:
    """Replace every negated body constraint by its complement."""
    rules = []
    for rule in program.rules:
        body = tuple(
            Literal.constraint(complement(lit.item))
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
            last = self.tokens[-1] if self.tokens else Token("", "", 1, 1)
            raise ParseError("unexpected end of input", last.line, last.column)
        self.pos += 1
        return token

    def expect(self, kind: str) -> Token:
        token = self.next()
        if token.kind != kind:
            raise ParseError(f"expected {kind!r}, found {token.value!r}",
                             token.line, token.column)
        return token

    def at(self, kind: str) -> bool:
        token = self.peek()
        return token is not None and token.kind == kind

    # grammar ---------------------------------------------------------------

    def program(self) -> SourceProgram:
        statements = []
        while self.peek() is not None:
            statements.append(self.statement())
        return SourceProgram(tuple(statements))

    def statement(self) -> Statement:
        token = self.peek()
        if token.kind == "#atoms":
            self.next()
            atoms = [self.atom_name()]
            while self.at(","):
                self.next()
                atoms.append(self.atom_name())
            self.expect(".")
            return AtomsDirective(tuple(atoms), token.line, token.column)
        statement = self.rule(token)
        self.expect(".")
        return statement

    def rule(self, first: Token) -> RuleStatement:
        head = [self.head_element()]
        while self.at("|"):
            self.next()
            head.append(self.head_element())
        body: list[BodyLiteralSyntax] = []
        if self.at(":-"):
            self.next()
            body.append(self.body_literal())
            while self.at(","):
                self.next()
                body.append(self.body_literal())
        return RuleStatement(tuple(head), tuple(body), first.line, first.column)

    def head_element(self) -> ElementSyntax:
        if self.at("bot"):
            self.next()
            return BOT_SYNTAX
        return self.constraint_or_atom()

    def body_literal(self) -> BodyLiteralSyntax:
        negated = False
        if self.at("not"):
            self.next()
            negated = True
        if self.at("bot"):
            self.next()
            return BodyLiteralSyntax(negated, BOT_SYNTAX)
        return BodyLiteralSyntax(negated, self.constraint_or_atom())

    def constraint_or_atom(self) -> ElementSyntax:
        token = self.peek()
        if token is None:
            raise ParseError("unexpected end of input", 1, 1)
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

    def catom(self) -> CAtomSyntax:
        opening = self.expect("[")
        domain: list[str] = []
        if self.at("atom"):
            domain.append(self.atom_name())
            while self.at(","):
                self.next()
                domain.append(self.atom_name())
        self.expect(":")
        sets = [self.atom_set(domain, opening)]
        while self.at(","):
            self.next()
            sets.append(self.atom_set(domain, opening))
        self.expect("]")
        return CAtomSyntax(tuple(domain), tuple(sets))

    def atom_set(self, domain: list[str], opening: Token) -> tuple[str, ...]:
        self.expect("{")
        atoms: list[str] = []
        if self.at("atom"):
            atoms.append(self.atom_name())
            while self.at(","):
                self.next()
                atoms.append(self.atom_name())
        self.expect("}")
        for atom in atoms:
            if atom not in domain:
                raise ParseError(f"set atom {atom!r} is outside the constraint domain",
                                 opening.line, opening.column)
        return tuple(atoms)

    def weight(self) -> WeightConstraint:
        lower = None
        if self.at("int"):
            lower = int(self.next().value)
        self.expect("{")
        entries = [self.weight_entry()]
        while self.at(","):
            self.next()
            entries.append(self.weight_entry())
        self.expect("}")
        upper = None
        if self.at("int"):
            upper = int(self.next().value)
        return WeightConstraint(tuple(entries), lower, upper)

    def weight_entry(self) -> WeightEntry:
        negated = False
        if self.at("not"):
            self.next()
            negated = True
        atom = self.atom_name()
        weight = 1
        if self.at("="):
            self.next()
            weight = int(self.expect("int").value)
        return WeightEntry(atom, weight, negated)

    def aggregate(self) -> AggregateConstraint:
        kind = self.next().kind.lstrip("#")
        self.expect("{")
        entries = [self.aggregate_entry()]
        while self.at(","):
            self.next()
            entries.append(self.aggregate_entry())
        self.expect("}")
        token = self.next()
        if token.kind not in _RELOPS:
            raise ParseError(f"expected a comparison, found {token.value!r}",
                             token.line, token.column)
        bound = int(self.expect("int").value)
        return AggregateConstraint(kind, tuple(entries), token.kind, bound)

    def aggregate_entry(self) -> tuple[str, int]:
        atom = self.atom_name()
        self.expect("=")
        value = int(self.expect("int").value)
        return (atom, value)


def parse(text: str) -> SourceProgram:
    """Parse program text; raises :class:`ParseError` with line and column."""
    return _Parser(_tokenize(text)).program()


def parse_constraint(text: str) -> CAtom:
    """Parse a single (possibly negated or sugared) constraint expression."""
    parser = _Parser(_tokenize(text))
    literal = parser.body_literal()
    if parser.peek() is not None:
        token = parser.peek()
        raise ParseError(f"trailing input {token.value!r}", token.line, token.column)
    lowered = _lower_element(literal.item)
    if isinstance(lowered, str):
        lowered = CAtom.elementary(lowered)
    if literal.negated:
        lowered = complement(lowered)
    return lowered


def parse_interpretation(text: str) -> frozenset[str]:
    """Parse a comma-separated atom list (empty string allowed)."""
    names = [part.strip() for part in text.split(",") if part.strip()]
    for name in names:
        if is_reserved(name):
            raise ParseError(f"atom name {name!r} uses a reserved prefix", 1, 1)
    return frozenset(names)


def load_program(text: str) -> Program:
    """Parse, desugar, and clear negated constraints: the standard pipeline."""
    return eliminate_negated_catoms(parse(text).to_program())


# ---------------------------------------------------------------------------
# printers


def format_catom(catom: CAtom) -> str:
    if catom.is_unsatisfiable:
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


def _format_weight_entry(entry: WeightEntry) -> str:
    text = f"not {entry.atom}" if entry.negated else entry.atom
    if entry.weight != 1:
        text += f"={entry.weight}"
    return text


def format_element_syntax(item: ElementSyntax) -> str:
    if isinstance(item, str):
        return item
    if isinstance(item, BotSyntax):
        return "bot"
    if isinstance(item, CAtomSyntax):
        domain = ",".join(sorted(item.domain))
        sets = ", ".join(
            "{%s}" % ",".join(s)
            for s in sorted((tuple(sorted(s)) for s in item.sets),
                            key=lambda t: (len(t), t)))
        return f"[{domain} : {sets}]"
    if isinstance(item, WeightConstraint):
        entries = ", ".join(
            _format_weight_entry(e)
            for e in sorted(item.entries, key=lambda e: (e.negated, e.atom)))
        text = "{%s}" % entries
        if item.lower is not None:
            text = f"{item.lower} {text}"
        if item.upper is not None:
            text = f"{text} {item.upper}"
        return text
    entries = ", ".join(f"{a}={v}" for a, v in sorted(item.entries))
    return f"#{item.kind}{{{entries}}} {item.relation} {item.bound}"


def format_statement(statement: Statement) -> str:
    if isinstance(statement, AtomsDirective):
        return "#atoms %s." % ", ".join(sorted(statement.atoms))
    head = " | ".join(format_element_syntax(e) for e in statement.head)
    if statement.body:
        body = ", ".join(
            ("not " if lit.negated else "") + format_element_syntax(lit.item)
            for lit in statement.body)
        return f"{head} :- {body}."
    return f"{head}."
