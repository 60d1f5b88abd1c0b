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
elementary head constraints are flattened to their atom.  A negated
c-atom stays a negated literal; every route reads ``not A`` as A's
complement through ``core.literal_catom``.  :func:`format_program` prints a
loaded program so that it loads back unchanged.

The lexer is one ``findall`` of one pattern, which skips whitespace and
comments itself, and the parser reads the token kinds and values by
index.  A ``ParseError`` finds its token's line and column only when it is
raised, by scanning the text again.
"""

from __future__ import annotations

import re
from itertools import islice

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
    select,
    set_bits,
)
from .errors import ParseError, check_guard

# ---------------------------------------------------------------------------
# sugar


#: Each aggregate relation as the interval of totals it admits, given the
#: bound; None leaves a side open.
_INTERVALS = {">=": lambda b: (b, None), "<=": lambda b: (None, b), "=": lambda b: (b, b),
              ">": lambda b: (b + 1, None), "<": lambda b: (None, b - 1)}


def _linear_catom(atoms: list[str], const: int, delta: list[int],
                  low: int | None, high: int | None) -> CAtom:
    """The subsets of ``atoms`` whose total lies in ``[low, high]``.

    Subset mask k (``atoms`` sorted, atom ``atoms[i]`` at bit i) totals
    ``const`` plus ``delta[i]`` per atom in it.  Totals are built by
    doubling, one addition per subset, and bit k of the c-atom's table is
    whether total k is in the interval; a bound of None is open.
    """
    totals = [const]
    for d in delta:
        totals += [t + d for t in totals]
    low = min(totals) if low is None else low
    high = max(totals) if high is None else high
    bits = "".join(["01"[low <= t <= high] for t in reversed(totals)])
    return CAtom.from_table(atoms, int(bits, 2))


def desugar_weight(entries: list[tuple[str, int, bool]], lower: int | None = None,
                   upper: int | None = None) -> CAtom:
    """``lower { entries } upper``: the subsets whose satisfied-literal weight sum is in bounds.

    Each entry is ``(atom, weight, negated)``, and a missing bound is
    unbounded.  A negated entry counts when its atom is absent: its weight
    goes into the empty set's total and is taken off when the atom is added.
    """
    check_guard("weight_entries", len(entries))
    atoms = sorted({atom for atom, _, _ in entries})
    index = {a: i for i, a in enumerate(atoms)}
    const, delta = 0, [0] * len(atoms)
    for atom, weight, negated in entries:
        if negated:
            const += weight
            delta[index[atom]] -= weight
        else:
            delta[index[atom]] += weight
    return _linear_catom(atoms, const, delta, lower, upper)


def desugar_aggregate(kind: str, values: dict[str, int], relation: str, bound: int) -> CAtom:
    """The subsets whose ``"sum"`` of ``values`` (or ``"count"``) satisfies the relation."""
    check_guard("weight_entries", len(values))
    atoms = sorted(values)
    delta = [values[a] if kind == "sum" else 1 for a in atoms]
    return _linear_catom(atoms, 0, delta, *_INTERVALS[relation](bound))


# ---------------------------------------------------------------------------
# lexer

#: One token per match, with the whitespace and comments in front of it
#: skipped.  The groups are an operator or directive (its own kind), a word
#: (an atom or a keyword), an integer, and the rest: an unknown directive,
#: a stray character, or the empty end of input.  The last group matches
#: wherever the others fail, so the skip never backtracks into a comment.
_TOKEN_RE = re.compile(
    r"""
    (?:\s+|%[^\n]*)*
    (?: (\#(?:atoms|sum|count)\b|:-|>=|<=|[.,|:{}\[\]=><])
      | ([A-Za-z_][A-Za-z0-9_]*(?:\([A-Za-z0-9_,\-]*\))?)
      | (-?\d+)
      | (\#[A-Za-z_]*|.|\Z) )
    """,
    re.VERBOSE,
)

_KEYWORDS = {"not": "not", "bot": "bot"}


def _error(text: str, message: str, index: int) -> ParseError:
    """``message`` at token ``index`` of ``text`` (at 1:1 for index -1).

    The token's offset comes from scanning the text again; every newline
    lies in whitespace, so the newlines before that offset give its line.
    """
    offset = 0
    if index >= 0:
        match = next(islice(_TOKEN_RE.finditer(text), index, None))
        offset = match.start(match.lastindex)
    return ParseError(message, text.count("\n", 0, offset) + 1,
                      offset - text.rfind("\n", 0, offset))


def _tokenize(text: str) -> tuple[list[str], list[str]]:
    """The kinds and values of the tokens, ending in one token of kind ``""``.

    A kind is ``"atom"``, ``"int"``, ``"not"``, ``"bot"``, or the operator or
    directive itself.
    """
    kinds: list[str] = []
    values: list[str] = []
    for op, word, number, rest in _TOKEN_RE.findall(text):
        value = op or word or number
        if not value:
            if rest:
                problem = "unknown directive" if rest[0] == "#" else "unexpected character"
                raise _error(text, f"{problem} {rest!r}", len(kinds))
            break
        kinds.append(op or ("int" if number else _KEYWORDS.get(word, "atom")))
        values.append(value)
    kinds.append("")
    values.append("")
    return kinds, values


# ---------------------------------------------------------------------------
# parser


class _Parser:
    """Recursive descent over the token lists, read at index ``pos``."""

    def __init__(self, text: str):
        self.text = text
        self.kinds, self.values = _tokenize(text)
        self.pos = 0

    def unexpected(self, expected: str) -> ParseError:
        """The error for the current token; at the end, placed at the last token."""
        pos = self.pos
        if not self.kinds[pos]:
            return _error(self.text, "unexpected end of input", pos - 1)
        return _error(self.text, f"expected {expected}, found {self.values[pos]!r}", pos)

    def expect(self, kind: str) -> str:
        """The value of the current token, which must be of ``kind``; moves past it."""
        pos = self.pos
        if self.kinds[pos] != kind:
            raise self.unexpected(repr(kind))
        self.pos = pos + 1
        return self.values[pos]

    def finish(self) -> None:
        """Refuse any token left over after a complete parse."""
        pos = self.pos
        if self.kinds[pos]:
            raise _error(self.text, f"trailing input {self.values[pos]!r}", pos)

    def separated(self, item, separator: str = ",") -> list:
        """One ``item()`` or more, separated by ``separator`` tokens."""
        items = [item()]
        kinds = self.kinds
        while kinds[self.pos] == separator:
            self.pos += 1
            items.append(item())
        return items

    # grammar ---------------------------------------------------------------

    def program(self) -> Program:
        rules = []
        declared: set[str] = set()
        kinds = self.kinds
        while kinds[self.pos]:
            if kinds[self.pos] == "#atoms":
                self.pos += 1
                declared.update(self.separated(self.atom_name))
            else:
                rules.append(self.rule())
            self.expect(".")
        return Program(tuple(rules), frozenset(declared))

    def rule(self) -> Rule:
        head = self.separated(self.head_element, "|")
        body: list[Literal] = []
        if self.kinds[self.pos] == ":-":
            self.pos += 1
            body = self.separated(self.body_literal)
        return Rule(tuple(head), tuple(body))

    def head_element(self) -> HeadElement:
        # Elementary constraints in heads are spelled as their atom.
        element = self.element()
        return head_atom_name(element) or element

    def body_literal(self) -> Literal:
        negated = self.kinds[self.pos] == "not"
        self.pos += negated
        return Literal(not negated, self.element())

    def element(self) -> HeadElement:
        kind = self.kinds[self.pos]
        if kind == "atom":
            return self.atom_name()
        if kind == "bot":
            self.pos += 1
            return FALSE_CATOM
        if kind == "[":
            return self.catom()
        if kind == "int" or kind == "{":
            return self.weight()
        if kind == "#sum" or kind == "#count":
            return self.aggregate()
        raise self.unexpected("an atom or constraint")

    def atom_name(self) -> str:
        name = self.expect("atom")
        if is_reserved(name):
            raise _error(self.text, f"atom name {name!r} uses a reserved prefix",
                         self.pos - 1)
        return name

    def catom(self) -> CAtom:
        opening = self.pos
        self.pos += 1
        domain = frozenset(
            self.separated(self.atom_name) if self.kinds[self.pos] == "atom" else ())
        self.expect(":")
        sets = (self.separated(lambda: self.atom_set(domain, opening))
                if self.kinds[self.pos] == "{" else ())
        self.expect("]")
        return CAtom(domain, frozenset(sets))

    def atom_set(self, domain: frozenset[str], opening: int) -> frozenset[str]:
        self.expect("{")
        atoms = self.separated(self.atom_name) if self.kinds[self.pos] == "atom" else []
        self.expect("}")
        for atom in atoms:
            if atom not in domain:
                raise _error(self.text,
                             f"set atom {atom!r} is outside the constraint domain", opening)
        return frozenset(atoms)

    def weight(self) -> CAtom:
        lower = int(self.expect("int")) if self.kinds[self.pos] == "int" else None
        self.expect("{")
        entries = self.separated(self.weight_entry)
        self.expect("}")
        upper = int(self.expect("int")) if self.kinds[self.pos] == "int" else None
        return desugar_weight(entries, lower, upper)

    def weight_entry(self) -> tuple[str, int, bool]:
        negated = self.kinds[self.pos] == "not"
        self.pos += negated
        atom = self.atom_name()
        weight = 1
        if self.kinds[self.pos] == "=":
            self.pos += 1
            weight = int(self.expect("int"))
        return (atom, weight, negated)

    def aggregate(self) -> CAtom:
        kind = self.values[self.pos][1:]
        self.pos += 1
        self.expect("{")
        entries: dict[str, int] = {}
        for index, value in self.separated(self.aggregate_entry):
            atom = self.values[index]
            if atom in entries:
                raise _error(self.text, f"atom {atom!r} is listed twice in the aggregate", index)
            entries[atom] = value
        self.expect("}")
        relation = self.kinds[self.pos]
        if relation not in _INTERVALS:
            raise self.unexpected("a comparison")
        self.pos += 1
        bound = int(self.expect("int"))
        return desugar_aggregate(kind, entries, relation, bound)

    def aggregate_entry(self) -> tuple[int, int]:
        """The entry's atom token index and its value."""
        index = self.pos
        self.atom_name()
        self.expect("=")
        return (index, int(self.expect("int")))


def load_program(text: str) -> Program:
    """Parse and desugar program text, keeping negated c-atoms.

    Raises :class:`ParseError` with line and column.
    """
    return _Parser(text).program()


def parse_constraint(text: str) -> CAtom:
    """Parse a single (possibly negated or sugared) constraint expression."""
    parser = _Parser(text)
    literal = parser.body_literal()
    parser.finish()
    return literal_catom(literal)


def parse_interpretation(text: str) -> frozenset[str]:
    """Parse a comma-separated atom list as ``#atoms`` does; blank is the empty set."""
    parser = _Parser(text)
    names = parser.separated(parser.atom_name) if parser.kinds[0] else ()
    parser.finish()
    return frozenset(names)


# ---------------------------------------------------------------------------
# printers


def format_catom(catom: CAtom) -> str:
    """``bot`` for ``FALSE_CATOM``; otherwise ``[domain : sets]``, sets read off the table."""
    if catom == FALSE_CATOM:
        return "bot"
    sets = ", ".join(
        "{%s}" % ",".join(s)
        for s in sorted((select(catom.atoms, x) for x in set_bits(catom.table)),
                        key=lambda t: (len(t), t)))
    return f"[{','.join(catom.atoms)} : {sets}]"


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
