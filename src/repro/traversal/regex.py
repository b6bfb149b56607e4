"""Parser for path-constraint regular expressions (§2.2).

The grammar from the survey is ``α ::= l | α·α | α∪α | α+ | α*`` with edge
labels as literal characters.  The surface syntax accepted here:

* labels: identifiers (letters, digits, ``_``, ``-``) or quoted strings;
* concatenation: ``·`` or ``.`` or simple juxtaposition;
* alternation: ``∪`` or ``|``;
* Kleene: postfix ``*`` and ``+``;
* grouping: parentheses.

Precedence (loosest to tightest): alternation, concatenation, Kleene.

The module also classifies a parsed constraint into the two query families
of §4 — alternation-based ``(l1 ∪ l2 ∪ ...)*`` and concatenation-based
``(l1 · l2 · ...)*`` — which is how :mod:`repro.core.oracle` dispatches to
LCR and RLC indexes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConstraintSyntaxError

__all__ = [
    "RegexNode",
    "LabelNode",
    "ConcatNode",
    "UnionNode",
    "StarNode",
    "PlusNode",
    "parse_constraint",
    "alternation_label_set",
    "concatenation_sequence",
    "classify_constraint",
    "regex_to_string",
]


class RegexNode:
    """Base class for path-constraint AST nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class LabelNode(RegexNode):
    """A single edge label literal."""

    label: str


@dataclass(frozen=True)
class ConcatNode(RegexNode):
    """``left · right``."""

    left: RegexNode
    right: RegexNode


@dataclass(frozen=True)
class UnionNode(RegexNode):
    """``left ∪ right``."""

    left: RegexNode
    right: RegexNode


@dataclass(frozen=True)
class StarNode(RegexNode):
    """``inner*`` — zero or more repeats."""

    inner: RegexNode


@dataclass(frozen=True)
class PlusNode(RegexNode):
    """``inner+`` — one or more repeats."""

    inner: RegexNode


_CONCAT_CHARS = {"·", "."}
_UNION_CHARS = {"∪", "|"}


def _tokenize(text: str) -> list[tuple[str, str]]:
    tokens: list[tuple[str, str]] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch == "(":
            tokens.append(("LPAREN", ch))
            i += 1
        elif ch == ")":
            tokens.append(("RPAREN", ch))
            i += 1
        elif ch == "*":
            tokens.append(("STAR", ch))
            i += 1
        elif ch == "+":
            tokens.append(("PLUS", ch))
            i += 1
        elif ch in _CONCAT_CHARS:
            tokens.append(("CONCAT", ch))
            i += 1
        elif ch in _UNION_CHARS:
            tokens.append(("UNION", ch))
            i += 1
        elif ch in "\"'":
            end = text.find(ch, i + 1)
            if end == -1:
                raise ConstraintSyntaxError(f"unterminated quote at position {i}")
            tokens.append(("LABEL", text[i + 1 : end]))
            i = end + 1
        elif ch.isalnum() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] in "_-"):
                j += 1
            tokens.append(("LABEL", text[i:j]))
            i = j
        else:
            raise ConstraintSyntaxError(f"unexpected character {ch!r} at position {i}")
    return tokens


class _Parser:
    """Recursive-descent parser over the token stream."""

    def __init__(self, tokens: list[tuple[str, str]]) -> None:
        self._tokens = tokens
        self._pos = 0

    def parse(self) -> RegexNode:
        node = self._union()
        if self._pos != len(self._tokens):
            kind, value = self._tokens[self._pos]
            raise ConstraintSyntaxError(f"trailing input at token {value!r}")
        return node

    def _peek(self) -> str | None:
        if self._pos < len(self._tokens):
            return self._tokens[self._pos][0]
        return None

    def _union(self) -> RegexNode:
        node = self._concat()
        while self._peek() == "UNION":
            self._pos += 1
            node = UnionNode(node, self._concat())
        return node

    def _concat(self) -> RegexNode:
        node = self._postfix()
        while True:
            kind = self._peek()
            if kind == "CONCAT":
                self._pos += 1
                node = ConcatNode(node, self._postfix())
            elif kind in ("LABEL", "LPAREN"):  # juxtaposition
                node = ConcatNode(node, self._postfix())
            else:
                return node

    def _postfix(self) -> RegexNode:
        node = self._atom()
        while True:
            kind = self._peek()
            if kind == "STAR":
                self._pos += 1
                node = StarNode(node)
            elif kind == "PLUS":
                self._pos += 1
                node = PlusNode(node)
            else:
                return node

    def _atom(self) -> RegexNode:
        kind = self._peek()
        if kind == "LABEL":
            _, value = self._tokens[self._pos]
            self._pos += 1
            return LabelNode(value)
        if kind == "LPAREN":
            self._pos += 1
            node = self._union()
            if self._peek() != "RPAREN":
                raise ConstraintSyntaxError("missing closing parenthesis")
            self._pos += 1
            return node
        raise ConstraintSyntaxError("expected a label or '('")


def parse_constraint(text: str | RegexNode) -> RegexNode:
    """Parse a path-constraint expression into an AST (idempotent)."""
    if isinstance(text, RegexNode):
        return text
    tokens = _tokenize(text)
    if not tokens:
        raise ConstraintSyntaxError("empty path constraint")
    return _Parser(tokens).parse()


def alternation_label_set(node: RegexNode) -> frozenset[str] | None:
    """If the constraint is alternation-based, its label set; else None.

    Alternation-based (§4.1) means ``(l1 ∪ l2 ∪ ...)*`` or the ``+``
    variant; a bare ``l*``/``l+`` counts with a singleton set.
    """
    if not isinstance(node, (StarNode, PlusNode)):
        return None
    labels: set[str] = set()
    stack = [node.inner]
    while stack:
        current = stack.pop()
        if isinstance(current, LabelNode):
            labels.add(current.label)
        elif isinstance(current, UnionNode):
            stack.append(current.left)
            stack.append(current.right)
        else:
            return None
    return frozenset(labels)


def concatenation_sequence(node: RegexNode) -> tuple[str, ...] | None:
    """If the constraint is concatenation-based, its label sequence; else None.

    Concatenation-based (§4.2) means ``(l1 · l2 · ...)*`` or the ``+``
    variant; the sequence under the Kleene operator is returned in order.
    """
    if not isinstance(node, (StarNode, PlusNode)):
        return None
    sequence: list[str] = []

    def flatten(current: RegexNode) -> bool:
        if isinstance(current, LabelNode):
            sequence.append(current.label)
            return True
        if isinstance(current, ConcatNode):
            return flatten(current.left) and flatten(current.right)
        return False

    if not flatten(node.inner):
        return None
    return tuple(sequence)


def classify_constraint(
    constraint: str | RegexNode, max_period: int | None = None
) -> tuple[str, RegexNode]:
    """Route a path constraint to the index family that can serve it.

    Returns ``(route, parsed)`` where ``route`` is ``"alternation"``
    (the §4.1 indexes apply), ``"concatenation"`` (the RLC index
    applies, subject to ``max_period`` when given), or ``"traversal"``
    (no Table 2 index covers the shape).  This is the §5 routing
    decision, shared between the in-process planner and the serving
    tier so both dispatch identically.
    """
    node = parse_constraint(constraint)
    if alternation_label_set(node) is not None:
        return "alternation", node
    sequence = concatenation_sequence(node)
    if sequence is not None and (max_period is None or len(sequence) <= max_period):
        return "concatenation", node
    return "traversal", node


def regex_to_string(node: RegexNode) -> str:
    """Render an AST back to surface syntax (canonical, fully parenthesised)."""
    if isinstance(node, LabelNode):
        return node.label
    if isinstance(node, ConcatNode):
        return f"({regex_to_string(node.left)} . {regex_to_string(node.right)})"
    if isinstance(node, UnionNode):
        return f"({regex_to_string(node.left)} | {regex_to_string(node.right)})"
    if isinstance(node, StarNode):
        return f"{regex_to_string(node.inner)}*"
    if isinstance(node, PlusNode):
        return f"{regex_to_string(node.inner)}+"
    raise TypeError(f"unknown node type {type(node).__name__}")
