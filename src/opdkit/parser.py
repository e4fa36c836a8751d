"""Text DSL for presentations, plus canonical DSL/JSON serialization.

Grammar (one declaration per line, ``#`` starts a comment):

    presentation := "operad" NAME line*
    line         := ("unary" | "binary") NAME+
                  | "relation" NAME ":" term (("+" | "-") term)*
    term         := [coeff "*"] expr
    expr         := NAME "@" SLOT "(" expr ("," expr)* ")" | LEAF
    coeff        := INT | INT "/" INT
    SLOT         := INT
    LEAF         := "x" INT
    INT          := [0-9]+

Leaves are x1, x2, ... and must appear consecutively from x1 in strictly
increasing left-to-right order; every internal vertex carries a mandatory
slot annotation.  Generator names may carry a color (``m#1``), a dual
marker (``P^*``), or be tensor pairs (``m#1~prec``); a ``#`` directly
attached to a name is part of the name, otherwise it opens a comment.

Each line is split into string tokens by one regular expression; a token's
kind is its first character.  Source spans are worked out only for an
error, by matching that line again.

JSON text is written directly in the layout of ``json.dumps(doc,
indent=2)``, whose indented form runs json's pure-Python encoder; strings
go through the C escaper that ``json.dumps`` uses under ``ensure_ascii``.
The tests pin the output byte for byte against ``json.dumps``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from json.encoder import encode_basestring_ascii as _json_string
from typing import Optional

from .presentation import Presentation, Relation, Term
from .trees import Generator, Tree, leaf, tree_text

__all__ = [
    "SourceSpan",
    "ParseError",
    "parse_presentation",
    "serialize",
    "presentation_to_json",
    "split_generator_token",
]


@dataclass(frozen=True)
class SourceSpan:
    line: int
    column: int
    length: int

    def __str__(self) -> str:
        return f"{self.line}:{self.column}"


class ParseError(Exception):
    def __init__(self, message: str, span: SourceSpan):
        super().__init__(f"{span}: {message}")
        self.message = message
        self.span = span


# One match per token: a name, an integer, a comment (a detached ``#`` and
# the rest of the line) or any other single character; blanks separate
# tokens.  A name may hold an attached color ``#`` and a dual marker ``^*``;
# after a ``~``, or just before one, it also holds ``*`` (``m*~prec*``).
_TOKEN = re.compile(
    r"[A-Za-z_](?:[A-Za-z0-9_]|#(?=[A-Za-z0-9_~])|\^\*|\*(?=~))*"
    r"(?:~(?:[A-Za-z0-9_~*]|#(?=[A-Za-z0-9_~])|\^\*)*)?"
    r"|[0-9]+|#.*|[^ \t\r]"
)
_NAME_START = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_DIGITS = frozenset("0123456789")
# Any other first character is a one-character token the DSL does not have.
_TOKEN_START = _NAME_START | _DIGITS | frozenset("#@(),:+-*/")
_UNIT = {1: Fraction(1), -1: Fraction(-1)}
_LEAF = leaf()


def _lex_line(line: str, lineno: int) -> list[str]:
    """The tokens of one line, comment dropped; a token's kind is its first character."""
    tokens = _TOKEN.findall(line)
    if tokens and tokens[-1][0] == "#":
        tokens.pop()
    if not _TOKEN_START.issuperset([tok[0] for tok in tokens]):
        for match in _TOKEN.finditer(line):
            c = match.group()
            if c[0] not in _TOKEN_START:
                raise ParseError(f"lexical error: unexpected character {c!r}",
                                 SourceSpan(lineno, match.start() + 1, 1))
    return tokens


def _token_span(line: str, lineno: int, index: int) -> SourceSpan:
    """Span of the token at ``index`` of ``line``, found by lexing the line again."""
    match = next(islice(_TOKEN.finditer(line), index, None))
    return SourceSpan(lineno, match.start() + 1, match.end() - match.start())


def split_generator_token(token: str) -> tuple[str, Optional[str], bool]:
    """(name, color, dualized) of a generator token.

    A trailing ``^*`` is the dual flag; a ``#`` splits name from color except
    inside tensor names (those contain ``~`` and keep everything as name).
    """
    dualized = token.endswith("^*")
    if dualized:
        token = token[:-2]
    if "~" in token:
        return token, None, dualized
    name, sep, color = token.partition("#")
    return name, (color if sep else None), dualized


class _Parser:
    """Recursive descent over one line's string tokens at a time.

    Equal subtrees are built once per parse: ``subtrees`` maps (generator,
    children) to the tree, and the children come from that map, so a repeated
    subtree is found by identity instead of being rebuilt.
    """

    def __init__(self, text: str):
        self.lines = text.split("\n")
        self.by_token: dict[str, Generator] = {}
        self.subtrees: dict[tuple, Tree] = {}
        self.line = ""
        self.lineno = 0

    def fail(self, message: str, index: int) -> ParseError:
        """The error at token ``index`` of the current line."""
        return ParseError(message, _token_span(self.line, self.lineno, index))

    def integer(self, text: str, index: int) -> int:
        try:
            return int(text)
        except ValueError:  # longer than the interpreter converts
            raise self.fail(f"integer too long: {len(text)} digits", index) from None

    def parse(self) -> Presentation:
        name = None
        unary: list[Generator] = []
        binary: list[Generator] = []
        relations: list[Relation] = []
        by_token = self.by_token

        for lineno, line in enumerate(self.lines, start=1):
            tokens = _lex_line(line, lineno)
            if not tokens:
                continue
            self.line, self.lineno = line, lineno
            head = tokens[0]
            if name is None:
                if head != "operad":
                    raise self.fail("expected 'operad NAME' header", 0)
                if len(tokens) != 2 or tokens[1][0] not in _NAME_START:
                    raise self.fail("expected a single presentation name", len(tokens) - 1)
                name = tokens[1]
            elif head == "relation":
                relations.append(self._relation(tokens))
            elif head == "unary" or head == "binary":
                arity = 1 if head == "unary" else 2
                if len(tokens) == 1:
                    raise self.fail("expected generator names", 0)
                for index in range(1, len(tokens)):
                    tok = tokens[index]
                    if tok[0] not in _NAME_START:
                        raise self.fail("expected a generator name", index)
                    if tok in by_token:
                        raise self.fail(f"duplicate generator {tok}", index)
                    gname, color, dualized = split_generator_token(tok)
                    gen = Generator(gname, arity, color, dualized)
                    by_token[tok] = gen
                    (unary if arity == 1 else binary).append(gen)
            else:
                raise self.fail("expected 'unary', 'binary' or 'relation'", 0)
        if name is None:
            raise ParseError("empty input: missing 'operad' header", SourceSpan(1, 1, 1))
        return Presentation(name, tuple(unary), tuple(binary), tuple(relations))

    def _relation(self, tokens: list[str]) -> Relation:
        # The relation name is everything up to the colon; built presentations
        # carry color lists like assoc__1,2 there, so commas are allowed.
        n = len(tokens)
        if n == 1 or tokens[1][0] not in _NAME_START:
            raise self.fail("expected a relation name", min(1, n - 1))
        if ":" not in tokens:
            raise self.fail("expected ':' after the relation name", n - 1)
        colon = tokens.index(":")
        if colon > 2:
            # The name's tokens must touch: ``a b`` is not the name ``ab``.
            line = self.line
            at = line.index(tokens[1], line.index("relation") + len("relation"))
            for index in range(1, colon):
                if not line.startswith(tokens[index], at):
                    raise self.fail("blank inside a relation name", index)
                at += len(tokens[index])
        terms: list[Term] = []
        pos = colon + 1
        while pos < n:
            tok = tokens[pos]
            sign = 1
            if tok == "-":
                sign = -1
                pos += 1
            elif terms:
                if tok != "+":
                    raise self.fail("expected '+' or '-' between terms", pos)
                pos += 1
            coeff = _UNIT[sign]
            if pos < n and tokens[pos][0] in _DIGITS:
                num = self.integer(tokens[pos], pos)
                den = 1
                pos += 1
                if pos < n and tokens[pos] == "/":
                    pos += 1
                    if pos >= n or tokens[pos][0] not in _DIGITS:
                        raise self.fail("expected a denominator", pos - 1)
                    den = self.integer(tokens[pos], pos)
                    if den == 0:
                        raise self.fail("zero denominator", pos)
                    pos += 1
                if pos >= n or tokens[pos] != "*":
                    raise self.fail("expected '*' after a coefficient", min(pos, n - 1))
                pos += 1
                coeff = Fraction(sign * num, den)
            slots: list[int] = []
            tree, pos = self._tree(tokens, pos, slots)
            terms.append(Term(coeff, tree, tuple(slots)))
        if not terms:
            raise self.fail("relation has no terms", n - 1)
        return Relation("".join(tokens[1:colon]), tuple(terms))

    def _tree(self, tokens: list[str], start: int, slots: list[int]) -> tuple[Tree, int]:
        """One term body from ``start``; appends its slots in preorder to
        ``slots`` and returns (tree, next position)."""
        n = len(tokens)
        by_token, subtrees, fail = self.by_token, self.subtrees, self.fail
        next_leaf = 1

        def node(pos: int) -> tuple[Tree, int]:
            nonlocal next_leaf
            if pos >= n:
                raise fail("unexpected end of relation", n - 1)
            tok = tokens[pos]
            if tok[0] not in _NAME_START:
                raise fail("expected a generator or leaf", pos)
            if tok[0] == "x" and tok[1:].isdigit():
                if self.integer(tok[1:], pos) != next_leaf:
                    raise fail(f"leaf-order violation: expected x{next_leaf}, got {tok}", pos)
                next_leaf += 1
                return _LEAF, pos + 1
            gen = by_token.get(tok)
            if gen is None:
                raise fail(f"unknown generator {tok}", pos)
            at = pos
            pos += 1
            if pos >= n or tokens[pos] != "@":
                raise fail(f"missing '@slot' on {tok}", min(pos, n - 1))
            pos += 1
            if pos >= n or tokens[pos][0] not in _DIGITS:
                raise fail("expected a slot index", min(pos, n - 1))
            slot = self.integer(tokens[pos], pos)
            if slot < 1:
                raise fail("slot indices start at 1", pos)
            if slot in slots:
                raise fail(f"slot {slot} reused within a term", pos)
            slots.append(slot)
            pos += 1
            if pos >= n or tokens[pos] != "(":
                raise fail("expected '(' after the slot", min(pos, n - 1))
            children = []
            while True:
                child, pos = node(pos + 1)
                children.append(child)
                if pos >= n:
                    raise fail("unclosed '('", n - 1)
                if tokens[pos] == ")":
                    break
                if tokens[pos] != ",":
                    raise fail("expected ',' or ')'", pos)
            if len(children) != gen.arity:
                raise fail(
                    f"arity mismatch: {tok} takes {gen.arity} arguments, got {len(children)}",
                    at,
                )
            key = (gen, tuple(children))
            tree = subtrees.get(key)
            if tree is None:
                tree = subtrees[key] = Tree(gen, key[1])
            return tree, pos + 1

        return node(start)


def parse_presentation(text: str) -> Presentation:
    return _Parser(text).parse()


def _format_coeff(c: Fraction) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def _format_term(term: Term) -> str:
    body = tree_text(term.tree, term.slots)
    mag = abs(term.coeff)
    if mag == 1:
        return body
    return f"{_format_coeff(mag)}*{body}"


def serialize(p: Presentation, fmt: str = "dsl") -> str:
    """Deterministic text: declaration-order generators, name-ordered relations,
    canonically ordered terms.  ``fmt`` is "dsl" or "json"."""
    if fmt == "json":
        return _json_text(p)
    if fmt != "dsl":
        raise ValueError(f"unknown format {fmt!r}")
    lines = [f"operad {p.name}"]
    if p.unary:
        lines.append("unary " + " ".join(g.serialized() for g in p.unary))
    if p.binary:
        lines.append("binary " + " ".join(g.serialized() for g in p.binary))
    for rel in p.relations:
        parts = []
        for i, term in enumerate(rel.terms):
            rendered = _format_term(term)
            if i == 0:
                parts.append(("-" if term.coeff < 0 else "") + rendered)
            else:
                parts.append(("- " if term.coeff < 0 else "+ ") + rendered)
        lines.append(f"relation {rel.name}: " + " ".join(parts))
    return "\n".join(lines) + "\n"


def presentation_to_json(p: Presentation) -> dict:
    """JSON document with canonical key order; trees rendered in canonical text
    with slots carried separately (one per internal vertex, preorder)."""
    return {
        "name": p.name,
        "unary": [g.serialized() for g in p.unary],
        "binary": [g.serialized() for g in p.binary],
        "relations": [
            {
                "name": rel.name,
                "terms": [
                    {
                        "coeff": _format_coeff(term.coeff),
                        "tree": tree_text(term.tree),
                        "slots": list(term.slots),
                    }
                    for term in rel.terms
                ],
            }
            for rel in p.relations
        ],
    }


def _json_array(items: list[str], indent: str) -> str:
    """A JSON array of encoded items as ``json.dumps(indent=2)`` lays it out
    at nesting ``indent``."""
    if not items:
        return "[]"
    inner = indent + "  "
    return f"[\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}]"


def _json_text(p: Presentation) -> str:
    """``json.dumps(presentation_to_json(p), indent=2) + "\\n"``, written directly."""
    relations = []
    for rel in p.relations:
        terms = [
            f'{{\n          "coeff": {_json_string(_format_coeff(term.coeff))},'
            f'\n          "tree": {_json_string(tree_text(term.tree))},'
            f'\n          "slots": {_json_array([str(s) for s in term.slots], "          ")}'
            "\n        }"
            for term in rel.terms
        ]
        relations.append(
            f'{{\n      "name": {_json_string(rel.name)},'
            f'\n      "terms": {_json_array(terms, "      ")}\n    }}'
        )
    unary = _json_array([_json_string(g.serialized()) for g in p.unary], "  ")
    binary = _json_array([_json_string(g.serialized()) for g in p.binary], "  ")
    return (
        f'{{\n  "name": {_json_string(p.name)},\n  "unary": {unary},\n  "binary": {binary},'
        f'\n  "relations": {_json_array(relations, "  ")}\n}}\n'
    )
