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

A ``relation`` line as ``serialize`` writes it is read from its skeleton.
After its name, one linear expression, ``([A-Za-z_][^@(),\\s]*)@``,
splits the line into its generator texts and a skeleton, the text with
each of them replaced by ``{}``: ``m@2(m@1(x1,x2),x3) - m@1(x1,m@2(x2,x3))``
gives ``{}@2({}@1(x1,x2),x3) - {}@1(x1,{}@2(x2,x3))``.  The generator
texts must be declared tokens.  A (skeleton, arities) pair is read once,
by the token loop in a parser of its own, on the skeleton filled with
stand-in generators of those arities, and the reading, each term's
coefficient, shape and slots in written order and the terms' coprime
integer coefficients, is kept only if printing those terms gives the
skeleton back.  A relation read so, its terms in canonical order, carries
that skeleton and those integers.  This is sound: the stand-in line
differs from the real line only in generator tokens of equal arity, which
the token loop reads only for their arity, and the relation name must be
a DSL relation name, which the token loop reads as written.  The readings
are kept in one ``functools`` cache, shared by every parse, since the
colorings of one relation share a skeleton; being a ``functools`` cache,
it is emptied with opdkit's others before the benchmark's cold set-ups.
Any other line, blanks, comments, CRLF endings and text not in that form
included, goes to the token loop on the line itself, so every
``ParseError``, message and span, is the token loop's on the text read.

The token loop splits each line into string tokens by one regular
expression, whose name token is ``trees``' name pattern; a token's kind is
its first character.  A leaf token (``x`` and digits) cannot be declared
as a generator.  Each term is read in one loop over its tokens, which
collects its flat form (the node kinds and the generators in preorder) and
its slots and builds the tree once.  Source spans are worked out only for
an error, by matching that line again.

Both formats print a relation from its skeleton (``Relation._skeleton``,
``presentation._terms_skeleton``): each term's coefficient written from
its numerator and denominator and then the format string of its (shape,
slots).  A relation carries it as derived state: a colored relation gets
its template's, a canonical line read here gets the skeleton it was just
checked against, and any other relation works it out on first print.  The
DSL fills the skeleton with the generators' stored texts.

JSON text is written directly in the layout of ``json.dumps(doc,
indent=2)``, whose indented form runs json's pure-Python encoder.  A
relation's terms array is its skeleton's layout (``_json_layout``), made
once per distinct skeleton and kept in a ``functools`` cache: per term, the
coefficient the skeleton writes, the tree's format string without its
slots and the slots it writes, with ``{}`` for each generator, filled with
the generators' texts.  Strings go through the C escaper that
``json.dumps`` uses under ``ensure_ascii``; generator texts need it only
when they hold a character outside printable ASCII, a quote or a
backslash.  ``presentation_to_json`` builds the document itself, and the
tests pin the output byte for byte against ``json.dumps`` of it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import islice
from json.encoder import encode_basestring_ascii as _json_string
from typing import Optional

from .presentation import (
    _RELATION_NAME,
    Presentation,
    Relation,
    Term,
    _integers,
    _ordered_relation,
    _term,
    _terms_skeleton,
)
from .trees import (
    _KIND_LEAF,
    _NAME_PATTERN,
    Generator,
    _flat_tree,
    _is_leaf_name,
    split_generator_token,
    tree_text,
)

__all__ = [
    "SourceSpan",
    "ParseError",
    "parse_presentation",
    "serialize",
    "presentation_to_json",
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
# tokens.
_TOKEN = re.compile(_NAME_PATTERN + r"|[0-9]+|#.*|[^ \t\r]")
_NAME_START = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_DIGITS = frozenset("0123456789")
# Any other first character is a one-character token the DSL does not have.
_TOKEN_START = _NAME_START | _DIGITS | frozenset("#@(),:+-*/")
_UNIT = {1: Fraction(1), -1: Fraction(-1)}
# The slot and leaf tokens of all but the largest terms, looked up before
# any other check of the token.
_SLOTS = {str(i): i for i in range(1, 65)}
_LEAVES = {i: f"x{i}" for i in range(1, 65)}


# A generator's text in a relation line as ``serialize`` writes it: a name
# start and the text up to the next '@'.
_GENERATOR_AT = re.compile(r"([A-Za-z_][^@(),\s]*)@")


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


class _Parser:
    """Reads a relation line in canonical form from its skeleton's cached
    reading, and any other line as its string tokens: a term's tokens in
    one loop, with an explicit stack of the vertices whose ``)`` is still
    to come, so each tree is built once, from its flat form."""

    def __init__(self, text: str):
        self.lines = text.split("\n")
        self.by_token: dict[str, Generator] = {}
        self.arity_of: dict[str, int] = {}
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
            if name is not None and line.startswith("relation "):
                relation = self._canonical_relation(line)
                if relation is not None:
                    relations.append(relation)
                    continue
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
                    if _is_leaf_name(tok):
                        raise self.fail(f"leaf {tok} declared as a generator", index)
                    if tok in by_token:
                        raise self.fail(f"duplicate generator {tok}", index)
                    gname, color, dualized = split_generator_token(tok)
                    gen = Generator(gname, arity, color, dualized)
                    by_token[tok] = gen
                    self.arity_of[tok] = arity
                    (unary if arity == 1 else binary).append(gen)
            else:
                raise self.fail("expected 'unary', 'binary' or 'relation'", 0)
        if name is None:
            raise ParseError("empty input: missing 'operad' header", SourceSpan(1, 1, 1))
        return Presentation(name, tuple(unary), tuple(binary), tuple(relations))

    def _canonical_relation(self, line: str) -> Optional[Relation]:
        """The relation of a ``relation`` line as ``serialize`` writes it,
        read from its skeleton's reading; ``None`` for any other line, which
        the token loop then reads.  See the module docstring for why the two
        agree."""
        colon = line.find(": ", 9)  # the name starts after "relation "
        name = line[9:colon]
        if colon < 0 or not _RELATION_NAME.fullmatch(name):
            return None
        pieces = _GENERATOR_AT.split(line[colon + 2:])
        names = pieces[1::2]
        arities = tuple(map(self.arity_of.get, names))
        if None in arities:
            return None
        skeleton = "{}@".join(pieces[0::2])
        reading = _skeleton_terms(skeleton, arities)
        if reading is None:
            return None
        parts, ints = reading
        by_token = self.by_token
        terms = []
        keys = []  # each term's Term.sort_key, flattened
        end = 0
        for coeff, shape, slots in parts:
            start, end = end, end + len(slots)
            tree = _flat_tree(shape, tuple(map(by_token.__getitem__, names[start:end])))
            terms.append(_term(coeff, tree, slots))
            keys.append((tree.arity, tree.weight, shape, tree._keys, slots, coeff))
        # Terms as serialize writes them are in canonical order already, and
        # then their skeleton and integer coefficients are the reading's.
        if sorted(keys) == keys:
            return _ordered_relation(name, tuple(terms), ints, skeleton)
        return Relation(name, tuple(terms))

    def _relation(self, tokens: list[str]) -> Relation:
        """The relation of a ``relation`` line's tokens, its terms sorted."""
        # The relation name is everything up to the colon; built presentations
        # carry color lists like assoc__1,2 there, so commas are allowed.
        n = len(tokens)
        fail = self.fail
        if n == 1 or tokens[1][0] not in _NAME_START:
            raise fail("expected a relation name", min(1, n - 1))
        if ":" not in tokens:
            raise fail("expected ':' after the relation name", n - 1)
        colon = tokens.index(":")
        if colon > 2:
            # The name's tokens must touch: ``a b`` is not the name ``ab``.
            line = self.line
            at = line.index(tokens[1], line.index("relation") + len("relation"))
            for index in range(1, colon):
                if not line.startswith(tokens[index], at):
                    raise fail("blank inside a relation name", index)
                at += len(tokens[index])
        return Relation("".join(tokens[1:colon]), tuple(self._terms(tokens, colon + 1)))

    def _terms(self, tokens: list[str], pos: int) -> list[Term]:
        """The terms of a relation line from its token ``pos`` on, in the
        order written."""
        n = len(tokens)
        fail = self.fail
        # A newline is never a token: past the last token, every check that
        # wants a token fails on it, and the error names the last token.
        tokens.append("\n")
        by_token = self.by_token
        terms: list[Term] = []
        while pos < n:
            tok = tokens[pos]
            sign = 1
            if tok == "-":
                sign = -1
                pos += 1
            elif terms:
                if tok != "+":
                    raise fail("expected '+' or '-' between terms", pos)
                pos += 1
            coeff = _UNIT[sign]
            if tokens[pos][0] in _DIGITS:
                num = self.integer(tokens[pos], pos)
                den = 1
                pos += 1
                if tokens[pos] == "/":
                    pos += 1
                    if tokens[pos][0] not in _DIGITS:
                        raise fail("expected a denominator", pos - 1)
                    den = self.integer(tokens[pos], pos)
                    if den == 0:
                        raise fail("zero denominator", pos)
                    pos += 1
                if tokens[pos] != "*":
                    raise fail("expected '*' after a coefficient", min(pos, n - 1))
                pos += 1
                coeff = Fraction(sign * num, den)

            # The term's tree, in preorder: node kinds, generators and slots.
            # ``open_vertices`` holds [token index, generator, children read]
            # for each vertex whose ')' is still to come.
            shape: list[int] = []
            gens: list[Generator] = []
            slots: list[int] = []
            open_vertices: list[list] = []
            next_leaf = 1
            while True:
                tok = tokens[pos]
                gen = by_token.get(tok)
                if gen is not None:
                    if tokens[pos + 1] != "@":
                        raise fail(f"missing '@slot' on {tok}", min(pos + 1, n - 1))
                    slot = _SLOTS.get(tokens[pos + 2])
                    if slot is None:
                        if tokens[pos + 2][0] not in _DIGITS:
                            raise fail("expected a slot index", min(pos + 2, n - 1))
                        slot = self.integer(tokens[pos + 2], pos + 2)
                        if slot < 1:
                            raise fail("slot indices start at 1", pos + 2)
                    if slot in slots:
                        raise fail(f"slot {slot} reused within a term", pos + 2)
                    if tokens[pos + 3] != "(":
                        raise fail("expected '(' after the slot", min(pos + 3, n - 1))
                    shape.append(gen.arity - 1)
                    gens.append(gen)
                    slots.append(slot)
                    open_vertices.append([pos, gen, 0])
                    pos += 4
                    continue
                # No declared generator has the form of a leaf.
                if tok != _LEAVES.get(next_leaf):
                    if pos == n:
                        raise fail("unexpected end of relation", n - 1)
                    if tok[0] not in _NAME_START:
                        raise fail("expected a generator or leaf", pos)
                    if not _is_leaf_name(tok):
                        raise fail(f"unknown generator {tok}", pos)
                    if self.integer(tok[1:], pos) != next_leaf:
                        raise fail(f"leaf-order violation: expected x{next_leaf}, got {tok}", pos)
                next_leaf += 1
                shape.append(_KIND_LEAF)
                pos += 1
                # Close each vertex whose last child this leaf ends, up to the
                # first with a child still to read.
                while open_vertices:
                    vertex = open_vertices[-1]
                    vertex[2] += 1
                    tok = tokens[pos]
                    pos += 1
                    if tok == ",":
                        break
                    if tok != ")":
                        if pos > n:
                            raise fail("unclosed '('", n - 1)
                        raise fail("expected ',' or ')'", pos - 1)
                    at, gen, children = vertex
                    if children != gen.arity:
                        raise fail(
                            f"arity mismatch: {tokens[at]} takes {gen.arity} arguments, "
                            f"got {children}",
                            at,
                        )
                    open_vertices.pop()
                else:
                    break
            terms.append(Term(coeff, _flat_tree(tuple(shape), tuple(gens)), tuple(slots)))
        if not terms:
            raise fail("relation has no terms", n - 1)
        return terms


# The generators a line skeleton is filled with, by arity.
_STAND_INS = {1: Generator("u", 1), 2: Generator("b", 2)}


@lru_cache(maxsize=4096)
def _skeleton_terms(skeleton: str, arities: tuple[int, ...]) -> Optional[tuple]:
    """The token loop's reading of the relation terms ``skeleton`` with its
    ``{}``s filled by generators of ``arities``: per term, in written order,
    its coefficient, shape and slots, and the terms' coprime integer
    coefficients (``_integers``); ``None`` unless the loop reads the
    skeleton filled with stand-in generators and printing the terms read
    gives the skeleton back."""
    parts = skeleton.split("{}")
    if len(parts) != len(arities) + 1:
        return None
    line = "relation r: " + parts[0] + "".join(
        [_STAND_INS[arity].text + part for arity, part in zip(arities, parts[1:])]
    )
    stand_in = _Parser(line)
    stand_in.by_token = {g.text: g for g in _STAND_INS.values()}
    stand_in.line, stand_in.lineno = line, 1
    try:
        terms = stand_in._terms(_lex_line(line, 1), 3)  # after "relation", "r" and ":"
    except ParseError:
        return None
    if _terms_skeleton(terms) != skeleton:
        return None
    parts = tuple([(term.coeff, term.tree.shape, term.slots) for term in terms])
    return parts, tuple(_integers([(coeff.numerator, coeff.denominator) for coeff, _, _ in parts]))


def parse_presentation(text: str) -> Presentation:
    return _Parser(text).parse()


def serialize(p: Presentation, fmt: str = "dsl") -> str:
    """Deterministic text: declaration-order generators, name-ordered relations,
    canonically ordered terms.  ``fmt`` is "dsl" or "json"."""
    if fmt == "json":
        return _json_text(p)
    if fmt != "dsl":
        raise ValueError(f"unknown format {fmt!r}")
    lines = [f"operad {p.name}"]
    if p.unary:
        lines.append("unary " + " ".join([g.text for g in p.unary]))
    if p.binary:
        lines.append("binary " + " ".join([g.text for g in p.binary]))
    for rel in p.relations:
        texts = [g.text for term in rel.terms for g in term.tree._gens]
        lines.append(f"relation {rel.name}: " + rel._skeleton.format(*texts))
    return "\n".join(lines) + "\n"


def presentation_to_json(p: Presentation) -> dict:
    """JSON document with canonical key order; trees rendered in canonical text
    with slots carried separately (one per internal vertex, preorder)."""
    return {
        "name": p.name,
        "unary": [g.text for g in p.unary],
        "binary": [g.text for g in p.binary],
        "relations": [
            {
                "name": rel.name,
                "terms": [
                    {
                        "coeff": str(term.coeff),
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


# A term of a skeleton: its coefficient's magnitude, unless it is 1, then
# its slotted tree's format string.
_SKELETON_TERM = re.compile(r"(?:([0-9]+(?:/[0-9]+)?)\*)?(.*)")
_SLOT = re.compile(r"@([0-9]+)")


@lru_cache(maxsize=4096)
def _json_layout(skeleton: str) -> str:
    """The JSON terms array of a relation whose skeleton is ``skeleton``, as
    ``_json_text`` lays it out, with ``{}`` for each generator's escaped
    text: per term, the coefficient is the sign and magnitude the skeleton
    writes, the tree is its format string without the slots, and the slots
    are the ones it writes after each ``@``."""
    words = skeleton.split(" ")  # a term, then a sign and a term per further term
    signs = ["-" if words[0][0] == "-" else ""] + ["-" if sign == "-" else "" for sign in words[1::2]]
    terms = []
    for sign, word in zip(signs, [words[0].removeprefix("-")] + words[2::2]):
        magnitude, tree = _SKELETON_TERM.fullmatch(word).groups()
        slots = _json_array(_SLOT.findall(tree), "          ")
        terms.append(
            f'{{{{\n          "coeff": "{sign}{magnitude or 1}",'
            f'\n          "tree": "{_SLOT.sub("", tree)}",'
            f'\n          "slots": {slots}'
            "\n        }}"
        )
    return _json_array(terms, "      ")


# Generator texts that JSON writes as they are: printable ASCII but '"' and '\\'.
_JSON_PLAIN = re.compile(r'[ !#-\[\]-~]*')


def _json_text(p: Presentation) -> str:
    """``json.dumps(presentation_to_json(p), indent=2) + "\\n"``, written
    directly: each relation's terms array is its skeleton's layout filled
    with its generators' texts."""
    relations = []
    for rel in p.relations:
        texts = [g.text for term in rel.terms for g in term.tree._gens]
        if not _JSON_PLAIN.fullmatch("".join(texts)):
            texts = [_json_string(text)[1:-1] for text in texts]
        relations.append(
            f'{{\n      "name": {_json_string(rel.name)},'
            f'\n      "terms": {_json_layout(rel._skeleton).format(*texts)}\n    }}'
        )
    unary = _json_array([_json_string(g.text) for g in p.unary], "  ")
    binary = _json_array([_json_string(g.text) for g in p.binary], "  ")
    return (
        f'{{\n  "name": {_json_string(p.name)},\n  "unary": {unary},\n  "binary": {binary},'
        f'\n  "relations": {_json_array(relations, "  ")}\n}}\n'
    )
