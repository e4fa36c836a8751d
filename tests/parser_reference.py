"""Character-by-character DSL parser: the test oracle for ``opdkit.parser``.

This is the lexer and recursive-descent parser ``opdkit.parser`` used before
its regular-expression lexer: each line is walked one character at a time,
every token carries its kind and source span, and the parser compares token
kinds.  Integers are ASCII digits, as in the library.  It shares no lexing or
parsing code with the parser it checks; only the error and span types and
``split_generator_token`` are the library's.
"""

from dataclasses import dataclass
from fractions import Fraction

from opdkit.parser import ParseError, SourceSpan, split_generator_token
from opdkit.presentation import Presentation, Relation, Term
from opdkit.trees import Generator, Tree, leaf


@dataclass(frozen=True)
class _Token:
    kind: str  # NAME, INT, punctuation kinds
    text: str
    span: SourceSpan


_DIGITS = set("0123456789")
_NAME_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_NAME_CHARS = _NAME_START | _DIGITS | {"~"}
_PUNCT = {"@": "AT", "(": "LPAREN", ")": "RPAREN", ",": "COMMA", ":": "COLON",
          "+": "PLUS", "-": "MINUS", "*": "STAR", "/": "SLASH"}


def _lex_line(text: str, lineno: int) -> list[_Token]:
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c in " \t\r":
            i += 1
            continue
        if c == "#":
            break  # a detached # opens a comment
        start = i
        if c in _NAME_START:
            i += 1
            while i < n:
                c = text[i]
                if c in _NAME_CHARS:
                    i += 1
                elif c == "#" and i + 1 < n and text[i + 1] in _NAME_CHARS:
                    i += 1  # attached color marker, e.g. m#1
                elif c == "^" and i + 1 < n and text[i + 1] == "*":
                    i += 2  # dual marker ^*
                elif c == "*" and (
                    "~" in text[start:i]
                    or (i + 1 < n and text[i + 1] == "~")
                ):
                    i += 1  # dual marker inside a tensor name, e.g. m*~prec
                else:
                    break
            tokens.append(
                _Token("NAME", text[start:i], SourceSpan(lineno, start + 1, i - start))
            )
        elif c in _DIGITS:
            i += 1
            while i < n and text[i] in _DIGITS:
                i += 1
            tokens.append(
                _Token("INT", text[start:i], SourceSpan(lineno, start + 1, i - start))
            )
        elif c in _PUNCT:
            tokens.append(_Token(_PUNCT[c], c, SourceSpan(lineno, start + 1, 1)))
            i += 1
        else:
            raise ParseError(f"lexical error: unexpected character {c!r}",
                             SourceSpan(lineno, start + 1, 1))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.lines = text.split("\n")

    def parse(self) -> Presentation:
        name = None
        unary: list[Generator] = []
        binary: list[Generator] = []
        relations: list[Relation] = []
        by_token: dict[str, Generator] = {}

        for lineno, raw in enumerate(self.lines, start=1):
            tokens = _lex_line(raw, lineno)
            if not tokens:
                continue
            head = tokens[0]
            if name is None:
                if head.kind != "NAME" or head.text != "operad":
                    raise ParseError("expected 'operad NAME' header", head.span)
                if len(tokens) != 2 or tokens[1].kind != "NAME":
                    raise ParseError("expected a single presentation name",
                                     tokens[-1].span)
                name = tokens[1].text
                continue
            if head.kind == "NAME" and head.text in ("unary", "binary"):
                arity = 1 if head.text == "unary" else 2
                if len(tokens) == 1:
                    raise ParseError("expected generator names", head.span)
                for tok in tokens[1:]:
                    if tok.kind != "NAME":
                        raise ParseError("expected a generator name", tok.span)
                    if tok.text[0] == "x" and tok.text[1:].isdigit():
                        raise ParseError(f"leaf {tok.text} declared as a generator", tok.span)
                    gname, color, dualized = split_generator_token(tok.text)
                    gen = Generator(gname, arity, color, dualized)
                    if tok.text in by_token:
                        raise ParseError(f"duplicate generator {tok.text}", tok.span)
                    by_token[tok.text] = gen
                    (unary if arity == 1 else binary).append(gen)
                continue
            if head.kind == "NAME" and head.text == "relation":
                relations.append(self._relation(tokens, by_token))
                continue
            raise ParseError(
                "expected 'unary', 'binary' or 'relation'", head.span
            )
        if name is None:
            raise ParseError("empty input: missing 'operad' header", SourceSpan(1, 1, 1))
        return Presentation(name, tuple(unary), tuple(binary), tuple(relations))

    def _relation(self, tokens: list[_Token], by_token: dict[str, Generator]) -> Relation:
        # The relation name is everything up to the colon; built presentations
        # carry color lists like assoc__1,2 there, so commas are allowed.
        pos = 1
        if pos >= len(tokens) or tokens[pos].kind != "NAME":
            raise ParseError("expected a relation name", tokens[min(pos, len(tokens) - 1)].span)
        name_parts = []
        while pos < len(tokens) and tokens[pos].kind != "COLON":
            name_parts.append(tokens[pos].text)
            pos += 1
        rel_name = "".join(name_parts)
        if pos >= len(tokens):
            raise ParseError("expected ':' after the relation name",
                             tokens[len(tokens) - 1].span)
        for prev, tok in zip(tokens[1:pos], tokens[2:pos]):
            if tok.span.column != prev.span.column + prev.span.length:
                raise ParseError("blank inside a relation name", tok.span)
        pos += 1

        terms: list[Term] = []
        sign = Fraction(1)
        first = True
        while pos < len(tokens):
            tok = tokens[pos]
            if first and tok.kind == "MINUS":
                sign = Fraction(-1)
                pos += 1
            elif not first:
                if tok.kind == "PLUS":
                    sign = Fraction(1)
                elif tok.kind == "MINUS":
                    sign = Fraction(-1)
                else:
                    raise ParseError("expected '+' or '-' between terms", tok.span)
                pos += 1
            coeff, pos = self._coefficient(tokens, pos)
            tree, slots, pos = self._expr(tokens, pos, by_token, rel_name)
            terms.append(Term(sign * coeff, tree, tuple(slots)))
            first = False
        if not terms:
            span = tokens[-1].span
            raise ParseError("relation has no terms", span)
        return Relation(rel_name, tuple(terms))

    def _coefficient(self, tokens: list[_Token], pos: int) -> tuple[Fraction, int]:
        if pos < len(tokens) and tokens[pos].kind == "INT":
            num_tok = tokens[pos]
            num = int(num_tok.text)
            pos += 1
            den = 1
            if pos < len(tokens) and tokens[pos].kind == "SLASH":
                pos += 1
                if pos >= len(tokens) or tokens[pos].kind != "INT":
                    raise ParseError("expected a denominator", tokens[pos - 1].span)
                den = int(tokens[pos].text)
                if den == 0:
                    raise ParseError("zero denominator", tokens[pos].span)
                pos += 1
            if pos >= len(tokens) or tokens[pos].kind != "STAR":
                raise ParseError("expected '*' after a coefficient",
                                 tokens[min(pos, len(tokens) - 1)].span)
            pos += 1
            return Fraction(num, den), pos
        return Fraction(1), pos

    def _expr(self, tokens, pos, by_token, rel_name):
        """Parse one term body; returns (tree, slot list, next position)."""
        used_slots: set[int] = set()
        expected_leaf = [1]

        def parse_node(pos: int) -> tuple[Tree, list[int], int]:
            if pos >= len(tokens):
                raise ParseError("unexpected end of relation", tokens[-1].span)
            tok = tokens[pos]
            if tok.kind != "NAME":
                raise ParseError("expected a generator or leaf", tok.span)
            if tok.text[0] == "x" and tok.text[1:].isdigit():
                idx = int(tok.text[1:])
                if idx != expected_leaf[0]:
                    raise ParseError(
                        f"leaf-order violation: expected x{expected_leaf[0]}, got {tok.text}",
                        tok.span,
                    )
                expected_leaf[0] += 1
                return leaf(), [], pos + 1
            gen = by_token.get(tok.text)
            if gen is None:
                raise ParseError(f"unknown generator {tok.text}", tok.span)
            pos += 1
            if pos >= len(tokens) or tokens[pos].kind != "AT":
                raise ParseError(f"missing '@slot' on {tok.text}",
                                 tokens[min(pos, len(tokens) - 1)].span)
            pos += 1
            if pos >= len(tokens) or tokens[pos].kind != "INT":
                raise ParseError("expected a slot index",
                                 tokens[min(pos, len(tokens) - 1)].span)
            slot = int(tokens[pos].text)
            if slot < 1:
                raise ParseError("slot indices start at 1", tokens[pos].span)
            if slot in used_slots:
                raise ParseError(f"slot {slot} reused within a term", tokens[pos].span)
            used_slots.add(slot)
            pos += 1
            if pos >= len(tokens) or tokens[pos].kind != "LPAREN":
                raise ParseError("expected '(' after the slot",
                                 tokens[min(pos, len(tokens) - 1)].span)
            pos += 1
            children = []
            child_slots: list[int] = []
            while True:
                child, slots, pos = parse_node(pos)
                children.append(child)
                child_slots.extend(slots)
                if pos >= len(tokens):
                    raise ParseError("unclosed '('", tokens[-1].span)
                if tokens[pos].kind == "COMMA":
                    pos += 1
                    continue
                if tokens[pos].kind == "RPAREN":
                    pos += 1
                    break
                raise ParseError("expected ',' or ')'", tokens[pos].span)
            if len(children) != gen.arity:
                raise ParseError(
                    f"arity mismatch: {tok.text} takes {gen.arity} arguments, got {len(children)}",
                    tok.span,
                )
            return Tree(gen, tuple(children)), [slot] + child_slots, pos

        return parse_node(pos)


def parse_presentation(text: str) -> Presentation:
    return _Parser(text).parse()
