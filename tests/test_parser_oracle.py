"""The DSL parser against the character-by-character reference parser.

Serialized presentations (the catalog entries and their lin, mat and tot at
1-3 colors; Koszul duals and Manin products, for ``^*`` and ``~`` in
generator names), the ``.opd`` files shipped in ``src/opdkit/data`` and the
malformed corpus are mutated by inserting, deleting and replacing
characters.  On each text both parsers must return equal presentations, or
raise a ``ParseError`` with the same message and span.

The parser reads a relation line as ``serialize`` writes it without its
token loop; on every relation line of the corpus that reading must be the
token loop's, and it must read every relation line ``serialize`` writes.
"""

import string
from functools import lru_cache
from pathlib import Path

import parser_reference as ref
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from rescaled import rescaled

from opdkit import parser
from opdkit.catalog import builtin, default_grid
from opdkit.compat import build_lin, build_mat, build_tot
from opdkit.duality import koszul_dual
from opdkit.manin import black_square
from opdkit.parser import ParseError, parse_presentation, serialize
from opdkit.presentation import ColorSet

ROOT = Path(__file__).resolve().parent.parent
# The DSL's characters, then blanks and two characters it never uses.
ALPHABET = string.ascii_letters + string.digits + "_#^*~@(),:+-/\n" + " \t!é"


@lru_cache(maxsize=None)
def texts() -> tuple[str, ...]:
    as_, dend = builtin("as"), builtin("dend")
    out = [
        serialize(black_square(koszul_dual(as_), dend)),  # m*~prec
        serialize(koszul_dual(black_square(as_, dend))),  # m~prec^*
    ]
    for folder in (ROOT / "src" / "opdkit" / "data", ROOT / "tests" / "malformed"):
        out.extend(path.read_text(encoding="utf-8") for path in sorted(folder.glob("*.opd")))
    for _, p in default_grid():
        out.append(serialize(p))
        if p.is_quadratic:
            out.append(serialize(koszul_dual(p)))
        for build in (build_lin, build_mat, build_tot):
            for k in (1, 2, 3):
                out.append(serialize(build(p, ColorSet.of(k))))
    return tuple(out)


def outcome(parse, text):
    try:
        return parse(text)
    except ParseError as error:
        return (error.message, error.span)


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_parser_agrees_with_the_reference_on_mutated_text(data):
    chars = list(data.draw(st.sampled_from(texts())))
    for _ in range(data.draw(st.integers(0, 4))):
        edit = data.draw(st.sampled_from(("insert", "delete", "replace")))
        if edit == "insert":
            chars.insert(data.draw(st.integers(0, len(chars))), data.draw(st.sampled_from(ALPHABET)))
        elif chars:
            at = data.draw(st.integers(0, len(chars) - 1))
            if edit == "delete":
                del chars[at]
            else:
                chars[at] = data.draw(st.sampled_from(ALPHABET))
    text = "".join(chars)
    assert outcome(parse_presentation, text) == outcome(ref.parse_presentation, text)


class _BothReadings(parser._Parser):
    """The parser, recording for each relation line the canonical-line
    reading and the token loop's (``None`` where the token loop fails)."""

    def __init__(self, text: str):
        super().__init__(text)
        self.readings = []

    def _canonical_relation(self, line):
        canonical = super()._canonical_relation(line)
        self.line = line
        try:
            loop = self._relation(parser._lex_line(line, self.lineno))
        except ParseError:
            loop = None
        self.readings.append((line, canonical, loop))
        return canonical


def readings(text):
    both = _BothReadings(text)
    try:
        both.parse()
    except ParseError:
        pass
    return both.readings


@lru_cache(maxsize=None)
def canonical_presentations():
    """The corpus texts that parse, as presentations."""
    out = []
    for text in texts():
        try:
            out.append(parse_presentation(text))
        except ParseError:
            pass
    return tuple(out)


def test_canonical_reading_is_the_token_loops_or_none():
    taken = 0
    for text in texts():
        for line, canonical, loop in readings(text):
            assert canonical is None or (loop is not None and canonical == loop), line
            taken += canonical is not None
    assert taken


def test_every_serialized_relation_line_is_read_canonically():
    lines = 0
    for p in canonical_presentations():
        text = serialize(p)
        for line, canonical, _ in readings(text):
            assert canonical is not None, line
            lines += 1
        assert parse_presentation(text) == p
    assert lines == sum(len(p.relations) for p in canonical_presentations()) > 1000


# The characters of a canonical relation line outside its names.
_STRUCTURE = frozenset("0123456789@(),+-/")


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_parser_agrees_with_the_reference_on_one_edit_inside_canonical_lines(data):
    # Rescaling gives most relations coefficients with a denominator.
    p = data.draw(st.sampled_from([p for p in canonical_presentations() if p.relations]))
    text = serialize(rescaled(data, p))
    lines = text.split("\n")
    at_line = data.draw(st.sampled_from([i for i, line in enumerate(lines) if line.startswith("relation ")]))
    line = lines[at_line]
    body = line.index(": ") + 2
    at = data.draw(st.sampled_from([i for i in range(body, len(line)) if line[i] in _STRUCTURE]))
    edit = data.draw(st.sampled_from(("insert", "delete", "replace")))
    # Half of the characters from the line's own structure, and digits of
    # other scripts, which int() converts and the DSL refuses.
    c = data.draw(st.sampled_from(ALPHABET) | st.sampled_from(sorted(_STRUCTURE) + ["*", "x", "\u0663"]))
    lines[at_line] = line[:at] + {"insert": c + line[at], "delete": "", "replace": c}[edit] + line[at + 1:]
    text = "\n".join(lines)
    assert outcome(parse_presentation, text) == outcome(ref.parse_presentation, text)


def test_canonical_lines_with_terms_out_of_order_read_sorted():
    # The right comb sorts after the left comb.
    text = "operad c\nbinary m\nrelation r: m@1(x1,m@2(x2,x3)) - 2*m@2(m@1(x1,x2),x3)\n"
    assert readings(text)[0][1] is not None
    assert parse_presentation(text) == ref.parse_presentation(text)


@pytest.mark.parametrize("terms", [
    "m@1(x1,x2) +5 m@1(x1,x2)", "m@1(x1,x2) -2/3 m@1(x1,x2)", "m@1(x1,x2) + -m@1(x1,x2)",
    "m@1(x1,x2)  + m@1(x1,x2)", "m@1(x1,x2) ++ m@1(x1,x2)", "m@1(x1,x2) +", "- m@1(x1,x2)",
    "+m@1(x1,x2)", "2*-m@1(x1,x2)", "m@1(x1,x2) + 2*m@1(x1,x2)*",
])
def test_signs_and_coefficients_out_of_form_agree_with_the_reference(terms):
    text = f"operad c\nbinary m\nrelation r: {terms}\n"
    assert outcome(parse_presentation, text) == outcome(ref.parse_presentation, text)
