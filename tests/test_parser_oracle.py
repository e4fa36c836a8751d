"""The DSL parser against the character-by-character reference parser.

Serialized presentations (the catalog entries and their lin, mat and tot at
1-3 colors; Koszul duals and Manin products, for ``^*`` and ``~`` in
generator names), the ``.opd`` files shipped in ``src/opdkit/data`` and the
malformed corpus are mutated by inserting, deleting and replacing
characters.  On each text both parsers must return equal presentations, or
raise a ``ParseError`` with the same message and span.
"""

import string
from functools import lru_cache
from pathlib import Path

import parser_reference as ref
from hypothesis import given, settings
from hypothesis import strategies as st

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
