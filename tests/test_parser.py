"""DSL parsing, serialization round-trips, diagnostics, JSON schema."""

import json
import random
import re
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from opdkit.catalog import builtin, default_grid
from opdkit.compat import build_lin, build_mat, build_tot
from opdkit.duality import koszul_dual
from opdkit.manin import black_square, white_square
from opdkit.parser import ParseError, parse_presentation, presentation_to_json, serialize
from opdkit.presentation import ColorSet, validate
from opdkit.trees import split_generator_token

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "src" / "opdkit" / "data"
MALFORMED = Path(__file__).resolve().parent / "malformed"


def test_parse_assoc_example():
    src = (
        "operad as\n"
        "binary m\n"
        "relation assoc: m@2(m@1(x1,x2),x3) - m@1(x1,m@2(x2,x3))\n"
    )
    assert parse_presentation(src) == builtin("as")
    assert serialize(builtin("as")) == src


def test_parse_rba0_file_matches_builtin():
    text = (DATA / "rba0.opd").read_text()
    assert parse_presentation(text) == builtin("rba0")


def test_comments_and_blank_lines():
    src = (
        "# leading comment\n"
        "operad as  # trailing\n"
        "\n"
        "binary m\n"
        "relation assoc: m@2(m@1(x1,x2),x3) - m@1(x1,m@2(x2,x3))  # note\n"
    )
    assert parse_presentation(src) == builtin("as")


def test_coefficients_parse():
    src = (
        "operad c\n"
        "binary m\n"
        "relation r: 2*m@2(m@1(x1,x2),x3) - 1/3*m@1(x1,m@2(x2,x3))\n"
    )
    rel = parse_presentation(src).relations[0]
    assert sorted(t.coeff for t in rel.terms) == [Fraction(-1, 3), Fraction(2)]


def test_split_generator_token():
    assert split_generator_token("m") == ("m", None, False)
    assert split_generator_token("m#1") == ("m", "1", False)
    assert split_generator_token("P^*") == ("P", None, True)
    assert split_generator_token("P#2^*") == ("P", "2", True)
    assert split_generator_token("m#1~prec") == ("m#1~prec", None, False)
    assert split_generator_token("m*~prec*^*") == ("m*~prec*", None, True)


def test_colored_and_dual_names_roundtrip_bytes():
    src = (
        "operad t\n"
        "unary P#1^* P#2^*\n"
        "binary m#1^* m#2^*\n"
        "relation r: m#1^*@2(m#2^*@1(x1,x2),x3) - m#2^*@1(x1,m#1^*@2(x2,x3))\n"
    )
    assert serialize(parse_presentation(src)) == src


@pytest.mark.parametrize("path", sorted(DATA.glob("*.opd")))
def test_all_shipped_files_roundtrip(path):
    text = path.read_text()
    parsed = parse_presentation(text)
    assert validate(parsed).ok
    again = serialize(parsed)
    assert parse_presentation(again) == parsed
    assert serialize(parse_presentation(again)) == again


def test_built_and_derived_presentations_roundtrip():
    two = ColorSet.of(2)
    rba = builtin("rba0")
    objects = [
        build_lin(rba, two),
        build_mat(builtin("dend"), two),
        build_tot(rba, two),
        koszul_dual(builtin("multi_diff", 2)),
        black_square(build_lin(builtin("as"), two), builtin("dend")),
        white_square(build_mat(builtin("as"), two), builtin("as"), "white_dual"),
        koszul_dual(black_square(builtin("as"), builtin("as"))),
    ]
    for pres in objects:
        text = serialize(pres)
        assert serialize(parse_presentation(text)) == text


# (line, column, length, message) of each corpus file's diagnostic
EXPECTED_SPANS = {
    "01_bad_char.opd": (3, 32, 1, "lexical error: unexpected character '$'"),
    "02_unknown_generator.opd": (3, 13, 1, "unknown generator n"),
    "03_leaf_order_swap.opd": (3, 17, 2, "leaf-order violation: expected x1, got x2"),
    "04_leaf_gap.opd": (3, 28, 2, "leaf-order violation: expected x3, got x4"),
    "05_slot_reuse.opd": (3, 19, 1, "slot 1 reused within a term"),
    "06_unary_with_two_args.opd": (4, 13, 1, "arity mismatch: P takes 1 arguments, got 2"),
    "07_binary_with_one_arg.opd": (3, 13, 1, "arity mismatch: m takes 2 arguments, got 1"),
    "08_missing_colon.opd": (3, 21, 1, "expected ':' after the relation name"),
    "09_zero_denominator.opd": (3, 15, 1, "zero denominator"),
    "10_duplicate_generator.opd": (2, 10, 1, "duplicate generator m"),
    "11_missing_header.opd": (1, 1, 6, "expected 'operad NAME' header"),
    "12_unknown_keyword.opd": (2, 1, 7, "expected 'unary', 'binary' or 'relation'"),
    "13_missing_paren.opd": (3, 17, 2, "expected '(' after the slot"),
    "14_unclosed_paren.opd": (3, 20, 2, "unclosed '('"),
    "15_missing_slot.opd": (3, 14, 1, "missing '@slot' on m"),
    "16_empty_relation.opd": (3, 11, 1, "relation has no terms"),
    "17_slot_zero.opd": (3, 15, 1, "slot indices start at 1"),
    "18_nonnumeric_slot.opd": (3, 15, 1, "expected a slot index"),
    "19_first_leaf_not_x1.opd": (3, 17, 2, "leaf-order violation: expected x1, got x2"),
    "20_missing_coeff_star.opd": (3, 15, 1, "expected '*' after a coefficient"),
    "21_non_ascii_digit.opd": (3, 13, 1, "lexical error: unexpected character '\u00b2'"),
    "22_duplicate_relation_name.opd": (3, 12, 1, "blank inside a relation name"),
    "23_leaf_named_generator.opd": (2, 9, 2, "leaf x2 declared as a generator"),
}


def test_malformed_corpus_complete():
    assert sorted(p.name for p in MALFORMED.glob("*.opd")) == sorted(EXPECTED_SPANS)


@pytest.mark.parametrize("name", sorted(EXPECTED_SPANS))
def test_malformed_rejected_with_span(name):
    text = (MALFORMED / name).read_text(encoding="utf-8")
    with pytest.raises(ParseError) as excinfo:
        parse_presentation(text)
    error = excinfo.value
    line, column, length, message = EXPECTED_SPANS[name]
    assert (error.span.line, error.span.column, error.span.length) == (line, column, length)
    assert error.message == message
    assert str(error) == f"{line}:{column}: {message}"


HEADER = "operad c\nbinary m\n"
TERM = "m@1(x1,x2)"


@pytest.mark.parametrize(
    "name,column,length",
    [("a b", 12, 1), ("a ,b", 12, 1), ("a, b", 13, 1), ("a\tb", 12, 1), ("x_1 , 2 ,3", 14, 1)],
    ids=["blank", "blank-before-comma", "blank-after-comma", "tab", "later-blank"],
)
def test_relation_name_with_a_blank_is_rejected_at_its_second_part(name, column, length):
    with pytest.raises(ParseError) as excinfo:
        parse_presentation(HEADER + f"relation {name}: {TERM}\n")
    error = excinfo.value
    assert error.message == "blank inside a relation name"
    assert (error.span.line, error.span.column, error.span.length) == (3, column, length)


def test_comma_relation_names_still_parse():
    text = HEADER + f"  relation   assoc__1,2  : {TERM}\nrelation b__T_0_1,2: {TERM}\n"
    assert [r.name for r in parse_presentation(text).relations] == ["assoc__1,2", "b__T_0_1,2"]


def test_duplicate_relation_names_parse_but_do_not_validate():
    assoc = "m@2(m@1(x1,x2),x3)"
    p = parse_presentation(HEADER + f"relation ab: {assoc}\nrelation ab: 2*{assoc}\n")
    assert validate(p).problems == ["duplicate relation name ab"]
LONG = "1" * 5000


@pytest.mark.parametrize(
    "body,column,length,message",
    [
        ("\u00b2*m@1(x1,x2)", 13, 1, "lexical error: unexpected character '\u00b2'"),
        ("\u0663*m@1(x1,x2)", 13, 1, "lexical error: unexpected character '\u0663'"),
        ("2\u0663*m@1(x1,x2)", 14, 1, "lexical error: unexpected character '\u0663'"),
        ("1/2\u0663*m@1(x1,x2)", 16, 1, "lexical error: unexpected character '\u0663'"),
        ("m@1\u0663(x1,x2)", 16, 1, "lexical error: unexpected character '\u0663'"),
        (f"{LONG}*m@1(x1,x2)", 13, 5000, "integer too long: 5000 digits"),
        (f"m@{LONG}(x1,x2)", 15, 5000, "integer too long: 5000 digits"),
        (f"m@1(x{LONG},x2)", 17, 5001, "integer too long: 5000 digits"),
    ],
    ids=["superscript-two", "arabic-indic-three", "arabic-indic-three-in-a-coefficient",
         "arabic-indic-three-in-a-denominator", "arabic-indic-three-in-a-slot",
         "long-coefficient", "long-slot", "long-leaf"],
)
def test_integers_are_ascii_digits_the_interpreter_converts(body, column, length, message):
    """Digits outside 0-9 are lexical errors; an integer ``int`` refuses is a ParseError."""
    if "integer too long" in message and not getattr(sys, "get_int_max_str_digits", lambda: 0)():
        pytest.skip("this interpreter converts integers of any length")
    with pytest.raises(ParseError) as excinfo:
        parse_presentation(HEADER + "relation r: " + body + "\n")
    error = excinfo.value
    assert (error.span.line, error.span.column, error.span.length) == (3, column, length)
    assert error.message == message


@settings(max_examples=500, deadline=None)
@given(
    st.sampled_from(["", HEADER, HEADER + "unary P\nrelation r: "]),
    # DSL characters, digits and numerals of every script (such as the
    # Arabic-Indic three and the superscript two) and any other character
    st.text(st.one_of(
        st.sampled_from("x0123456789m@(),:+-*/#^~ \n"),
        st.characters(categories=["Nd", "No"]),
        st.characters(),
    )),
)
def test_arbitrary_text_raises_only_parse_errors(prefix, text):
    try:
        parse_presentation(prefix + text)
    except ParseError:
        pass


def test_json_output_validates_against_schema():
    jsonschema = pytest.importorskip("jsonschema")
    schema = json.loads((ROOT / "schema" / "presentation.json").read_text())
    for key, param in [("as", None), ("rba0", None), ("multi_diff", 2), ("d1d2", None)]:
        pres = builtin(key, param) if param else builtin(key)
        document = presentation_to_json(pres)
        jsonschema.validate(document, schema)
    two = ColorSet.of(2)
    jsonschema.validate(presentation_to_json(build_tot(builtin("rba0"), two)), schema)
    jsonschema.validate(
        presentation_to_json(koszul_dual(builtin("d1d2"))), schema
    )


def test_json_is_deterministic():
    a = serialize(builtin("rba0"), "json")
    b = serialize(builtin("rba0"), "json")
    assert a == b
    assert json.loads(a)["name"] == "rba0"


# --- randomized round trips ---

from opdkit.presentation import Presentation, Relation, Term
from opdkit.trees import Generator, Tree, corolla, enumerate_basis, leaf


def _random_presentation(rng: random.Random) -> Presentation:
    n_unary = rng.randint(0, 2)
    n_binary = rng.randint(1, 2)
    unary = []
    binary = []
    for i in range(n_unary):
        color = rng.choice([None, str(rng.randint(1, 3))])
        unary.append(Generator(f"u{i}", 1, color, rng.random() < 0.3))
    for i in range(n_binary):
        color = rng.choice([None, str(rng.randint(1, 3))])
        binary.append(Generator(f"b{i}", 2, color, rng.random() < 0.3))
    gens = unary + binary
    gradings = [(a, w) for a in (1, 2, 3, 4) for w in (2, 3)]
    relations = []
    for r in range(rng.randint(1, 3)):
        rng.shuffle(gradings)
        for arity, weight in gradings:
            basis = enumerate_basis(gens, arity, weight).basis
            if basis:
                break
        else:
            continue
        # every tree of this grading has weight-(arity-1) unary vertices and
        # arity-1 binary ones, so a fixed split of the labels stays
        # arity-consistent across terms
        unary_count = weight - (arity - 1)
        perm = list(range(1, weight + 1))
        rng.shuffle(perm)
        unary_labels, binary_labels = perm[:unary_count], perm[unary_count:]
        terms = []
        for tree in rng.sample(basis, k=min(len(basis), rng.randint(1, 3))):
            slots = [0] * weight
            it_unary, it_binary = iter(unary_labels), iter(binary_labels)
            for pos, g in enumerate(tree.internal_generators()):
                slots[pos] = next(it_unary if g.arity == 1 else it_binary)
            coeff = 0
            while coeff == 0:
                coeff = rng.randint(-4, 4)
            from fractions import Fraction

            terms.append(Term(Fraction(coeff, rng.randint(1, 3)), tree, tuple(slots)))
        relations.append(Relation(f"r{r}", tuple(terms)))
    return Presentation("rand", tuple(unary), tuple(binary), tuple(relations))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_random_presentations_roundtrip(seed):
    rng = random.Random(seed)
    pres = _random_presentation(rng)
    if not validate(pres).ok:
        # the random slot profile above is consistent by construction; any
        # rejection here would be a generator bug worth seeing
        raise AssertionError(str(validate(pres)))
    text = serialize(pres)
    assert parse_presentation(text) == pres
    assert serialize(parse_presentation(text)) == text


# --- JSON text against json.dumps ---


def _json_reference(p: Presentation) -> str:
    """What ``serialize(p, "json")`` must write, byte for byte."""
    return json.dumps(presentation_to_json(p), indent=2) + "\n"


def _quadratic_catalog() -> list[Presentation]:
    grid = [p for _, p in default_grid()] + [builtin("multi_diff", n) for n in (1, 3)]
    return [p for p in grid if all(rel.weight == 2 for rel in p.relations)]


def test_json_matches_json_dumps_on_koszul_duals():
    duals = [koszul_dual(p) for p in _quadratic_catalog()]
    assert len(duals) >= 5
    for dual in duals:
        assert serialize(dual, "json") == _json_reference(dual), dual.name


def test_json_matches_json_dumps_on_products():
    for a in ("as", "dend"):
        for b in ("as", "dend"):
            left, right = builtin(a), builtin(b)
            for product in (black_square(left, right), white_square(left, right, "white_dual"),
                            white_square(left, right, "white_literal")):
                assert serialize(product, "json") == _json_reference(product), (a, b)


def test_json_writes_empty_lists():
    d, m = Generator("d", 1), Generator("m", 2)
    free = Presentation("free", (d,), (m,), ())
    assert '"relations": []' in serialize(free, "json")
    assert '"unary": []' in serialize(builtin("as"), "json")
    for p in (free, builtin("as"), Presentation("empty", (), (), ())):
        assert serialize(p, "json") == _json_reference(p)


# Quotes, backslashes, control characters, non-ASCII letters and digits, a
# line separator and a character outside the basic plane.
_AWKWARD_TEXT = st.text(
    st.sampled_from(['"', "\\", "/", "\n", "\t", "\x00", "\x1f", "\x7f", "é", "፩", " ", "😀", "a", " "])
    | st.characters(),
    max_size=6,
)


@st.composite
def _named_presentations(draw) -> Presentation:
    unary = tuple(Generator(name, 1) for name in draw(st.lists(_AWKWARD_TEXT, max_size=2)))
    binary = tuple(Generator(name, 2) for name in draw(st.lists(_AWKWARD_TEXT, max_size=2)))
    trees = st.just(leaf())
    if unary or binary:
        trees = st.recursive(
            trees,
            lambda sub: st.sampled_from(unary + binary).flatmap(
                lambda g: st.tuples(*[sub] * g.arity).map(lambda ch, g=g: Tree(g, ch))
            ),
            max_leaves=3,
        )

    def term(tree: Tree):
        coeffs = st.fractions(-9, 9, max_denominator=4).filter(bool)
        slots = st.permutations(range(1, tree.weight + 1)).map(tuple)
        return st.builds(Term, coeffs, st.just(tree), slots)

    relations = st.builds(
        Relation, _AWKWARD_TEXT, st.lists(trees.flatmap(term), min_size=1, max_size=3).map(tuple)
    )
    return Presentation(draw(_AWKWARD_TEXT), unary, binary,
                        tuple(draw(st.lists(relations, max_size=3))))


@settings(max_examples=150, deadline=None)
@given(_named_presentations())
def test_json_matches_json_dumps_on_arbitrary_names(p):
    assert serialize(p, "json") == _json_reference(p)


# --- names the DSL reads back ---

# DSL characters, including those only names may hold, a blank and a colon.
_DSL_TEXT = st.text(st.sampled_from("xmP_019#~*^@,:(/ -"), max_size=5)
# Names the DSL reads back, and besides them leaf forms, a name holding
# ``#``, other DSL text and awkward text.
_GOOD_NAMES = st.sampled_from(["m", "P", "d1", "_q", "x", "x_2", "m~prec", "m*~prec*", "m#1~prec", "P^*Q"])
_NAMES = st.one_of(_GOOD_NAMES, st.sampled_from(["x2", "x01", "a#b"]), _DSL_TEXT, _AWKWARD_TEXT)


@st.composite
def _presentations_with_names(draw) -> Presentation:
    """Presentations whose relations validate (two terms of weight 2 on two
    generators) and whose names are drawn from ``_GOOD_NAMES``, or, in half
    of them, from ``_NAMES``."""
    good = draw(st.booleans())
    names = _GOOD_NAMES if good else _NAMES
    colors = st.sampled_from(["1", "b_2"]) if good else _NAMES

    def generator(arity: int) -> Generator:
        name = draw(names)
        # A tensor name carries its colors inside; one more does not read back.
        color = None if good and "~" in name else draw(st.none() | colors)
        return Generator(name, arity, color, draw(st.booleans()))

    unary = tuple(generator(1) for _ in range(draw(st.integers(0, 2))))
    binary = tuple(generator(2) for _ in range(draw(st.integers(0 if unary else 1, 2))))
    relations = []
    for _ in range(draw(st.integers(1, 2))):
        outer, inner = draw(st.lists(st.sampled_from(unary + binary), min_size=2, max_size=2))
        # outer@1(inner@2(...)) and inner@2(outer@1(...)): one slot per
        # generator, so the two terms agree on each slot's arity.
        terms = tuple(
            Term(draw(st.fractions(-9, 9, max_denominator=4).filter(bool)),
                 Tree(top, (corolla(below),) + (leaf(),) * (top.arity - 1)), slots)
            for top, below, slots in ((outer, inner, (1, 2)), (inner, outer, (2, 1)))
        )
        name = draw(st.sampled_from(["r", "assoc__1,2", "b__T_0_1,2", "a(b"]) if good else names)
        relations.append(Relation(name, terms[: draw(st.integers(1, 2))]))
    return Presentation(draw(names), unary, binary, tuple(relations))


@settings(max_examples=200, deadline=None)
@given(_presentations_with_names())
@example(Presentation("leafy", (Generator("x2", 1),), (), (
    Relation("r", (Term(Fraction(1), Tree(Generator("x2", 1), (corolla(Generator("x2", 1)),)),
                        (1, 2)),)),
)))
def test_valid_presentations_round_trip(p):
    text = serialize(p)
    if validate(p).ok:
        assert parse_presentation(text) == p
        assert serialize(parse_presentation(text)) == text


@settings(max_examples=500, deadline=None)
@given(_DSL_TEXT.filter(bool))
def test_validate_accepts_exactly_the_names_the_parser_reads(name):
    try:
        readable = parse_presentation(f"operad {name}\n").name == name
    except ParseError:
        readable = False
    reported = validate(Presentation(name, (), (), ())).problems
    assert reported == ([] if readable else [f"presentation name {name!r} is not a DSL name"])

    try:
        readable = [r.name for r in parse_presentation(HEADER + f"relation {name}: {TERM}\n").relations] == [name]
    except ParseError:
        readable = False
    m = Generator("m", 2)
    relation = Relation(name, (Term(Fraction(1), corolla(m), (1,)),))
    reported = validate(Presentation("c", (), (m,), (relation,))).problems
    assert (f"relation name {name!r} is not a DSL relation name" not in reported) == readable


# The name patterns as they were before they were written to match each text
# in at most one way: nested repetitions whose failing matches backtrack
# exponentially.  They define the language the patterns keep.
_NESTED_NAME = (
    r"[A-Za-z_][A-Za-z0-9_]*(?:(?:#(?=[A-Za-z0-9_~])|\^\*|\*(?=~))[A-Za-z0-9_]*)*"
    r"(?:~(?:[A-Za-z0-9_~*]+|#(?=[A-Za-z0-9_~])|\^\*)*)?"
)
_NESTED_RELATION_NAME = rf"(?:{_NESTED_NAME})(?:{_NESTED_NAME}|[0-9]+|[@(),+\-*/])*"


@settings(max_examples=3000, deadline=None)
@given(st.text(st.sampled_from("aZ_x09#^*~@(),+-/: !"), max_size=12))
def test_name_patterns_keep_the_language_of_the_nested_patterns(text):
    from opdkit.presentation import _RELATION_NAME
    from opdkit.trees import _NAME

    name, relation_name = re.compile(_NESTED_NAME), re.compile(_NESTED_RELATION_NAME)
    # The lexer takes the same name token from the front of any text.
    old, new = name.match(text), _NAME.match(text)
    assert (old and old.group()) == (new and new.group())
    assert bool(name.fullmatch(text)) == bool(_NAME.fullmatch(text))
    assert bool(relation_name.fullmatch(text)) == bool(_RELATION_NAME.fullmatch(text))


# A failing match of the nested patterns on these names would take about
# 2^200 steps.


def test_a_long_relation_name_with_a_blank_fails_in_linear_time():
    start = time.perf_counter()
    with pytest.raises(ParseError, match="blank inside a relation name"):
        parse_presentation(HEADER + f"relation {'a' * 200} b: {TERM}\n")
    assert time.perf_counter() - start < 1


def _validated_in_linear_time(relation_name: str, generator: Generator) -> list[str]:
    relation = Relation(relation_name, (Term(Fraction(1), Tree(generator, (corolla(generator), leaf())), (1, 2)),))
    start = time.perf_counter()
    problems = validate(Presentation("c", (), (generator,), (relation,))).problems
    assert time.perf_counter() - start < 1
    return problems


def test_validate_refuses_a_long_relation_name_in_linear_time():
    name = "a" * 199 + " "
    assert _validated_in_linear_time(name, Generator("m", 2)) == [
        f"relation name {name!r} is not a DSL relation name"]


def test_validate_refuses_a_long_generator_name_in_linear_time():
    m = Generator("m~" + "a" * 197 + "!", 2)
    assert _validated_in_linear_time("r", m) == [f"generator {m.text!r} does not read back as itself"]


def test_built_names_stay_valid():
    three = ColorSet.of(("a", "b_1", "c"))
    as_, dend = builtin("as"), builtin("dend")
    built = [build_lin(builtin("rba0"), three), build_tot(builtin("cubic_as"), three),
             build_tot(builtin("d1d2"), three), koszul_dual(dend),
             black_square(koszul_dual(as_), dend), koszul_dual(black_square(build_lin(as_, three), dend)),
             white_square(as_, dend, "white_dual"), white_square(as_, dend, "white_literal")]
    for p in built:
        assert validate(p).ok, (p.name, validate(p).problems)
    text = "".join(serialize(p) for p in built)
    for made in ("__a,a", "__L_", "__S_", "__T_", "swap__a", "#a~prec", "^*", "*~"):
        assert made in text, made


def test_validate_reports_a_color_that_is_not_a_color_label():
    # m#1#2 reads back as m colored 1#2, a label build --omega refuses.
    p = parse_presentation("operad t\nbinary m#1#2\nrelation r: m#1#2@2(m#1#2@1(x1,x2),x3)\n")
    assert p.binary == (Generator("m", 2, "1#2"),)
    assert validate(p).problems == [
        "generator 'm#1#2': color label '1#2' is not a DSL name (letters, digits and _ only)"]


@pytest.mark.parametrize("unary,binary,relation,problem", [
    (("x2",), (), "r", "generator x2 has the form of a leaf"),
    (("m-1",), (), "r", "generator 'm-1' does not read back as itself"),
    (("",), (), "r", "generator '' does not read back as itself"),
    (("a#b",), (), "r", "generator 'a#b' does not read back as itself"),
    ((), ("m",), "a b", "relation name 'a b' is not a DSL relation name"),
    ((), ("m",), "a:b", "relation name 'a:b' is not a DSL relation name"),
    ((), ("m",), "1a", "relation name '1a' is not a DSL relation name"),
])
def test_validate_reports_names_the_dsl_cannot_read(unary, binary, relation, problem):
    gens = [Generator(name, 1) for name in unary] + [Generator(name, 2) for name in binary]
    g = gens[0]
    tree = Tree(g, (corolla(g),) + (leaf(),) * (g.arity - 1))
    rel = Relation(relation, (Term(Fraction(1), tree, (1, 2)),))
    p = Presentation("c", tuple(gens[: len(unary)]), tuple(gens[len(unary):]), (rel,))
    assert validate(p).problems == [problem]
    assert validate(Presentation("t u", p.unary, p.binary, p.relations)).problems == [
        "presentation name 't u' is not a DSL name", problem]
