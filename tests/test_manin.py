"""Manin square products and the product-duality identity."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opdkit.catalog import builtin, default_grid
from opdkit.compat import build_lin, build_mat, build_tot
from opdkit.duality import koszul_dual
from opdkit.manin import (
    black_square,
    check_product_duality,
    colorize_tensor_map,
    product_problem,
    tensor_clash,
    tensor_colors,
    tensor_colors_problem,
    tensor_factors,
    tensor_map,
    white_square,
)
from opdkit.parser import parse_presentation
from opdkit.presentation import ColorSet, Presentation, rename_generators
from opdkit.spans import presentation_span_equal, span_components
from opdkit.trees import basis_dimension

TWO = ColorSet.of(2)
THREE = ColorSet.of(3)


def unit_rename(q):
    tm = tensor_map(builtin("as").binary, q.binary)
    return {t: f for (e, f), t in tm.items()}


def test_black_unit_law():
    for key in ("as", "dend"):
        q = builtin(key)
        product = black_square(builtin("as"), q)
        assert presentation_span_equal(rename_generators(product, unit_rename(q)), q)


def test_white_unit_law():
    for key in ("as", "dend"):
        q = builtin(key)
        product = white_square(builtin("as"), q, "white_dual")
        assert presentation_span_equal(rename_generators(product, unit_rename(q)), q)


def test_black_rejects_unary_and_cubic():
    with pytest.raises(ValueError, match="unary"):
        black_square(builtin("rba0"), builtin("as"))
    with pytest.raises(ValueError, match="cubic"):
        black_square(builtin("cubic_as"), builtin("as"))


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("key", ["as", "dend"])
def test_black_with_replicated_assoc_is_lin(key, n):
    omega = ColorSet.of(n)
    lin_as = build_lin(builtin("as"), omega)
    q = builtin(key)
    product = black_square(lin_as, q)
    renamed = rename_generators(product, colorize_tensor_map(lin_as.binary, q.binary))
    assert presentation_span_equal(renamed, build_lin(q, omega))


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("key", ["as", "dend"])
def test_matching_products_both_kinds(key, n):
    omega = ColorSet.of(n)
    mat_as = build_mat(builtin("as"), omega)
    q = builtin(key)
    target = build_mat(q, omega)
    rename = colorize_tensor_map(mat_as.binary, q.binary)
    black = rename_generators(black_square(mat_as, q), rename)
    assert presentation_span_equal(black, target)
    white = rename_generators(white_square(mat_as, q, "white_dual"), rename)
    assert presentation_span_equal(white, target)


@pytest.mark.parametrize("n", [2])
@pytest.mark.parametrize("key", ["as", "dend"])
def test_total_white_product(key, n):
    omega = ColorSet.of(n)
    tot_as = build_tot(builtin("as"), omega)
    q = builtin(key)
    product = white_square(tot_as, q, "white_dual")
    renamed = rename_generators(product, colorize_tensor_map(tot_as.binary, q.binary))
    assert presentation_span_equal(renamed, build_tot(q, omega))


def test_white_square_of_as_is_as():
    product = white_square(builtin("as"), builtin("as"), "white_dual")
    assert len(product.binary) == 1
    q = builtin("as")
    assert presentation_span_equal(rename_generators(product, unit_rename(q)), q)


def test_product_duality_identity():
    for left, right in [("as", "as"), ("dend", "as")]:
        p, q = builtin(left), builtin(right)
        holds, report = check_product_duality(p, q)
        assert holds and all(c.equal for c in report)
        # the literal reading differs from the dual route
        assert not presentation_span_equal(
            white_square(p, q, "white_literal"), white_square(p, q, "white_dual")
        )


def test_product_duality_with_matching_factor():
    mat_as = build_mat(builtin("as"), TWO)
    holds, _ = check_product_duality(mat_as, builtin("dend"))
    assert holds


def test_white_literal_disagrees_on_as():
    literal = white_square(builtin("as"), builtin("as"), "white_literal")
    assert not presentation_span_equal(literal, white_square(builtin("as"), builtin("as"), "white_dual"))
    # the literal reading flips the right-comb sign: x(yz) + (xy)z
    coeffs = sorted(term.coeff for term in literal.relations[0].terms)
    assert coeffs == [1, 1]


WHITE_FACTORS = {
    "as": lambda: builtin("as"),
    "dend": lambda: builtin("dend"),
    "mat_as__1_2": lambda: build_mat(builtin("as"), TWO),
    "mat_as__1_2_3": lambda: build_mat(builtin("as"), THREE),
}


@pytest.mark.parametrize("left, right, literal_rank, dual_rank, ambient", [
    ("mat_as__1_2", "as", 4, 4, 8),
    ("mat_as__1_2", "dend", 6, 12, 32),
    ("mat_as__1_2_3", "as", 9, 9, 18),
    ("mat_as__1_2_3", "dend", 11, 27, 72),
    ("as", "as", 1, 1, 2),
    ("dend", "as", 3, 3, 8),
])
def test_white_literal_and_dual_readings_differ(left, right, literal_rank, dual_rank, ambient):
    p, q = WHITE_FACTORS[left](), WHITE_FACTORS[right]()
    assert (p.name, q.name) == (left, right)
    literal, dual = white_square(p, q, "white_literal"), white_square(p, q, "white_dual")
    # Both readings are binary quadratic, so they meet in one grading only.
    (component,) = span_components(literal, dual)
    assert (component.arity, component.weight) == (3, 2)
    assert (component.left_rank, component.right_rank) == (literal_rank, dual_rank)
    assert basis_dimension(literal.generators, 3, 2) == ambient
    assert not component.equal


def test_dual_of_black_is_white_of_duals_explicitly():
    p, q = builtin("dend"), builtin("as")
    lhs = koszul_dual(black_square(p, q))
    rhs = white_square(koszul_dual(p), koszul_dual(q), "white_dual")
    outer = tensor_map(p.binary, q.binary)
    inner = tensor_map([g.dual() for g in p.binary], [g.dual() for g in q.binary])
    mapping = {
        outer[(gp, gq)].dual(): inner[(gp.dual(), gq.dual())]
        for gp in p.binary
        for gq in q.binary
    }
    assert presentation_span_equal(rename_generators(lhs, mapping), rhs)


def test_black_of_total_factors_drops_pairs_with_no_shared_shape():
    tot_as = build_tot(builtin("as"), TWO)
    names = {rel.name for rel in black_square(tot_as, tot_as).relations}
    # T_0 swaps the colors of a left comb and T_1 those of a right comb.
    assert "assoc__T_0_1,2__x__assoc__T_0_1,2" in names
    assert "assoc__T_0_1,2__x__assoc__T_1_1,2" not in names


@pytest.mark.parametrize("left", ["as", "dend"])
def test_product_duality_with_total_factors(left):
    holds, _ = check_product_duality(build_tot(builtin(left), TWO), build_tot(builtin("as"), TWO))
    assert holds


FACTORS = {
    label: p
    for key in ("as", "dend")
    for label, p in (
        (key, builtin(key)),
        (f"lin({key})", build_lin(builtin(key), TWO)),
        (f"mat({key})", build_mat(builtin(key), TWO)),
        (f"tot({key})", build_tot(builtin(key), TWO)),
    )
}
SMALL_PAIRS = sorted(
    (a, b)
    for a in FACTORS
    for b in FACTORS
    if len(FACTORS[a].binary) * len(FACTORS[b].binary) <= 8
)


def relation_subset(data, p):
    mask = data.draw(st.lists(st.booleans(), min_size=len(p.relations), max_size=len(p.relations)))
    chosen = tuple(rel for rel, keep in zip(p.relations, mask) if keep)
    return Presentation(p.name, p.unary, p.binary, chosen)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(SMALL_PAIRS), st.data())
def test_product_duality_on_relation_subsets(pair, data):
    p, q = (relation_subset(data, FACTORS[label]) for label in pair)
    holds, _ = check_product_duality(p, q)
    assert holds


ASSOC = "relation r: {0}@2({0}@1(x1,x2),x3) - {0}@1(x1,{0}@2(x2,x3))\n"


def _assoc_on(name, binary):
    return parse_presentation(f"operad {name}\nbinary {binary}\n" + ASSOC.format(binary.split()[0]))


def test_products_refuse_colliding_tensor_names():
    # (a, b~c) and (a~b, c) are both a~b~c.
    p, q = _assoc_on("l", "a a~b"), _assoc_on("r", "b~c c")
    message = "tensor generators collide: (a, b~c) and (a~b, c) both give a~b~c"
    assert tensor_clash(p.binary, q.binary) == message
    for kind in ("black", "white_literal", "white_dual"):
        with pytest.raises(ValueError) as error:
            black_square(p, q) if kind == "black" else white_square(p, q, kind)
        assert str(error.value) == message


def test_white_dual_refuses_tensor_names_that_collide_only_between_the_duals():
    # a*~x~y and a~x*~y differ, but a^* with x*~y^* and a*~x^* with y^*
    # both give a*~x*~y*.
    p, q = _assoc_on("l", "a a*~x"), _assoc_on("r", "x*~y y")
    assert tensor_clash(p.binary, q.binary) is None
    black_square(p, q)
    with pytest.raises(ValueError, match=r"both give a\*~x\*~y\*"):
        white_square(p, q, "white_dual")


def test_product_problem_names_the_first_fault():
    as_, dend, rba0 = builtin("as"), builtin("dend"), builtin("rba0")
    assert product_problem(as_, dend, "black") is None
    assert product_problem(rba0, as_, "black") == "presentation rba0 has unary generators"
    cubic = parse_presentation("operad c\nbinary m\nrelation r: m@3(m@2(m@1(x1,x2),x3),x4)\n")
    assert product_problem(as_, cubic, "white_literal") == "presentation c has the cubic relation r"


# Every binary generator of the catalog, colored or not and dualized or
# not, times every plain one, dualized or not.
_LEFT = sorted({v for _, p in default_grid() for g in p.binary
                for v in (g, g.dual(), g.colored("1"), g.colored("c_2").dual())}, key=lambda g: g.sort_key)
_RIGHT = sorted({v for _, p in default_grid() for g in p.binary for v in (g, g.dual())}, key=lambda g: g.sort_key)


@pytest.mark.parametrize("e", _LEFT, ids=lambda g: g.text)
def test_tensor_names_read_back_as_their_pairs(e):
    for (ge, gf), tensor in tensor_map([e], _RIGHT).items():
        assert tensor_factors(tensor.name) == (ge, gf)
    assert tensor_factors(e.name) is None


def test_tensor_colors_reads_the_color_off_a_dualized_left_factor():
    # The tensor of (m#1^*, prec) is m#1*~prec; its color is 1, not 1*.
    left = koszul_dual(build_lin(builtin("as"), TWO)).binary
    mapping = tensor_colors(tensor_map(left, builtin("dend").binary).values())
    assert sorted(g.text for g in mapping.values()) == ["prec#1", "prec#2", "succ#1", "succ#2"]
    assert mapping == colorize_tensor_map(left, builtin("dend").binary)


def test_tensor_colors_refuses_what_is_not_a_colored_tensor():
    plain = tensor_map(builtin("as").binary, builtin("dend").binary).values()
    assert tensor_colors_problem(plain) == (
        "generator m~prec is not a colored tensor; cannot apply the tensor-colors map")
    twice = tensor_map(build_lin(builtin("as"), TWO).binary, build_lin(builtin("dend"), TWO).binary)
    assert tensor_colors_problem(twice.values()) == "tensor factor prec#1 already colored"
    with pytest.raises(ValueError, match="not a colored tensor"):
        colorize_tensor_map(builtin("as").binary, builtin("dend").binary)


@pytest.mark.parametrize("side, name", [("left", "m#1~prec~prec"), ("right", "m#1~prec~m#1")])
def test_tensor_colors_refuses_a_tensor_of_a_tensor(side, name):
    # The tensor of (m#1~prec, prec) is m#1~prec~prec, which reads at its
    # first ~ as (m#1, prec~prec): a name with two ~ names no pair.
    lin, dend = build_lin(builtin("as"), TWO), builtin("dend")
    if side == "left":
        e, f = black_square(lin, dend).binary, dend.binary
    else:
        e, f = lin.binary, black_square(dend, lin).binary
    assert tensor_factors(name) is None
    message = f"generator {name} is a tensor of a tensor; cannot apply the tensor-colors map"
    assert tensor_colors_problem(tensor_map(e, f).values()) == message
    with pytest.raises(ValueError, match="is a tensor of a tensor"):
        colorize_tensor_map(e, f)
