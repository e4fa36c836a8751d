"""Koszul duals: pairing signs, complements, self-duality, duality identities."""

import itertools
import time
from collections import Counter

import pytest
from dense_rows import dense_rank

from opdkit.catalog import builtin
from opdkit.claims import expected_multi_diff_dual
from opdkit.compat import build_compatible, build_mat, build_tot
from opdkit.duality import (
    SELF_DUALITY_BUDGET,
    check_dual_identity,
    is_self_dual,
    koszul_dual,
    self_duality,
    self_duality_problem,
    shape_sign,
)
from opdkit.linalg import DiagonalForm, RationalMatrix, orthogonal_complement, span_equal
from opdkit.presentation import ColorSet, rename_generators, standard_slots, support
from opdkit.spans import component_matrix, presentation_span_equal
from opdkit.trees import Generator, Tree, enumerate_basis, leaf, relabel, tree_text

TWO = ColorSet.of(2)
D = Generator("d", 1)
M = Generator("m", 2)


def swaps(p):
    """How many relations ``build_tot`` adds to the matching ones at 2 colors
    on each uncolored tree and set of colors that a swap exchanges."""
    matching = {rel.name for rel in build_mat(p, TWO).relations}
    counts = Counter()
    for rel in build_tot(p, TWO).relations:
        if rel.name not in matching:
            tree = rel.terms[0].tree
            gens = tree.internal_generators()
            counts[relabel(tree, [g.uncolored() for g in gens]), frozenset(g.color for g in gens)] += 1
    return counts


def one_swap_per_tree(p):
    """Each weight-2 tree over ``p``'s generators once with each pair of colors."""
    return Counter(
        (tree, frozenset(pair))
        for arity in (1, 2, 3)
        for tree in enumerate_basis(p.generators, arity, 2).basis
        for pair in itertools.combinations(TWO.labels, 2)
    )


def signs(component):
    return tuple(shape_sign(t) for t in component.basis)


def test_shape_sign_by_component():
    arity3 = enumerate_basis([M], 3, 2)
    assert signs(arity3) == (1, -1)  # left comb, right comb
    arity2 = enumerate_basis([D, M], 2, 2)
    by_text = dict(zip((tree_text(t) for t in arity2.basis), signs(arity2)))
    assert by_text == {"d(m(x1,x2))": -1, "m(d(x1),x2)": 1, "m(x1,d(x2))": 1}
    arity1 = enumerate_basis([D], 1, 2)
    assert signs(arity1) == (1,)


def test_shape_sign_needs_weight_two():
    with pytest.raises(ValueError):
        shape_sign(enumerate_basis([M], 4, 3).basis[0])


def test_standard_slots_match_catalog_convention():
    assoc = builtin("as").relation("assoc")
    for term in assoc.terms:
        assert standard_slots(term.tree) == term.slots
    leibniz = builtin("diff").relation("leibniz")
    for term in leibniz.terms:
        assert standard_slots(term.tree) == term.slots
    chain = builtin("d1d2").relation("dd_b")
    assert standard_slots(chain.terms[0].tree) == chain.terms[0].slots


def test_dual_of_as_is_as():
    dual = koszul_dual(builtin("as"))
    renamed = rename_generators(dual, {g: g.dual() for g in dual.generators})
    assert presentation_span_equal(renamed, builtin("as"))


def test_dual_of_cubic_rejected():
    with pytest.raises(ValueError, match="non-quadratic"):
        koszul_dual(builtin("hom_as"))
    with pytest.raises(ValueError, match="non-quadratic"):
        koszul_dual(builtin("rba0"))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_dual_of_commuting_derivations(n):
    dual = koszul_dual(builtin("multi_diff", n))
    dims = {}
    for arity in (1, 2, 3):
        dims[arity] = dense_rank(dual.generators, dual.relations, arity, 2)
    assert (dims[1], dims[2], dims[3]) == (n * (n + 1) // 2, 2 * n, 1)
    assert presentation_span_equal(dual, expected_multi_diff_dual(n))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_expected_dual_writes_each_slotted_tree_once(n):
    for rel in expected_multi_diff_dual(n).relations:
        pairs = [(term.tree, term.slots) for term in rel.terms]
        assert len(set(pairs)) == len(pairs), rel.name
    sym = expected_multi_diff_dual(n).relation(f"sym_{n}_{n}")
    assert [term.coeff for term in sym.terms] == [2]


def test_dimension_bookkeeping_per_arity():
    for key, param in [("as", None), ("multi_diff", 2), ("d1d2", None), ("dend", None)]:
        pres = builtin(key, param) if param else builtin(key)
        dual = koszul_dual(pres)
        for arity in (1, 2, 3):
            dimension = enumerate_basis(pres.generators, arity, 2).dimension
            if dimension == 0:
                continue
            primal = dense_rank(pres.generators, pres.relations, arity, 2)
            assert primal + dense_rank(dual.generators, dual.relations, arity, 2) == dimension


def test_double_dual_involution():
    for key, param in [("as", None), ("diff", None), ("multi_diff", 2), ("d1d2", None), ("dend", None)]:
        pres = builtin(key, param) if param else builtin(key)
        twice = koszul_dual(koszul_dual(pres))
        assert set(twice.generators) == set(pres.generators)
        assert presentation_span_equal(twice, pres), key


def test_self_duality():
    assert is_self_dual(builtin("as"))
    assert is_self_dual(builtin("d1d2"))  # via the operator swap
    assert not is_self_dual(builtin("multi_diff", 1))
    assert not is_self_dual(builtin("dend"))
    assert is_self_dual(build_mat(builtin("as"), TWO))
    assert is_self_dual(build_mat(builtin("d1d2"), TWO))


def test_self_duality_refuses_a_search_above_its_budget():
    # |unary|! * |binary|! renamings: 8! * 4! for mat(d1d2) at 4 colors.
    four = build_mat(builtin("d1d2"), ColorSet.of(4))
    problem = self_duality_problem(four)
    assert problem == f"self-duality of {four.name} would try 967680 renamings, above the budget of {SELF_DUALITY_BUDGET}"
    for search in (self_duality, is_self_dual):
        start = time.perf_counter()
        with pytest.raises(ValueError) as refused:
            search(four)
        assert time.perf_counter() - start < 0.25
        assert str(refused.value) == problem
    # cor-undual's inputs (2, 48 and 2 renamings) and mat(d1d2) at 3 colors
    # (4,320) are searched.
    for p in (builtin("d1d2"), build_mat(builtin("d1d2"), TWO), build_mat(builtin("as"), TWO),
              build_mat(builtin("d1d2"), ColorSet.of(3))):
        assert self_duality_problem(p) is None, p.name


def test_d1d2_dual_needs_the_swap():
    pres = builtin("d1d2")
    dual = koszul_dual(pres)
    identity = rename_generators(dual, {g.dual(): g for g in pres.generators})
    assert not presentation_span_equal(identity, pres)
    d1, d2 = pres.unary
    swap = {d1.dual(): d2, d2.dual(): d1, pres.binary[0].dual(): pres.binary[0]}
    assert presentation_span_equal(rename_generators(dual, swap), pres)


@pytest.mark.parametrize("n", [2, 3])
def test_matching_duality_identity(n):
    omega = ColorSet.of(n)
    for key, param in [("as", None), ("multi_diff", 1), ("multi_diff", 2), ("d1d2", None), ("dend", None)]:
        pres = builtin(key, param) if param else builtin(key)
        assert check_dual_identity("matching", pres, omega), (key, param, n)


def test_linear_total_duality_identities_where_supports_cover():
    # In `as` and `dend` every weight-2 tree lies in some relation's support,
    # on both sides of the duality; the total construction swaps colors on
    # every weight-2 tree once per pair of colors all the same.
    for key in ("as", "dend"):
        pres = builtin(key)
        assert swaps(pres) == one_swap_per_tree(pres)
        assert swaps(koszul_dual(pres)) == one_swap_per_tree(koszul_dual(pres))
        assert check_dual_identity("linear", pres, TWO)
        assert check_dual_identity("total", pres, TWO)


def test_linear_total_duality_fails_on_sparse_supports():
    # Sparse supports: with one derivation, d1(d1(x1)) occurs in no relation,
    # and d1d2 leaves trees outside the supports on both sides of the
    # duality.  The total construction swaps colors on every weight-2 tree,
    # those trees among them, so both identities hold.
    md1 = builtin("multi_diff", 1)
    chain = Tree(Generator("d1", 1), (Tree(Generator("d1", 1), (leaf(),)),))
    assert all(tree != chain for rel in md1.relations for tree, _ in support(rel))
    assert swaps(md1) == one_swap_per_tree(md1)
    assert swaps(md1)[chain, frozenset(TWO.labels)] == 1
    d1d2 = builtin("d1d2")
    assert swaps(d1d2) == one_swap_per_tree(d1d2)
    assert swaps(koszul_dual(d1d2)) == one_swap_per_tree(koszul_dual(d1d2))
    for pres in (md1, builtin("multi_diff", 2), d1d2):
        assert check_dual_identity("total", pres, TWO), pres.name
    assert check_dual_identity("linear", d1d2, TWO)


@pytest.mark.parametrize("kind", ["bogus", "lin"])
def test_dual_identity_refuses_an_unknown_kind_as_the_builders_do(kind):
    with pytest.raises(ValueError) as built:
        build_compatible(kind, builtin("as"), TWO)
    with pytest.raises(ValueError) as checked:
        check_dual_identity(kind, builtin("as"), TWO)
    assert str(checked.value) == str(built.value)
    assert "'linear', 'matching', 'total'" in str(checked.value)


def test_singleton_color_duality_trivial():
    one = ColorSet.of(1)
    for kind in ("matching", "linear", "total"):
        assert check_dual_identity(kind, builtin("as"), one)


def test_restricted_complement_lemma():
    # Splitting the ambient by constant-color vs mixed-color trees, the
    # complement of a union of relation sets supported on the two halves is
    # the direct sum of the restricted complements.
    mat = build_mat(builtin("multi_diff", 2), TWO)
    gens = mat.generators
    for arity in (1, 2, 3):
        component, rows = component_matrix(gens, mat.relations, arity, 2)
        form = DiagonalForm(signs(component))
        constant_idx = [
            i
            for i, t in enumerate(component.basis)
            if len({g.color for g in t.internal_generators()}) == 1
        ]
        mixed_idx = [i for i in range(component.dimension) if i not in constant_idx]
        full = orthogonal_complement(rows, form)

        def restricted(indices):
            sub_rows = []
            for row in rows.rows:
                sub = tuple(row[i] for i in indices)
                if any(sub):
                    sub_rows.append(sub)
            sub_form_signs = tuple(form.signs[i] for i in indices)
            comp = orthogonal_complement(
                RationalMatrix(tuple(sub_rows), len(indices)),
                DiagonalForm(sub_form_signs),
            )
            embedded = []
            for row in comp.rows:
                vec = [0] * component.dimension
                for value, i in zip(row, indices):
                    vec[i] = value
                embedded.append(tuple(vec))
            return embedded

        pieces = restricted(constant_idx) + restricted(mixed_idx)
        assert span_equal(
            RationalMatrix.from_rows(pieces, component.dimension), full
        ), arity
