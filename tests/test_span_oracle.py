"""The sparse span kernel against the dense reference elimination.

The dense adapters of ``opdkit.linalg`` must return exactly what the dense
fraction-free elimination in ``dense_reference`` returns, and the sparse
presentation span checks, their per-grading report and the Koszul dual must
agree with that elimination run on the dense ``component_matrix`` rows of
each graded component.
"""

from fractions import Fraction
from functools import lru_cache

import dense_reference as ref
from hypothesis import given, settings
from hypothesis import strategies as st

from opdkit.catalog import default_grid
from opdkit.compat import build_compatible
from opdkit.duality import koszul_dual, pairing_form
from opdkit.linalg import RationalMatrix, nullspace, rank, rref, span_contains, span_equal
from opdkit.presentation import (
    ColorSet,
    Presentation,
    Relation,
    Term,
    component_matrix,
    presentation_span_contains,
    presentation_span_equal,
    relation_gradings,
    span_components,
    standard_slots,
)
from opdkit.trees import Tree

# Mostly zeros, as in relation matrices, with small fractions elsewhere.
ENTRY = st.one_of(
    st.just(Fraction(0)),
    st.just(Fraction(0)),
    st.fractions(min_value=-4, max_value=4, max_denominator=3),
)


@st.composite
def matrices(draw, cols=None):
    if cols is None:
        cols = draw(st.integers(1, 7))
    rows = draw(st.lists(st.lists(ENTRY, min_size=cols, max_size=cols), max_size=6))
    return RationalMatrix.from_rows(rows, cols)


@st.composite
def matrix_pairs(draw):
    """A matrix and a second one made of combinations of its rows plus noise rows."""
    a = draw(matrices())
    combined = []
    for _ in range(draw(st.integers(0, 4))):
        coeffs = draw(st.lists(ENTRY, min_size=a.nrows, max_size=a.nrows))
        combined.append(
            [sum((c * row[j] for c, row in zip(coeffs, a.rows)), Fraction(0)) for j in range(a.cols)]
        )
    noise = draw(matrices(a.cols))
    return a, RationalMatrix.from_rows(combined + [list(r) for r in noise.rows[:2]], a.cols)


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_dense_adapters_match_reference(m):
    assert rref(m) == ref.rref(m)
    assert rank(m) == ref.rank(m)
    assert nullspace(m) == ref.nullspace(m)


@settings(max_examples=150, deadline=None)
@given(matrix_pairs())
def test_span_tests_match_reference(pair):
    a, b = pair
    assert span_contains(a, b) == ref.span_contains(a, b)
    assert span_contains(b, a) == ref.span_contains(b, a)
    assert span_equal(a, b) == ref.span_equal(a, b)


GRID = dict(default_grid())
KINDS = ("linear", "matching", "total")


@lru_cache(maxsize=None)
def constructed(label, kind):
    return build_compatible(kind, GRID[label], ColorSet.of(2))


def subset(data, p):
    n = len(p.relations)
    mask = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    chosen = tuple(rel for rel, keep in zip(p.relations, mask) if keep)
    return Presentation(p.name, p.unary, p.binary, chosen)


def reference_contains(big, small):
    gens = big.generators
    for arity, weight in relation_gradings(small.relations):
        _, mb = component_matrix(gens, big.relations, arity, weight)
        _, ms = component_matrix(gens, small.relations, arity, weight)
        if not ref.span_contains(mb, ms):
            return False
    return True


def reference_equal(p, q):
    gens = p.generators
    for arity, weight in relation_gradings(p.relations + q.relations):
        _, mp = component_matrix(gens, p.relations, arity, weight)
        _, mq = component_matrix(gens, q.relations, arity, weight)
        if not ref.span_equal(mp, mq):
            return False
    return True


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(sorted(GRID)),
    st.sampled_from(KINDS),
    st.sampled_from(KINDS),
    st.booleans(),
    st.data(),
)
def test_presentation_spans_match_reference(label, big_kind, small_kind, nested, data):
    big = subset(data, constructed(label, big_kind))
    # A subset of big's own relations is contained in big, so both
    # verdicts of the containment check are exercised.
    small = subset(data, big if nested else constructed(label, small_kind))
    assert presentation_span_contains(big, small) == reference_contains(big, small)
    assert presentation_span_contains(small, big) == reference_contains(small, big)
    assert presentation_span_equal(big, small) == reference_equal(big, small)

    report = list(span_components(big, small))
    assert [(c.arity, c.weight) for c in report] == relation_gradings(big.relations + small.relations)
    for c in report:
        _, mb = component_matrix(big.generators, big.relations, c.arity, c.weight)
        _, ms = component_matrix(big.generators, small.relations, c.arity, c.weight)
        assert (c.left_rank, c.right_rank) == (ref.rank(mb), ref.rank(ms))
        assert c.equal == ref.span_equal(mb, ms)
        assert c.contains == ref.span_contains(mb, ms)


def dualized(tree):
    if tree.is_leaf:
        return tree
    return Tree(tree.gen.dual(), tuple(dualized(c) for c in tree.children))


def reference_dual_relations(p):
    """R^perp per arity: the dense null space of the sign-scaled relation rows."""
    rels = []
    for arity in (1, 2, 3):
        component, rows = component_matrix(p.generators, p.relations, arity, 2)
        if component.dimension == 0:
            continue
        signs = pairing_form(component).signs
        scaled = RationalMatrix(
            tuple(tuple(x * sign for x, sign in zip(row, signs)) for row in rows.rows),
            rows.cols,
        )
        for i, vec in enumerate(ref.nullspace(scaled).rows):
            terms = []
            for coeff, tree in zip(vec, component.basis):
                if coeff:
                    dual_tree = dualized(tree)
                    terms.append(Term(coeff, dual_tree, standard_slots(dual_tree)))
            rels.append(Relation(f"dual_a{arity}_{i}", tuple(terms)))
    return Presentation("reference", (), (), tuple(rels)).relations


QUADRATIC = sorted(label for label, p in GRID.items() if p.is_quadratic)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(QUADRATIC), st.sampled_from(KINDS), st.data())
def test_koszul_dual_matches_reference(label, kind, data):
    p = subset(data, constructed(label, kind))
    assert koszul_dual(p).relations == reference_dual_relations(p)
