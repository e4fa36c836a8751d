"""The sparse span kernel against the dense reference elimination.

The dense adapters of ``opdkit.linalg`` must return exactly what the dense
fraction-free elimination in ``dense_reference`` returns, and the sparse
presentation span checks must agree with that elimination run on the dense
``component_matrix`` rows of each graded component.
"""

from fractions import Fraction
from functools import lru_cache

import dense_reference as ref
from hypothesis import given, settings
from hypothesis import strategies as st

from opdkit.catalog import default_grid
from opdkit.compat import build_compatible
from opdkit.linalg import RationalMatrix, nullspace, rank, rref, span_contains, span_equal
from opdkit.presentation import (
    ColorSet,
    Presentation,
    component_matrix,
    presentation_span_contains,
    presentation_span_equal,
    relation_gradings,
)

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
