"""Exact linear algebra: rref, null spaces, spans, signed complements."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opdkit.linalg import (
    DiagonalForm,
    RationalMatrix,
    nullspace,
    orthogonal_complement,
    rank,
    rref,
    span_contains,
    span_equal,
)


def mat(rows, cols=None):
    return RationalMatrix.from_rows(rows, cols)


def test_rref_dependent_rows_collapse():
    reduced, pivots = rref(mat([[1, -1], [2, -2]]))
    assert reduced.rows == ((Fraction(1), Fraction(-1)),)
    assert pivots == (0,)


def test_rref_identity_fixed_point():
    eye = RationalMatrix.identity(4)
    reduced, pivots = rref(eye)
    assert reduced.rows == eye.rows
    assert pivots == (0, 1, 2, 3)


def test_rref_hand_example():
    reduced, pivots = rref(mat([[2, 4], [1, 3]]))
    assert reduced.rows == RationalMatrix.identity(2).rows
    assert pivots == (0, 1)


def test_rref_with_fractions():
    reduced, _ = rref(mat([[Fraction(1, 2), Fraction(1, 3)], [3, 2]]))
    assert rank(mat([[Fraction(1, 2), Fraction(1, 3)], [3, 2]])) == 1
    assert reduced.rows == ((Fraction(1), Fraction(2, 3)),)


def test_span_equal_examples():
    assert span_equal(mat([[1, 1]]), mat([[2, 2]]))
    assert not span_equal(mat([[1, 0]]), mat([[1, 0], [0, 1]]))
    assert span_equal(mat([[1, 2], [0, 1]]), mat([[1, 0], [3, 1]]))


def test_span_contains_examples():
    basis = mat([[1, 0, 1], [0, 1, 1]])
    assert span_contains(basis, mat([[2, 3, 5]]))
    assert not span_contains(mat([[1, 0]]), mat([[0, 1]]))
    assert span_contains(basis, RationalMatrix((), 3))


def test_column_mismatch_raises():
    with pytest.raises(ValueError):
        span_equal(mat([[1, 0]]), mat([[1, 0, 0]]))
    with pytest.raises(ValueError):
        span_contains(mat([[1, 0]]), mat([[1, 0, 0]]))


def test_nullspace_examples():
    zero = mat([[0, 0, 0]])
    assert span_equal(nullspace(zero), RationalMatrix.identity(3))
    assert nullspace(mat([[1, -1]])).rows == ((Fraction(1), Fraction(1)),)
    assert nullspace(mat([[2, 1], [1, 1]])).rows == ()


def test_nullspace_solves():
    m = mat([[1, 2, 3], [4, 5, 6]])
    basis = nullspace(m)
    assert basis.nrows == 1
    for row in basis.rows:
        for mrow in m.rows:
            assert sum(a * b for a, b in zip(mrow, row)) == 0


def test_orthogonal_complement_self_dual_line():
    relations = mat([[1, -1]])
    form = DiagonalForm((1, -1))
    comp = orthogonal_complement(relations, form)
    assert span_equal(comp, mat([[1, -1]]))


def test_orthogonal_complement_leibniz_line():
    relations = mat([[1, -1, -1]])
    form = DiagonalForm((-1, 1, 1))
    comp = orthogonal_complement(relations, form)
    assert span_equal(comp, mat([[1, -1, 0], [1, 0, -1]]))


def test_orthogonal_complement_empty_relations():
    comp = orthogonal_complement(RationalMatrix((), 3), DiagonalForm((1, 1, -1)))
    assert span_equal(comp, RationalMatrix.identity(3))


def test_orthogonal_complement_dimension_mismatch():
    with pytest.raises(ValueError):
        orthogonal_complement(mat([[1, 0]]), DiagonalForm((1, 1, 1)))


def test_diagonal_form_validates():
    with pytest.raises(ValueError):
        DiagonalForm((1, 0))


def _random_matrix(rng, rows, cols, scale=9):
    return mat(
        [
            [Fraction(rng.randint(-scale, scale), rng.randint(1, 4)) for _ in range(cols)]
            for _ in range(rows)
        ],
        cols,
    )


def test_rank_nullity_on_random_matrices_up_to_40():
    rng = random.Random(20240809)
    for rows, cols in [(3, 5), (8, 8), (12, 7), (25, 30), (40, 40)]:
        m = _random_matrix(rng, rows, cols)
        assert rank(m) + nullspace(m).nrows == cols


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 6),
    st.integers(1, 6),
    st.integers(0, 10 ** 6),
)
def test_rank_nullity_property(rows, cols, seed):
    rng = random.Random(seed)
    m = _random_matrix(rng, rows, cols, scale=6)
    kernel = nullspace(m)
    assert rank(m) + kernel.nrows == cols
    for row in kernel.rows:
        for mrow in m.rows:
            assert sum(a * b for a, b in zip(mrow, row)) == 0


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5), st.integers(0, 10 ** 6))
def test_double_complement_is_identity_on_spans(rows, cols, seed):
    rng = random.Random(seed)
    m = _random_matrix(rng, rows, cols, scale=5)
    form = DiagonalForm(tuple(rng.choice((1, -1)) for _ in range(cols)))
    twice = orthogonal_complement(orthogonal_complement(m, form), form)
    assert span_equal(twice, m)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_span_relations_consistency(seed):
    rng = random.Random(seed)
    a = _random_matrix(rng, rng.randint(1, 4), 5, scale=4)
    b = _random_matrix(rng, rng.randint(1, 4), 5, scale=4)
    stacked = RationalMatrix(a.rows + b.rows, 5)
    assert span_contains(stacked, a)
    assert span_contains(stacked, b)
    if span_contains(a, b) and span_contains(b, a):
        assert span_equal(a, b)
    assert span_equal(a, b) == (span_contains(a, b) and span_contains(b, a))
