"""Dense fraction-free elimination: the test oracle for the sparse span kernel.

This is the elimination ``opdkit.linalg`` used before its sparse kernel:
pivot columns taken left to right over dense gcd-reduced integer rows, and
containment decided by reducing dense Fraction rows against the reduced
basis.  It shares no code with the kernel it checks: it imports nothing
from ``opdkit`` and takes a matrix as its rows, each a sequence of
rationals, and its width, which an empty matrix still has.
"""

from fractions import Fraction
from math import gcd


def _row_content(row):
    g = 0
    for v in row:
        g = gcd(g, v)
        if g == 1:
            return 1
    return g


def _integer_rows(rows):
    out = []
    for row in rows:
        scale = 1
        for x in row:
            scale = scale * x.denominator // gcd(scale, x.denominator)
        ints = [int(x.numerator * (scale // x.denominator)) for x in row]
        g = _row_content(ints)
        if g > 1:
            ints = [v // g for v in ints]
        out.append(ints)
    return out


def rref(rows, cols):
    """The rows of the reduced row echelon form, as tuples of Fractions, and
    the pivot columns."""
    rows = _integer_rows(rows)
    pivots = []
    pr = 0
    for col in range(cols):
        pivot_row = None
        for r in range(pr, len(rows)):
            if rows[r][col]:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        rows[pr], rows[pivot_row] = rows[pivot_row], rows[pr]
        p = rows[pr][col]
        for r in range(len(rows)):
            if r == pr or not rows[r][col]:
                continue
            a = rows[r][col]
            merged = [p * x - a * y for x, y in zip(rows[r], rows[pr])]
            g = _row_content(merged)
            if g > 1:
                merged = [v // g for v in merged]
            rows[r] = merged
        pivots.append(col)
        pr += 1
    reduced = tuple(
        tuple(Fraction(v, rows[r][pivots[r]]) for v in rows[r]) for r in range(pr)
    )
    return reduced, tuple(pivots)


def rank(rows, cols):
    return len(rref(rows, cols)[1])


def nullspace(rows, cols):
    """The rows of a basis of the null space, one per free column."""
    reduced, pivots = rref(rows, cols)
    pivot_set = set(pivots)
    basis = []
    for free in range(cols):
        if free in pivot_set:
            continue
        vec = [Fraction(0)] * cols
        vec[free] = Fraction(1)
        for r, p in enumerate(pivots):
            vec[p] = -reduced[r][free]
        basis.append(tuple(vec))
    return tuple(basis)


def _reduce_against(row, reduced, pivots):
    """True iff ``row`` reduces to zero against an rref basis."""
    vec = list(row)
    for r, p in enumerate(pivots):
        c = vec[p]
        if c:
            basis_row = reduced[r]
            vec = [x - c * y for x, y in zip(vec, basis_row)]
    return not any(vec)


def span_contains(a, b, cols):
    """Whether the rows ``b`` lie in the span of the rows ``a``, both ``cols`` wide."""
    reduced, pivots = rref(a, cols)
    return all(_reduce_against(row, reduced, pivots) for row in b)


def span_equal(a, b, cols):
    return rref(a, cols)[0] == rref(b, cols)[0]
