"""Exact linear algebra: one sparse fraction-free elimination kernel.

Every span question reduces to the ``Echelon`` kernel.  A row is a sparse
integer vector ``{column: int}`` with content 1 (entries coprime), which
fixes a rational row up to a nonzero scalar.  ``integer_row`` makes one from
rational entries by scaling them all by one common denominator, so rows are
integer from the start and no rational sum is formed; ``primitive_row``
finishes a row whose entries are already integers.  ``Echelon`` keeps a
fully reduced echelon basis keyed by pivot column: each basis row has a
positive entry at its pivot, which is its smallest column, and no entry at
any other pivot.  Rows are reduced fraction-free, cross-multiplying by the pivot and
dividing out the content, so no rational arithmetic happens inside the
kernel.  Given a column order the basis is the reduced row echelon form up
to row scaling, hence canonical: two bases over one column map span the same
space iff they are equal.

Next to the rows, ``Echelon`` keeps a column map: for each column, the set
of pivots of the basis rows with a nonzero entry there, pivots themselves
left out.  When a new row takes a pivot, only the rows the map lists at that
column are back-substituted, so ``add`` touches the rows that change rather
than scanning the basis; the map is updated where an entry appears
(fill-in) or cancels.

The kernel also gives the complement of a span: the right kernel has one
basis vector per free (non-pivot) column, read straight off the basis.

The dense API (``RationalMatrix``, ``DiagonalForm``, ``rref``, ``rank``,
``nullspace``, ``span_contains``, ``span_equal``, ``orthogonal_complement``)
consists of thin adapters that convert dense rational rows to sparse integer
rows, run the kernel, and convert back.  The program does not use them, and
``import opdkit`` does not expose them; they stay here for the benchmark's
tracer, the acceptance gate and the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

__all__ = [
    "RationalMatrix",
    "DiagonalForm",
    "Echelon",
    "integer_row",
    "primitive_row",
    "rref",
    "rank",
    "nullspace",
    "span_equal",
    "span_contains",
    "orthogonal_complement",
]

Row = tuple[Fraction, ...]
SparseRow = dict[int, int]


@dataclass(frozen=True)
class RationalMatrix:
    """A dense matrix of exact rationals; may have zero rows but keeps its width."""

    rows: tuple[Row, ...]
    cols: int

    def __post_init__(self) -> None:
        for row in self.rows:
            if len(row) != self.cols:
                raise ValueError("ragged matrix")

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence], cols: int | None = None) -> "RationalMatrix":
        frozen = tuple(tuple(Fraction(x) for x in row) for row in rows)
        if cols is None:
            if not frozen:
                raise ValueError("cannot infer width of an empty matrix")
            cols = len(frozen[0])
        return cls(frozen, cols)

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        return cls(
            tuple(
                tuple(Fraction(1 if i == j else 0) for j in range(n))
                for i in range(n)
            ),
            n,
        )


@dataclass(frozen=True)
class DiagonalForm:
    """A nondegenerate diagonal bilinear form given by one sign per basis vector."""

    signs: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(s not in (1, -1) for s in self.signs):
            raise ValueError("diagonal form entries must be +1 or -1")

    def __len__(self) -> int:
        return len(self.signs)


def _primitive(row: SparseRow) -> SparseRow:
    """Divide a nonempty row by the gcd of its entries, in place."""
    g = 0
    for v in row.values():
        g = gcd(g, v)
        if g == 1:
            return row
    for c in row:
        row[c] //= g
    return row


def integer_row(entries: Iterable[tuple[int, Fraction]]) -> SparseRow:
    """Sparse content-1 integer row spanning the same line as the rational entries.

    Every entry is scaled by one common denominator, so the sum at a repeated
    column is a sum of ints; zero sums are dropped, so an all-zero input
    gives the empty row.
    """
    entries = list(entries)
    scale = 1
    for _, x in entries:
        d = x.denominator
        if scale % d:
            scale = lcm(scale, d)
    row: SparseRow = {}
    if scale == 1:
        for col, x in entries:
            row[col] = row.get(col, 0) + x.numerator
    else:
        for col, x in entries:
            row[col] = row.get(col, 0) + x.numerator * (scale // x.denominator)
    return primitive_row(row)


def primitive_row(row: SparseRow) -> SparseRow:
    """``row`` without its zero entries and divided by their gcd: the sparse
    content-1 row on its line, or the empty row if every entry is zero."""
    if 0 in row.values():
        row = {col: v for col, v in row.items() if v}
    return _primitive(row) if row else row


class Echelon:
    """A fully reduced fraction-free echelon basis, keyed by pivot column.

    ``_rows_at`` is the column map: column -> pivots of the basis rows with a
    nonzero entry there, the column itself never among them.
    """

    __slots__ = ("rows", "_rows_at")

    def __init__(self, rows: Iterable[SparseRow] = ()) -> None:
        self.rows: dict[int, SparseRow] = {}
        self._rows_at: dict[int, set[int]] = {}
        for row in rows:
            self.add(row)

    def __len__(self) -> int:
        return len(self.rows)

    def reduce(self, row: SparseRow) -> SparseRow:
        """Content-1 remainder of ``row`` against the basis; empty iff in the span."""
        basis = self.rows
        vec = dict(row)
        # Basis rows vanish at every pivot but their own, so eliminating one
        # pivot never brings in another: one pass over the pivots present.
        for pivot in [c for c in vec if c in basis]:
            brow = basis[pivot]
            a, p = vec[pivot], brow[pivot]
            g = gcd(a, p)
            a, p = a // g, p // g
            if p != 1:
                for c in vec:
                    vec[c] *= p
            for c, v in brow.items():
                x = vec.get(c, 0) - a * v
                if x:
                    vec[c] = x
                else:
                    del vec[c]
            if p != 1 and vec:
                _primitive(vec)
        return _primitive(vec) if vec else vec

    def contains(self, row: SparseRow) -> bool:
        return not self.reduce(row)

    def add(self, row: SparseRow) -> bool:
        """Insert ``row``; False when it already lies in the span."""
        vec = self.reduce(row)
        if not vec:
            return False
        pivot = min(vec)
        if vec[pivot] < 0:
            for c in vec:
                vec[c] = -vec[c]
        p = vec[pivot]
        rows, rows_at = self.rows, self._rows_at
        # Only the rows listed at the new pivot column change.  Each loses its
        # entry there, so the column leaves the map; ``vec`` has no entry at
        # an older pivot, so no other pivot entry moves.
        for other in rows_at.pop(pivot, ()):
            brow = rows[other]
            a = brow[pivot]
            g = gcd(a, p)
            a, s = a // g, p // g
            merged = {c: s * v for c, v in brow.items()} if s != 1 else dict(brow)
            for c, v in vec.items():
                old = merged.get(c)
                if old is None:  # fill-in
                    merged[c] = -a * v
                    rows_at.setdefault(c, set()).add(other)
                    continue
                x = old - a * v
                if x:
                    merged[c] = x
                else:
                    del merged[c]
                    if c != pivot:
                        rows_at[c].discard(other)
            rows[other] = _primitive(merged)
        for c in vec:
            if c != pivot:
                rows_at.setdefault(c, set()).add(pivot)
        rows[pivot] = vec
        return True

    def complement(self, ncols: int) -> list[dict[int, Fraction]]:
        """Right kernel basis of width ``ncols``: one vector per free column, in order.

        Each has 1 at its free column and -row[free] / row[pivot] at each pivot.
        """
        pivots_at: dict[int, dict[int, Fraction]] = {}
        for pivot, row in self.rows.items():
            lead = row[pivot]
            for c, v in row.items():
                if c != pivot:
                    pivots_at.setdefault(c, {})[pivot] = Fraction(-v, lead)
        return [
            {free: Fraction(1), **pivots_at.get(free, {})}
            for free in range(ncols)
            if free not in self.rows
        ]


def _echelon(m: RationalMatrix) -> Echelon:
    return Echelon(
        integer_row((c, x) for c, x in enumerate(row) if x) for row in m.rows
    )


def rref(m: RationalMatrix) -> tuple[RationalMatrix, tuple[int, ...]]:
    """Reduced row echelon form and the pivot columns.  Row space is preserved."""
    basis = _echelon(m).rows
    pivots = tuple(sorted(basis))
    reduced = []
    for p in pivots:
        row, lead = basis[p], basis[p][p]
        reduced.append(tuple(Fraction(row.get(c, 0), lead) for c in range(m.cols)))
    return RationalMatrix(tuple(reduced), m.cols), pivots


def rank(m: RationalMatrix) -> int:
    return len(_echelon(m))


def nullspace(m: RationalMatrix) -> RationalMatrix:
    """Rows form a basis of the right kernel {x : M x^T = 0}."""
    kernel = _echelon(m).complement(m.cols)
    return RationalMatrix.from_rows(([v.get(c, 0) for c in range(m.cols)] for v in kernel), m.cols)


def _check_widths(a: RationalMatrix, b: RationalMatrix) -> None:
    if a.cols != b.cols:
        raise ValueError(f"column mismatch: {a.cols} vs {b.cols}")


def span_contains(a: RationalMatrix, b: RationalMatrix) -> bool:
    """True iff every row of ``b`` lies in the row space of ``a``."""
    _check_widths(a, b)
    basis = _echelon(a)
    return all(
        basis.contains(integer_row((c, x) for c, x in enumerate(row) if x))
        for row in b.rows
    )


def span_equal(a: RationalMatrix, b: RationalMatrix) -> bool:
    """True iff the row spaces coincide (the reduced echelon basis is canonical)."""
    _check_widths(a, b)
    return _echelon(a).rows == _echelon(b).rows


def orthogonal_complement(relations: RationalMatrix, form: DiagonalForm) -> RationalMatrix:
    """Basis of {x : <x, r> = 0 for all rows r}, the form being diagonal.

    Equals the null space of ``relations`` with columns rescaled by the signs;
    dim(result) + rank(relations) is the ambient dimension.
    """
    if relations.cols != len(form):
        raise ValueError(
            f"dimension mismatch: {relations.cols} columns vs form of size {len(form)}"
        )
    scaled = RationalMatrix(
        tuple(
            tuple(x * s for x, s in zip(row, form.signs))
            for row in relations.rows
        ),
        relations.cols,
    )
    return nullspace(scaled)
