"""Exact linear algebra: one sparse fraction-free elimination kernel.

Every span question reduces to the ``Echelon`` kernel.  A row is a sparse
integer vector ``{column: int}`` with content 1 (entries coprime), which
fixes a rational row up to a nonzero scalar.  ``integer_row`` makes one from
rational entries by scaling them all by one common denominator, so rows are
integer from the start and no rational sum is formed; ``primitive_row``
finishes a row whose entries are already integers.  ``Echelon`` takes only
such rows: every row given to ``reduce``, ``contains`` or ``add`` must be
empty or have nonzero coprime entries.  A row that meets no pivot is
returned as given, so a zero entry or a common factor would reach the
basis (a zero entry as a pivot of value 0).  ``Echelon`` keeps an echelon
basis keyed by pivot column: each basis row has a positive entry at its
pivot, which is its smallest column.  Rows are reduced fraction-free,
cross-multiplying by the pivot and dividing out the content, in one step
(``_eliminate``), so no rational arithmetic happens inside the kernel.

``add`` eliminates forward only: a new row is reduced against the pivots
it meets, in increasing order, and stored above them, so a stored row may
hold a later pivot.  The basis is fully reduced whenever it is read:
reading ``rows``, as ``reduce``, ``contains``, ``complement`` and ``copy``
do, first back-substitutes once, in decreasing pivot order, if an ``add``
has come since the last read.  A fully reduced basis has no entry at any
pivot but a row's own; given a column order it is the reduced row echelon
form up to row scaling, hence canonical: two bases over one column map
span the same space iff their rows are equal.  A copy shares its source's
rows, and neither ``add`` nor a back pass edits a row: both replace it.

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
from heapq import heapify, heappop, heappush
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


def _eliminate(vec: SparseRow, pivot: int, brow: SparseRow) -> None:
    """Clear ``vec``'s entry at ``pivot`` with the basis row ``brow``, in
    place and fraction-free: ``vec`` is scaled by ``brow``'s pivot entry
    over their gcd, and divided by its content after a scaling."""
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


class Echelon:
    """A fraction-free echelon basis keyed by pivot column, fully reduced
    whenever ``rows`` is read.

    ``add`` only eliminates forward, so a stored row may hold a later
    pivot; it marks that a back pass is owed (``_owed``), which the next
    read of ``rows`` runs.
    """

    __slots__ = ("_rows", "_owed")

    def __init__(self, rows: Iterable[SparseRow] = ()) -> None:
        self._rows: dict[int, SparseRow] = {}
        self._owed = False
        for row in rows:
            self.add(row)

    def __len__(self) -> int:
        return len(self._rows)

    @property
    def rows(self) -> dict[int, SparseRow]:
        """The fully reduced basis, pivot -> row, back-substituted here if a
        pass is owed.  The pass runs in decreasing pivot order, so the later
        pivots a row holds are those of rows already reduced, and one pass
        over them reduces it.  It replaces rows, it never edits one: a copy
        may share them."""
        rows = self._rows
        if self._owed:
            for pivot in sorted(rows, reverse=True):
                row = rows[pivot]
                later = [c for c in row if c != pivot and c in rows]
                if later:
                    vec = dict(row)
                    for c in later:
                        _eliminate(vec, c, rows[c])
                    rows[pivot] = _primitive(vec)
            self._owed = False
        return rows

    def copy(self) -> "Echelon":
        """A basis that starts as this one, read and so fully reduced, and
        then grows on its own.  The rows are shared: neither ``add`` nor a
        back pass edits a row."""
        twin = Echelon()
        twin._rows = dict(self.rows)
        return twin

    def reduce(self, row: SparseRow) -> SparseRow:
        """Content-1 remainder of ``row`` against the basis; empty iff in the span.

        ``row`` must have content 1 (see the module docstring): a copy of it
        is returned as it is when it meets no pivot.
        """
        basis = self.rows
        vec = dict(row)
        # Basis rows vanish at every pivot but their own, so eliminating one
        # pivot never brings in another: one pass over the pivots present.
        for pivot in [c for c in vec if c in basis]:
            _eliminate(vec, pivot, basis[pivot])
        return _primitive(vec) if vec else vec

    def contains(self, row: SparseRow) -> bool:
        return not self.reduce(row)

    def add(self, row: SparseRow) -> bool:
        """Insert ``row``, which must have content 1, eliminated forward;
        False when it already lies in the span."""
        rows = self._rows
        vec = dict(row)
        # A stored row may hold a later pivot, so eliminating one pivot can
        # bring in another: take them in increasing order off a heap.
        heap = [c for c in vec if c in rows]
        heapify(heap)
        while heap:
            pivot = heappop(heap)
            if pivot in vec:
                brow = rows[pivot]
                _eliminate(vec, pivot, brow)
                for c in brow:
                    if c != pivot and c in rows:
                        heappush(heap, c)
        if not vec:
            return False
        _primitive(vec)
        pivot = min(vec)
        if vec[pivot] < 0:
            for c in vec:
                vec[c] = -vec[c]
        rows[pivot] = vec
        self._owed = True
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
