"""Componentwise span comparison of relation sets, the one question opdkit answers.

The relations of each (arity, weight) grading become sparse integer rows
over the trees that occur in them, reduced by the ``Echelon`` kernel of
``linalg``, which takes content-1 rows.  Content 1 is made where the
integers are: a relation's integer coefficients (``presentation._integers``)
are coprime, worked out once, and a colored relation takes its template's,
so a row is its relation's integers as they are.  Only a row in which two
terms share a tree, or one has coefficient 0, is made content 1 again.
Each presentation keeps its side of every span question (``_Side``, in
its instance dict under ``_spans``, made on first use): its relations by
grading and the echelon basis of its own rows per grading, made on first
use and never grown afterwards.  The rows are over one column map per
(generator set, grading), which every side over those generators shares
and which lives as long as some side holds it (``_COLUMNS``), its columns
by first appearance; ``duality.koszul_dual`` rows over maps of its own,
seeded with each ambient basis, which never enter ``_COLUMNS``.  A tree is
admitted once, when it first gets a column in its map.  A fully reduced
content-1 basis whose pivots are least columns is unique for a fixed
column order, and a map only ever adds columns, so a kept basis equals
one made afresh and a question asked again eliminates nothing.
``span_components`` is the one walk over the gradings, and reads a full
report off the two bases: both ranks and whether the spans are equal and
whether the left contains the right.  ``equal`` and ``contains`` are the
only code that reads a verdict off such a report, and
``presentation_span_equal`` and ``presentation_span_contains`` are those
two verdicts of the report.  Which side a presentation gets does not
depend on where it came from, with one exception that its maker states:
``build_tot`` is ``build_mat`` plus swaps, so tot's side extends mat's
(``_extends``), and its basis in a grading is a copy of mat's grown by
the swap rows.  A side groups its relations by grading on its first
question, so a build never asked one, as ``opdkit build`` prints it,
groups nothing.

``component_matrix`` (the dense rows over the full canonical basis) and
``relation_gradings`` are not used by the program: the benchmark's tracer
looks both up by name in ``presentation``, which binds them and the two
``presentation_span_*`` checks, and the acceptance gate reads
``component_matrix`` there.
"""

from __future__ import annotations

import weakref
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple, Optional, Sequence

from .linalg import Echelon, RationalMatrix, SparseRow, primitive_row
from .trees import Generator, GradedComponent, Tree, enumerate_basis

if TYPE_CHECKING:
    from .presentation import Presentation, Relation

__all__ = [
    "SpanComponent",
    "span_components",
    "equal",
    "contains",
    "presentation_span_equal",
    "presentation_span_contains",
    "shared_generators_problem",
    "relation_gradings",
    "component_matrix",
]


class SpanComponent(NamedTuple):
    """The comparison of two relation sets in one (arity, weight) grading."""

    arity: int
    weight: int
    left_rank: int
    right_rank: int
    equal: bool
    contains: bool  # every relation of the right side lies in the left span


def shared_generators_problem(p: Presentation, q: Presentation) -> Optional[str]:
    """The generators only one of ``p`` and ``q`` has, as ``a, b not shared``, or ``None``."""
    unshared = set(p.generators) ^ set(q.generators)
    return f"{', '.join(sorted(g.text for g in unshared))} not shared" if unshared else None


def _outside_component(rel: Relation) -> ValueError:
    return ValueError(
        f"relation {rel.name} contains a tree outside its graded component"
    )


class _Columns:
    """Column numbers for the trees of one grading over one generator set.

    Seeded with an ambient ``basis`` (the Koszul dual's), a map starts with
    one column per basis tree, in order; otherwise only trees that some
    relation uses get a column, in order of first appearance, so no graded
    basis is enumerated.  A tree is admitted once, when it first appears: it
    must have the grading and be built from the generators, which is
    membership in the graded component.
    """

    def __init__(self, gens: frozenset[Generator], grading: tuple[int, int],
                 basis: Sequence[Tree] = ()) -> None:
        self.gens = gens
        self.arity, self.weight = grading
        self.cols: dict[Tree, int] = {tree: col for col, tree in enumerate(basis)}

    def row(self, rel: Relation) -> SparseRow:
        cols = self.cols
        row: SparseRow = {}
        for term, value in zip(rel.terms, rel._integer_coefficients):
            tree = term.tree
            col = cols.get(tree)
            if col is None:
                if (tree.arity != self.arity or tree.weight != self.weight
                        or not self.gens.issuperset(tree.internal_generators())):
                    raise _outside_component(rel)
                col = cols[tree] = len(cols)
            row[col] = row.get(col, 0) + value
        # Unmerged nonzero entries are the relation's coprime integers, a
        # content-1 row; a merged column or a 0*t term may leave zeros or a
        # common factor.
        if len(row) < len(rel.terms) or 0 in row.values():
            return primitive_row(row)
        return row


# The column map of each (generator set, grading) that some side holds.
_COLUMNS: weakref.WeakValueDictionary[tuple[frozenset[Generator], tuple[int, int]], _Columns] = (
    weakref.WeakValueDictionary()
)


def _by_grading(relations: Iterable[Relation]) -> dict[tuple[int, int], list[Relation]]:
    out: dict[tuple[int, int], list[Relation]] = {}
    for rel in relations:
        tree = rel.terms[0].tree
        out.setdefault((tree.arity, tree.weight), []).append(rel)
    return out


class _Side:
    """One presentation's side of every span question: its relations by
    grading (``graded``), the column map of each grading it has rowed
    (``columns``, the one in ``_COLUMNS``, held as long as the side lives)
    and its echelon basis per grading (``bases``), each made on first use
    and never grown afterwards.

    A side that extends another (``extends``) holds all of that side's
    relations and rows only its own (``own``): its basis in a grading is a
    copy of the other's grown by its own rows.  A side that extends none
    owns all its rows.  Making a side records these only; the relations
    are grouped by grading and the generator set frozen on its first
    question (``ready``), so a presentation never asked one groups nothing.
    """

    __slots__ = ("gens", "relations", "graded", "own", "extends", "columns", "bases")

    def __init__(self, p: Presentation, extends: Optional[_Side] = None,
                 own: Optional[Iterable[Relation]] = None) -> None:
        self.gens = p.generators
        self.relations = p.relations
        self.graded: Optional[dict[tuple[int, int], list[Relation]]] = None
        self.own = own
        self.extends = extends
        self.columns: dict[tuple[int, int], _Columns] = {}
        self.bases: dict[tuple[int, int], Echelon] = {}

    def ready(self) -> _Side:
        """This side, its relations grouped by grading and its generator set frozen."""
        if self.graded is None:
            self.gens = frozenset(self.gens)
            self.graded = _by_grading(self.relations)
            self.own = self.graded if self.own is None else _by_grading(self.own)
        return self

    def basis(self, grading: tuple[int, int]) -> Echelon:
        """The basis of this side's rows in ``grading``, as kept or made here and kept."""
        basis = self.bases.get(grading)
        if basis is None:
            self.ready()
            columns = self.columns[grading] = _COLUMNS.setdefault(
                (self.gens, grading), _Columns(self.gens, grading)
            )
            basis = Echelon() if self.extends is None else self.extends.basis(grading).copy()
            for rel in self.own.get(grading, ()):
                basis.add(columns.row(rel))
            self.bases[grading] = basis
        return basis


def _side(p: Presentation) -> _Side:
    """``p``'s side, made on first use and kept in its instance dict, which
    copies and pickles leave behind."""
    side = vars(p).get("_spans")
    if side is None:
        side = vars(p)["_spans"] = _Side(p)
    return side


def _extends(p: Presentation, base: Presentation, own: Iterable[Relation]) -> Presentation:
    """``p``, whose relations are all of ``base``'s objects plus ``own``,
    given a side whose bases extend ``base``'s, so that ``base``'s rows are
    never eliminated for it.  Only the extension is recorded here."""
    vars(p)["_spans"] = _Side(p, _side(base), own)
    return p


def _sides(p: Presentation, q: Presentation) -> tuple[_Side, _Side]:
    """The sides of a span question about ``p`` and ``q``, which must share their generators."""
    left, right = _side(p).ready(), _side(q).ready()
    if left.gens != right.gens:
        problem = shared_generators_problem(p, q)
        raise ValueError(f"presentations live over different generators: {problem}")
    return left, right


def span_components(p: Presentation, q: Presentation) -> Iterator[SpanComponent]:
    """Compare the relation spans of ``p`` and ``q``, one grading at a time.

    Yields a record for every grading in which either side has a relation,
    in grading order, so a caller may stop at the first unequal one.  Both
    sides read their kept bases, made on first use.
    """
    left, right = _sides(p, q)
    # A side's bases extend those of the side it extends, so contain them.
    grown = left.extends is right
    for grading in sorted(left.graded.keys() | right.graded.keys()):
        ours, theirs = left.basis(grading), right.basis(grading)
        same = ours.rows == theirs.rows
        # The right span lies in the left one iff each of its basis rows does.
        holds = same or grown or all(map(ours.contains, theirs.rows.values()))
        yield SpanComponent(*grading, len(ours), len(theirs), same, holds)


def equal(report: Iterable[SpanComponent]) -> bool:
    """Whether the spans are equal in every grading of ``report``; stops at the first that differs."""
    return all(c.equal for c in report)


def contains(report: Iterable[SpanComponent]) -> bool:
    """Whether the left span contains the right one in every grading of ``report``."""
    return all(c.contains for c in report)


def presentation_span_equal(p: Presentation, q: Presentation) -> bool:
    """Componentwise row-space equality of the two relation sets."""
    return equal(span_components(p, q))


def presentation_span_contains(big: Presentation, small: Presentation) -> bool:
    """True iff every relation of ``small`` lies in the componentwise span of
    ``big``: ``contains(span_components(big, small))``, which stops at the
    first grading that fails."""
    return contains(span_components(big, small))


def relation_gradings(relations: Iterable[Relation]) -> list[tuple[int, int]]:
    return sorted({r.grading() for r in relations})


def component_matrix(
    gens: Sequence[Generator],
    relations: Iterable[Relation],
    arity: int,
    weight: int,
) -> tuple[GradedComponent, RationalMatrix]:
    """Coefficient rows of the relations of one grading over the canonical basis."""
    component = enumerate_basis(gens, arity, weight)
    index = component.index()
    rows = []
    for rel in relations:
        if rel.grading() != (arity, weight):
            continue
        vec = [Fraction(0)] * component.dimension
        for term in rel.terms:
            try:
                vec[index[term.tree]] += term.coeff
            except KeyError:
                raise _outside_component(rel) from None
        rows.append(tuple(vec))
    return component, RationalMatrix(tuple(rows), component.dimension)
