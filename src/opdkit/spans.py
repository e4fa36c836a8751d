"""Componentwise span comparison of relation sets, the one question opdkit answers.

The relations of each (arity, weight) grading become sparse integer rows
over the trees that occur in them, reduced by the ``Echelon`` kernel of
``linalg``, which takes content-1 rows.  Content 1 is made where the
integers are: a relation's integer coefficients (``presentation._integers``)
are coprime, worked out once, and a colored relation takes its template's,
so a row is its relation's integers as they are.  Only a row in which two
terms share a tree, or one has coefficient 0, is made content 1 again.
``_gradings`` is the one walk over the gradings: it checks the generators,
makes one column map per grading and splits the relations of the two sides
by object identity.  ``span_components`` reads a full report off it, both
ranks and whether the spans are equal and whether the left contains the
right; ``equal`` and ``contains`` are the only code that reads a verdict
off such a report.  A relation object found on both sides, as
``build_tot`` shares those of ``build_mat``, is reduced once, into the
basis that each side's own rows extend.  ``presentation_span_contains``
reads its verdict off the same walk without a report: it reads only the
containing side's basis, against which the contained side's own rows are
reduced, and where the contained side holds only shared objects it
eliminates nothing.

``component_matrix`` (the dense rows over the full canonical basis) and
``relation_gradings`` are not used by the program: the tests keep the first
as the dense reference, and the benchmark's tracer and the acceptance gate
look both up by name in ``presentation``, which binds them and the two
``presentation_span_*`` checks.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

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
    """Column numbers for the trees that occur in the relations of one grading.

    Only trees that some relation uses get a column, in order of first
    appearance, so no graded basis is enumerated.  A tree is admitted once,
    when it first appears: it must have the grading and be built from the
    shared generators, which is membership in the graded component.
    """

    def __init__(self, gens: frozenset[Generator], grading: tuple[int, int]) -> None:
        self.gens = gens
        self.grading = grading
        self.cols: dict[Tree, int] = {}

    def row(self, rel: Relation) -> SparseRow:
        cols = self.cols
        row: SparseRow = {}
        for term, value in zip(rel.terms, rel._integer_coefficients):
            tree = term.tree
            col = cols.get(tree)
            if col is None:
                if (tree.arity, tree.weight) != self.grading or not self.gens.issuperset(
                    tree.internal_generators()
                ):
                    raise _outside_component(rel)
                col = cols[tree] = len(cols)
            row[col] = row.get(col, 0) + value
        # Unmerged nonzero entries are the relation's coprime integers, a
        # content-1 row; a merged column or a 0*t term may leave zeros or a
        # common factor.
        if len(row) < len(rel.terms) or 0 in row.values():
            return primitive_row(row)
        return row


def _by_grading(relations: Iterable[Relation]) -> dict[tuple[int, int], list[Relation]]:
    out: dict[tuple[int, int], list[Relation]] = {}
    for rel in relations:
        tree = rel.terms[0].tree
        out.setdefault((tree.arity, tree.weight), []).append(rel)
    return out


class _Grading(NamedTuple):
    """The relations of both sides in one grading, split by object identity.

    ``row`` makes a relation's row over the grading's one column map, so the
    canonical bases of both sides compare.  Callers row ``shared``, then
    ``mine``, then ``yours``, so a relation outside the component is named
    as in ``span_components`` whatever the question.
    """

    grading: tuple[int, int]
    row: Callable[[Relation], SparseRow]
    shared: list[Relation]  # objects on both sides, in the right side's order
    mine: list[Relation]  # the left side's own
    yours: list[Relation]  # the right side's own


def _gradings(p: Presentation, q: Presentation) -> Iterator[_Grading]:
    """Walk the gradings in which either side has a relation, in grading order."""
    problem = shared_generators_problem(p, q)
    if problem:
        raise ValueError(f"presentations live over different generators: {problem}")
    gens = frozenset(p.generators)
    left, right = _by_grading(p.relations), _by_grading(q.relations)
    for grading in sorted(left.keys() | right.keys()):
        mine, yours = left.get(grading, ()), right.get(grading, ())
        both = {id(rel) for rel in mine}.intersection(map(id, yours))
        yield _Grading(
            grading,
            _Columns(gens, grading).row,
            [rel for rel in yours if id(rel) in both],
            [rel for rel in mine if id(rel) not in both],
            [rel for rel in yours if id(rel) not in both],
        )


def span_components(p: Presentation, q: Presentation) -> Iterator[SpanComponent]:
    """Compare the relation spans of ``p`` and ``q``, one grading at a time.

    Yields a record for every grading in which either side has a relation,
    in grading order, so a caller may stop at the first unequal one.
    """
    for grading, row, shared, mine, yours in _gradings(p, q):
        # A shared relation is reduced once, into the basis both sides extend.
        theirs = Echelon(map(row, shared))
        ours = theirs.copy()
        for rel in mine:
            ours.add(row(rel))
        # The shared rows lie in both spans: only the right side's own rows
        # are left to test.
        own = list(map(row, yours))
        for vec in own:
            theirs.add(vec)
        same = ours.rows == theirs.rows
        holds = same or all(map(ours.contains, own))
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
    """True iff every relation of ``small`` lies in the componentwise span of ``big``.

    The verdict of ``contains(span_components(big, small))``, read from
    ``big``'s basis alone: ``small``'s own rows are reduced against it, and
    ``small``'s echelon basis is never built.  A grading in which every
    relation of ``small`` is one of ``big``'s objects eliminates nothing.
    Every relation of both sides is still made a row, so every tree is
    admitted, up to the first grading that fails.
    """
    for _, row, shared, mine, yours in _gradings(big, small):
        if not yours:
            for rel in shared + mine:  # rowed to admit its trees, never eliminated
                row(rel)
            continue
        basis = Echelon(map(row, shared + mine))
        own = list(map(row, yours))
        if not all(map(basis.contains, own)):
            return False
    return True


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
