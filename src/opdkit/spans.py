"""Componentwise span comparison of relation sets, the one question opdkit answers.

The relations of each (arity, weight) grading become sparse integer rows
over the trees that occur in them, reduced by the ``Echelon`` kernel of
``linalg``; a relation's integer coefficients are worked out once, and a
colored relation takes its template's.  ``span_components`` is the one
routine that walks the gradings, reporting both ranks and whether the
spans are equal and whether the left contains the right; ``equal`` and
``contains`` are the only code that reads a verdict off such a report.

``component_matrix`` (the dense rows over the full canonical basis) and
``relation_gradings`` are not used by the program: the tests keep the first
as the dense reference, and the benchmark's tracer and the acceptance gate
look both up by name in ``presentation``, which binds this module's seven
public names.
"""

from __future__ import annotations

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
        return primitive_row(row)


def _by_grading(relations: Iterable[Relation]) -> dict[tuple[int, int], list[Relation]]:
    out: dict[tuple[int, int], list[Relation]] = {}
    for rel in relations:
        tree = rel.terms[0].tree
        out.setdefault((tree.arity, tree.weight), []).append(rel)
    return out


def span_components(p: Presentation, q: Presentation) -> Iterator[SpanComponent]:
    """Compare the relation spans of ``p`` and ``q``, one grading at a time.

    Yields a record for every grading in which either side has a relation,
    in grading order, so a caller may stop at the first unequal one.
    """
    problem = shared_generators_problem(p, q)
    if problem:
        raise ValueError(f"presentations live over different generators: {problem}")
    gens = frozenset(p.generators)
    left, right = _by_grading(p.relations), _by_grading(q.relations)
    for grading in sorted(left.keys() | right.keys()):
        # One column map serves both sides, so the canonical bases compare.
        columns = _Columns(gens, grading)
        ours = Echelon(map(columns.row, left.get(grading, ())))
        theirs = Echelon(map(columns.row, right.get(grading, ())))
        same = ours.rows == theirs.rows
        holds = same or all(map(ours.contains, theirs.rows.values()))
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
    """True iff every relation of ``small`` lies in the componentwise span of ``big``."""
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
