"""Componentwise span comparison of relation sets, the one question opdkit answers.

The relations of each (arity, weight) grading become sparse integer rows
over the trees that occur in them, reduced by the ``Echelon`` kernel of
``linalg``, which takes content-1 rows.  Content 1 is made where the
integers are: a relation's integer coefficients (``presentation._integers``)
are coprime, worked out once, and a colored relation takes its template's,
so a row is its relation's integers as they are.  Only a row in which two
terms share a tree, or one has coefficient 0, is made content 1 again.
Each side of a question (``_Side``) holds its relations by grading and
makes the echelon basis of its own rows in a grading on first use, over a
column map per grading that both sides share.  ``span_components`` is the
one walk over the gradings, and reads a full report off the two bases:
both ranks and whether the spans are equal and whether the left contains
the right.  ``equal`` and ``contains`` are the only code that reads a
verdict off such a report, and ``presentation_span_equal`` and
``presentation_span_contains`` are those two verdicts of the report.

Two presentations that hold one input's column maps take the kept path:
every kept build of the input and the formal side of
``lin_encoding_sides`` keep their sides over them (``_keep_bases_over``).
Their trees were stamped from the input's validated templates over the
build's own generators, so none is admitted again, and each side keeps
its echelon basis per grading, made on first use and never grown
afterwards.  A fully reduced content-1 basis whose pivots are least
columns is unique for a fixed column order, and a shared map only ever
adds columns, so a kept basis equals one made afresh and a question
asked again eliminates nothing.  ``build_tot`` is
``build_mat`` plus swaps, so tot is kept as extending mat: its basis is a
copy of mat's kept basis grown by the swap rows, and mat's rows are never
eliminated for tot.  Any other pair (parsed files, duals, products,
renamed copies) rows over a fresh map per grading, which admits every
tree, and eliminates both sides afresh.

``component_matrix`` (the dense rows over the full canonical basis) and
``relation_gradings`` are not used by the program: the tests keep the first
as the dense reference, and the benchmark's tracer and the acceptance gate
look both up by name in ``presentation``, which binds them and the two
``presentation_span_*`` checks.
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
    shared generators, which is membership in the graded component.  A map
    made without generators is an input's shared map (see ``_sides``),
    whose trees were all stamped from that input's validated templates, so
    it admits none.
    """

    def __init__(self, gens: Optional[frozenset[Generator]], grading: tuple[int, int]) -> None:
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
                if self.gens is not None and (
                    (tree.arity, tree.weight) != self.grading
                    or not self.gens.issuperset(tree.internal_generators())
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


class _Side:
    """One side of a span question: a presentation's relations by grading
    (``graded``), rowed over column maps by grading that both sides share
    (``columns``, each map made on first use and admitting trees by
    ``gens`` as ``_Columns`` does), and its echelon basis per grading
    (``bases``), each made on first use and never grown afterwards.

    A side that extends another (``extends``) holds all of that side's
    relation objects: its basis in a grading is a copy of the other's
    grown by its own rows (``own``), so the rows they share are never
    eliminated for it.  A side that extends none owns all its rows.
    """

    __slots__ = ("columns", "gens", "graded", "bases", "extends", "own")

    def __init__(self, columns: dict[tuple[int, int], _Columns], p: Presentation,
                 gens: Optional[frozenset[Generator]] = None, extends: Optional[_Side] = None) -> None:
        self.columns, self.gens, self.extends = columns, gens, extends
        self.graded = self.own = _by_grading(p.relations)
        self.bases: dict[tuple[int, int], Echelon] = {}
        if extends is not None:
            held = {id(rel) for rels in extends.graded.values() for rel in rels}
            self.own = _by_grading(rel for rel in p.relations if id(rel) not in held)

    def basis(self, grading: tuple[int, int]) -> Echelon:
        """The basis of this side's rows in ``grading``, as kept or made here and kept."""
        basis = self.bases.get(grading)
        if basis is None:
            row = self.columns.setdefault(grading, _Columns(self.gens, grading)).row
            basis = Echelon() if self.extends is None else self.extends.basis(grading).copy()
            for rel in self.own.get(grading, ()):
                basis.add(row(rel))
            basis = self.bases[grading] = basis.frozen()
        return basis


def _keep_bases_over(p: Presentation, columns: dict[tuple[int, int], _Columns],
                     extends: Optional[Presentation] = None) -> Presentation:
    """``p``, set to row its relations over ``columns``, one input's column
    maps by grading, and to keep its side, bases and all, for every span
    question it is asked.

    Only for a presentation each of whose trees was stamped from that
    input's validated templates over ``p``'s own generators: such trees are
    not admitted again.  ``extends``, kept over the same maps, is one whose
    relation objects ``p`` all holds; ``p``'s bases then extend its.  What
    ``p`` keeps lives in its instance dict, which copies and pickles leave
    behind.
    """
    vars(p)["_spans"] = _Side(columns, p, extends=None if extends is None else vars(extends)["_spans"])
    return p


def _sides(p: Presentation, q: Presentation) -> tuple[_Side, _Side]:
    """The two sides of a span question about ``p`` and ``q``.

    Two presentations kept over one input's column maps
    (``_keep_bases_over``) give the sides they keep; any other pair gets
    two sides over fresh maps, made for this question, which admit every
    tree and eliminate both afresh.
    """
    problem = shared_generators_problem(p, q)
    if problem:
        raise ValueError(f"presentations live over different generators: {problem}")
    ours, theirs = vars(p).get("_spans"), vars(q).get("_spans")
    if ours is None or theirs is None or ours.columns is not theirs.columns:
        columns, gens = {}, frozenset(p.generators)
        ours, theirs = _Side(columns, p, gens), _Side(columns, q, gens)
    return ours, theirs


def span_components(p: Presentation, q: Presentation) -> Iterator[SpanComponent]:
    """Compare the relation spans of ``p`` and ``q``, one grading at a time.

    Yields a record for every grading in which either side has a relation,
    in grading order, so a caller may stop at the first unequal one.  Two
    sides on one input's shared map read their kept bases, made on first
    use; any other pair eliminates both sides afresh.
    """
    left, right = _sides(p, q)
    for grading in sorted(left.graded.keys() | right.graded.keys()):
        ours, theirs = left.basis(grading), right.basis(grading)
        same = ours.rows == theirs.rows
        # The right span lies in the left one iff each of its basis rows does.
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
