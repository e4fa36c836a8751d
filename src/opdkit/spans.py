"""Componentwise span comparison of relation sets, the one question opdkit answers.

The relations of each (arity, weight) grading become sparse integer rows
over the trees that occur in them, reduced by the ``Echelon`` kernel of
``linalg``, which takes content-1 rows.  Content 1 is made where the
integers are: a relation's integer coefficients (``presentation._integers``)
are coprime, worked out once, and a colored relation takes its template's,
so a row is its relation's integers as they are.  Only a row in which two
terms share a tree, or one has coefficient 0, is made content 1 again.
``_gradings`` is the one walk over the gradings: it checks the generators,
takes one column map per grading and splits the relations of the two sides
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

Two sides that hold one input's column maps take the shared path: every
kept build of the input and the formal side of ``lin_encoding_sides``
hold them (``_keep_bases_over``).  Their trees were stamped from the
input's validated templates over the build's own generators, so none is
admitted again, and each side keeps its echelon basis per grading, made
on first use and never grown afterwards.  A fully reduced content-1 basis
whose pivots are least columns is unique for a fixed column order, and a
shared map only ever adds columns, so a kept basis equals one made afresh
and a question asked again eliminates nothing.  Any other pair (parsed
files, duals, products, renamed copies) rows over a fresh map per grading,
which admits every tree, and eliminates afresh.

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
    shared generators, which is membership in the graded component.  A map
    made without generators is an input's shared map (see ``_gradings``),
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


_Bases = dict[tuple[int, int], Echelon]


class _Kept:
    """What a presentation on one input's shared column maps keeps for the
    span engine: the input's maps by grading (``columns``), its relations
    by grading (``graded``) and its echelon basis per grading (``bases``),
    each basis made on first use and never grown afterwards."""

    __slots__ = ("columns", "graded", "bases")

    def __init__(self, columns: dict[tuple[int, int], _Columns], p: Presentation) -> None:
        self.columns = columns
        self.graded = {g: tuple(rels) for g, rels in _by_grading(p.relations).items()}
        self.bases: _Bases = {}


def _keep_bases_over(p: Presentation, columns: dict[tuple[int, int], _Columns]) -> Presentation:
    """``p``, set to row its relations over ``columns``, one input's column
    maps by grading, and to keep its echelon basis in each grading.

    Only for a presentation each of whose trees was stamped from that
    input's validated templates over ``p``'s own generators: such trees are
    not admitted again.  What ``p`` keeps lives in its instance dict, which
    copies and pickles leave behind.
    """
    vars(p)["_spans"] = _Kept(columns, p)
    return p


class _Grading(NamedTuple):
    """The relations of both sides in one grading, split by object identity.

    ``row`` makes a relation's row over the grading's one column map, so the
    canonical bases of both sides compare.  Callers row ``shared``, then
    ``mine``, then ``yours``, so a relation outside the component is named
    as in ``span_components`` whatever the question.  ``kept`` holds the
    two sides' kept bases when both row over one input's shared map, and
    is ``None`` when the map was made for this walk.
    """

    grading: tuple[int, int]
    row: Callable[[Relation], SparseRow]
    shared: list[Relation]  # objects on both sides, in the right side's order
    mine: list[Relation]  # the left side's own
    yours: list[Relation]  # the right side's own
    kept: Optional[tuple[_Bases, _Bases]]


def _gradings(p: Presentation, q: Presentation) -> Iterator[_Grading]:
    """Walk the gradings in which either side has a relation, in grading order.

    Two sides on one input's shared column maps (``_keep_bases_over``) row
    over those and read what they keep; any other pair rows over a fresh
    map per grading, which admits every tree.
    """
    problem = shared_generators_problem(p, q)
    if problem:
        raise ValueError(f"presentations live over different generators: {problem}")
    p_kept, q_kept = vars(p).get("_spans"), vars(q).get("_spans")
    if p_kept is not None and q_kept is not None and p_kept.columns is q_kept.columns:
        columns, kept = p_kept.columns, (p_kept.bases, q_kept.bases)
        left, right = p_kept.graded, q_kept.graded
    else:
        gens, kept = frozenset(p.generators), None
        left, right = _by_grading(p.relations), _by_grading(q.relations)
    for grading in sorted(left.keys() | right.keys()):
        if kept is None:
            cols = _Columns(gens, grading)
        else:
            cols = columns.get(grading)
            if cols is None:
                cols = columns[grading] = _Columns(None, grading)
        mine, yours = left.get(grading, ()), right.get(grading, ())
        both = {id(rel) for rel in mine}.intersection(map(id, yours))
        yield _Grading(
            grading,
            cols.row,
            [rel for rel in yours if id(rel) in both],
            [rel for rel in mine if id(rel) not in both],
            [rel for rel in yours if id(rel) not in both],
            kept,
        )


def _extended(base: Echelon, rows: Iterable[SparseRow]) -> Echelon:
    """A frozen basis of ``base``'s rows and ``rows``; ``base`` is left as it is."""
    basis = base.copy()
    for vec in rows:
        basis.add(vec)
    return basis.frozen()


def _basis(g: _Grading) -> Echelon:
    """The left side's basis in ``g``, as kept or made here and kept."""
    left = g.kept[0] if g.kept else {}
    basis = left.get(g.grading)
    if basis is None:
        basis = left[g.grading] = Echelon(map(g.row, g.shared + g.mine)).frozen()
    return basis


def _bases(g: _Grading) -> tuple[Echelon, Echelon]:
    """Both sides' bases in ``g``: each as kept, or made here and kept.

    A relation object that both sides hold is reduced once: into the kept
    basis of a side that holds no other relation here, or else into a
    basis that each side's own rows extend.
    """
    grading, row = g.grading, g.row
    left, right = g.kept or ({}, {})
    ours, theirs = left.get(grading), right.get(grading)
    if ours is None or theirs is None:
        if ours is not None and not g.mine:
            base = ours
        elif theirs is not None and not g.yours:
            base = theirs
        else:
            base = Echelon(map(row, g.shared))
        if ours is None:
            ours = left[grading] = _extended(base, map(row, g.mine))
        if theirs is None:
            theirs = right[grading] = _extended(base, map(row, g.yours))
    return ours, theirs


def span_components(p: Presentation, q: Presentation) -> Iterator[SpanComponent]:
    """Compare the relation spans of ``p`` and ``q``, one grading at a time.

    Yields a record for every grading in which either side has a relation,
    in grading order, so a caller may stop at the first unequal one.  Two
    sides on one input's shared map read their kept bases, made on first
    use; any other pair eliminates both sides afresh.
    """
    for g in _gradings(p, q):
        ours, theirs = _bases(g)
        same = ours.rows == theirs.rows
        # The right span lies in the left one iff each of its basis rows does.
        holds = same or all(map(ours.contains, theirs.rows.values()))
        yield SpanComponent(*g.grading, len(ours), len(theirs), same, holds)


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
    On one input's shared map ``big``'s basis is the kept one, made on first
    use.  On a fresh map every relation of both sides is still made a row,
    so every tree is admitted, up to the first grading that fails.
    """
    for g in _gradings(big, small):
        if not g.yours:
            if g.kept is None:
                for rel in g.shared + g.mine:  # rowed to admit its trees, never eliminated
                    g.row(rel)
            continue
        basis = _basis(g)
        own = list(map(g.row, g.yours))
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
