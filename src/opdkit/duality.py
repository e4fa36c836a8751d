"""Koszul duals of quadratic presentations via signed orthogonal complements.

The weight-2 component of the free operad over dual generators pairs
diagonally with the original one: a dual tree pairs only with the tree of
the same shape and matching decorations, and the sign depends on the shape
alone: -1 for a unary vertex at the root of a binary one and for the right
comb, +1 for the other four shapes, with any number of generators.  The
signs are kept with the standard slots in one table of ``presentation``,
keyed by ``Tree.shape``.

The dual of P = T(E)/<R> is then T(E*)/<R^perp> with R^perp computed per
arity component, the complement of an empty relation set being the full
ambient component.  With the relation rows (``spans._Columns.row`` over the
ambient tree basis) scaled column by column by the signs, R^perp is the
right kernel of the scaled rows: one vector per free column of their
sparse echelon basis.
"""

from __future__ import annotations

import itertools
import math
from typing import Optional

from .compat import CompatKind, build_compatible
from .linalg import Echelon
from .presentation import (
    _WEIGHT_TWO_SHAPES,
    ColorSet,
    Presentation,
    Relation,
    _term,
    rename_generators,
    require_valid,
)
from .spans import SpanComponent, _Columns, presentation_span_equal, span_components
from .trees import Tree, _flat_tree, _require, enumerate_basis

__all__ = [
    "shape_sign",
    "dual_problem",
    "koszul_dual",
    "SELF_DUALITY_BUDGET",
    "self_duality_problem",
    "self_duality",
    "is_self_dual",
    "dual_identity_sides",
    "check_dual_identity",
]


def shape_sign(tree: Tree) -> int:
    """Pairing sign of a weight-2 tree, by shape only."""
    if tree.weight != 2:
        raise ValueError("pairing signs are defined on weight-2 trees")
    return _WEIGHT_TWO_SHAPES[tree.shape][0]


def dual_problem(p: Presentation) -> Optional[str]:
    """Why ``koszul_dual`` is undefined on ``p`` (a relation not quadratic), or ``None``."""
    for rel in p.relations:
        if rel.weight != 2:
            return (
                "Koszul dual undefined for non-quadratic presentation: "
                f"relation {rel.name} has weight {rel.weight}"
            )
    return None


def koszul_dual(p: Presentation) -> Presentation:
    """T(E*)/<R^perp> for a quadratic presentation, componentwise by arity.

    A relation's row is its span-engine row (``spans._Columns.row``, over a
    local map seeded with the ambient basis) times the pairing signs of its
    columns (``shape_sign``), still content 1.  Once ``p`` is valid and
    quadratic, each dual basis tree is its tree's shape over the dual
    generators, one per generator, made once and unchecked, and carries the
    standard slots of its shape.
    """
    require_valid(p)
    _require(dual_problem(p))
    dual_of = {g: g.dual() for g in p.generators}.__getitem__

    rels: list[Relation] = []
    for arity in (1, 2, 3):
        component = enumerate_basis(p.generators, arity, 2)
        if component.dimension == 0:
            continue
        columns = _Columns(frozenset(p.generators), (arity, 2), component.basis)
        signs = [shape_sign(t) for t in component.basis]
        relations = Echelon(
            {col: signs[col] * v for col, v in columns.row(rel).items()}
            for rel in p.relations if rel.arity == arity
        )
        dual_basis = [
            (_flat_tree(t.shape, tuple(map(dual_of, t._gens))), _WEIGHT_TWO_SHAPES[t.shape][1])
            for t in component.basis
        ]
        for i, vec in enumerate(relations.complement(component.dimension)):
            terms = tuple(_term(coeff, *dual_basis[c]) for c, coeff in vec.items())
            rels.append(Relation(f"dual_a{arity}_{i}", terms))
    return Presentation(
        f"dual_{p.name}", tuple(map(dual_of, p.unary)), tuple(map(dual_of, p.binary)), tuple(rels)
    )


# The most renamings ``self_duality`` tries; a larger search is refused from
# its count, |unary|! * |binary|!, before the dual is computed.
SELF_DUALITY_BUDGET = 10_000


def self_duality_problem(p: Presentation) -> Optional[str]:
    """Why ``self_duality`` refuses ``p`` (more renamings to try than
    ``SELF_DUALITY_BUDGET``), or ``None``."""
    count = math.factorial(len(p.unary)) * math.factorial(len(p.binary))
    if count > SELF_DUALITY_BUDGET:
        return (
            f"self-duality of {p.name} would try {count} renamings, "
            f"above the budget of {SELF_DUALITY_BUDGET}"
        )
    return None


def self_duality(p: Presentation) -> Optional[tuple[Presentation, list[SpanComponent]]]:
    """The dual under the first arity-preserving renaming of its generators
    that makes it span as p does, with the span report that matched it; or
    ``None``.

    Every bijection is tried, the identity g* -> g first: some self-dual
    presentations match only after permuting same-arity generators.  A
    renaming never changes span dimensions, so differing ranks end the search.
    A search of more than ``SELF_DUALITY_BUDGET`` renamings raises
    ``ValueError`` (see ``self_duality_problem``) before any is tried.
    """
    _require(self_duality_problem(p))
    dual = koszul_dual(p)
    for pu in itertools.permutations(p.unary):
        for pb in itertools.permutations(p.binary):
            mapping = {g.dual(): h for g, h in zip(p.unary + p.binary, pu + pb)}
            renamed, report = rename_generators(dual, mapping), []
            for c in span_components(renamed, p):
                if c.left_rank != c.right_rank:
                    return None
                if not c.equal:
                    break
                report.append(c)
            else:
                return renamed, report
    return None


def is_self_dual(p: Presentation) -> bool:
    """Whether some arity-preserving renaming of the dual matches p's spans;
    refused as ``self_duality`` refuses."""
    return self_duality(p) is not None


_DUAL_SIDE: dict[CompatKind, CompatKind] = {
    "matching": "matching",
    "linear": "total",
    "total": "linear",
}


def dual_identity_sides(
    kind: CompatKind, p: Presentation, omega: ColorSet
) -> tuple[Presentation, Presentation]:
    """dual(kind(P, W)) and dual-kind(dual(P), W).

    The identification (g#w)* = g*#w is automatic: colors and the dual flag
    are independent generator fields.
    """
    omega = ColorSet.of(omega)
    lhs = koszul_dual(build_compatible(kind, p, omega))
    rhs = build_compatible(_DUAL_SIDE[kind], koszul_dual(p), omega)
    return lhs, rhs


def check_dual_identity(kind: CompatKind, p: Presentation, omega: ColorSet) -> bool:
    """dual(kind(P, W)) == dual-kind(dual(P), W) as componentwise spans."""
    return presentation_span_equal(*dual_identity_sides(kind, p, omega))
