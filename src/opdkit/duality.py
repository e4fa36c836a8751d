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
ambient component.  With the relation rows scaled column by column by the
signs, R^perp is the right kernel of the scaled rows: one vector per free
column of their sparse echelon basis over the ambient tree basis.
"""

from __future__ import annotations

import itertools
from typing import Optional

from .compat import CompatKind, build_compatible
from .linalg import Echelon, integer_row
from .presentation import (
    _WEIGHT_TWO_SHAPES,
    ColorSet,
    Presentation,
    Relation,
    Term,
    rename_generators,
    require_valid,
    standard_slots,
)
from .spans import SpanComponent, presentation_span_equal, span_components
from .trees import Tree, _require, enumerate_basis, relabel

__all__ = [
    "shape_sign",
    "dual_problem",
    "koszul_dual",
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
    """T(E*)/<R^perp> for a quadratic presentation, componentwise by arity."""
    require_valid(p)
    _require(dual_problem(p))
    dual_unary = tuple(g.dual() for g in p.unary)
    dual_binary = tuple(g.dual() for g in p.binary)

    rels: list[Relation] = []
    for arity in (1, 2, 3):
        component = enumerate_basis(p.generators, arity, 2)
        if component.dimension == 0:
            continue
        index = component.index()
        relations = Echelon(
            integer_row((index[t.tree], t.coeff * shape_sign(t.tree)) for t in rel.terms)
            for rel in p.relations
            if rel.arity == arity
        )
        dual_basis = [
            relabel(t, (g.dual() for g in t.internal_generators()))
            for t in component.basis
        ]
        for i, vec in enumerate(relations.complement(component.dimension)):
            terms = tuple(
                Term(coeff, dual_basis[c], standard_slots(dual_basis[c]))
                for c, coeff in vec.items()
            )
            rels.append(Relation(f"dual_a{arity}_{i}", terms))
    return Presentation(f"dual_{p.name}", dual_unary, dual_binary, tuple(rels))


def self_duality(p: Presentation) -> Optional[tuple[Presentation, list[SpanComponent]]]:
    """The dual under the first arity-preserving renaming of its generators
    that makes it span as p does, with the span report that matched it; or
    ``None``.

    Every bijection is tried, the identity g* -> g first: some self-dual
    presentations match only after permuting same-arity generators.  A
    renaming never changes span dimensions, so differing ranks end the search.
    """
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
    """Whether some arity-preserving renaming of the dual matches p's spans."""
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
