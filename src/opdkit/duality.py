"""Koszul duals of quadratic presentations via signed orthogonal complements.

The weight-2 component of the free operad over dual generators pairs
diagonally with the original one: a dual tree pairs only with the tree of
the same shape and matching decorations, and the sign depends on the shape
alone.  The sign table, extended verbatim to any number of generators:

    unary over unary               +1
    unary at the root of a binary  -1
    unary on either binary input   +1
    left comb                      +1
    right comb                     -1

The dual of P = T(E)/<R> is then T(E*)/<R^perp> with R^perp computed per
arity component, the complement of an empty relation set being the full
ambient component.  With the relation rows scaled column by column by the
signs, R^perp is the right kernel of the scaled rows: one vector per free
column of their sparse echelon basis over the ambient tree basis.
"""

from __future__ import annotations

import itertools

from .compat import CompatKind, build_compatible
from .linalg import DiagonalForm, Echelon, integer_row
from .presentation import (
    ColorSet,
    Presentation,
    Relation,
    Term,
    presentation_span_equal,
    rename_generators,
    require_valid,
    span_components,
    standard_slots,
)
from .trees import GradedComponent, Tree, enumerate_basis, relabel

__all__ = [
    "shape_sign",
    "pairing_form",
    "standard_slots",
    "koszul_dual",
    "is_self_dual",
    "check_dual_identity",
]


def shape_sign(tree: Tree) -> int:
    """Pairing sign of a weight-2 tree, by shape only."""
    if tree.weight != 2:
        raise ValueError("pairing signs are defined on weight-2 trees")
    root = tree.gen
    if root.arity == 1:
        child = tree.children[0]
        return 1 if child.gen.arity == 1 else -1
    left, right = tree.children
    if not left.is_leaf:
        return 1  # unary on the left input, or left comb
    return 1 if right.gen.arity == 1 else -1  # unary on the right input / right comb


def pairing_form(component: GradedComponent) -> DiagonalForm:
    """One sign per basis tree; only weight-2 components carry the pairing."""
    if component.weight != 2:
        raise ValueError(f"pairing form needs weight 2, got weight {component.weight}")
    return DiagonalForm(tuple(shape_sign(t) for t in component.basis))


def koszul_dual(p: Presentation, name: str | None = None) -> Presentation:
    """T(E*)/<R^perp> for a quadratic presentation, componentwise by arity."""
    require_valid(p)
    for rel in p.relations:
        if rel.weight != 2:
            raise ValueError(
                f"Koszul dual undefined for non-quadratic presentation: "
                f"relation {rel.name} has weight {rel.weight}"
            )
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
    return Presentation(
        name or f"dual_{p.name}", dual_unary, dual_binary, tuple(rels)
    )


def is_self_dual(p: Presentation) -> bool:
    """Whether some arity-preserving renaming of the dual matches p's spans.

    The identity renaming g* -> g is tried first; otherwise all generator
    bijections are searched (feasible at catalog sizes, and necessary: some
    self-dual presentations match only after permuting same-arity generators).
    The identity comparison also prunes the search: renamings never change
    span dimensions, so a rank that differs in any grading rules out every
    renaming.
    """
    dual = koszul_dual(p)
    identity = {g.dual(): g for g in p.generators}
    report = list(span_components(rename_generators(dual, identity), p))
    if all(c.equal for c in report):
        return True
    if any(c.left_rank != c.right_rank for c in report):
        return False
    for pu in itertools.permutations(p.unary):
        for pb in itertools.permutations(p.binary):
            mapping = {
                g.dual(): h for g, h in zip(p.unary + p.binary, pu + pb)
            }
            if mapping == identity:
                continue
            if presentation_span_equal(rename_generators(dual, mapping), p):
                return True
    return False


_DUAL_SIDE: dict[CompatKind, CompatKind] = {
    "matching": "matching",
    "linear": "total",
    "total": "linear",
}


def check_dual_identity(kind: CompatKind, p: Presentation, omega: ColorSet) -> bool:
    """dual(kind(P, W)) == dual-kind(dual(P), W) as componentwise spans.

    The identification (g#w)* = g*#w is automatic: colors and the dual flag
    are independent generator fields.
    """
    omega = ColorSet.of(omega)
    lhs = koszul_dual(build_compatible(kind, p, omega))
    rhs = build_compatible(_DUAL_SIDE[kind], koszul_dual(p), omega)
    return presentation_span_equal(lhs, rhs)
