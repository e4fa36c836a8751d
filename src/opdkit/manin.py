"""Manin square products of binary quadratic presentations.

A binary quadratic relation splits into a left-comb coefficient block and a
right-comb coefficient block.  The black product multiplies the two blocks
pairwise and flips the sign of the right-comb part; the white product is
computed through the duality identity

    white(P, Q) = dual(black(dual(P), dual(Q)))

renamed back to the tensor generators of P and Q.  A literal one-relation-
per-source-relation reading of the white product is kept alongside for
comparison; the two need not agree, and ``check_product_duality`` reports
the discrepancy instead of hiding it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Literal

from .duality import koszul_dual, standard_slots
from .presentation import (
    Presentation,
    Relation,
    Term,
    presentation_span_equal,
    rename_generators,
    require_valid,
    span_components,
    tensor_map,
)
from .trees import Generator, Tree, enumerate_basis, leaf

__all__ = [
    "ProductKind",
    "black_square",
    "white_square",
    "check_product_duality",
    "tensor_map",
    "colorize_tensor_map",
]

ProductKind = Literal["black", "white_literal", "white_dual"]

_X = leaf()


def _require_binary_quadratic(p: Presentation) -> None:
    require_valid(p)
    if p.unary:
        raise ValueError(f"presentation {p.name} has unary generators")
    for rel in p.relations:
        if rel.weight != 2:
            raise ValueError(
                f"presentation {p.name} has the cubic relation {rel.name}"
            )


def _comb_blocks(rel: Relation):
    """Coefficient blocks of an arity-3 quadratic relation.

    Left block is keyed by (inner, root) generators, right block by
    (root, inner), matching how a coloring (a, b) reads
    (x *_a y) *_b z  and  x *_a (y *_b z).
    """
    left: dict[tuple[Generator, Generator], Fraction] = {}
    right: dict[tuple[Generator, Generator], Fraction] = {}
    for term in rel.terms:
        root = term.tree.gen
        if not term.tree.children[0].is_leaf:
            inner = term.tree.children[0].gen
            key, block = (inner, root), left
        else:
            inner = term.tree.children[1].gen
            key, block = (root, inner), right
        block[key] = block.get(key, Fraction(0)) + term.coeff
    return left, right


def colorize_tensor_map(colored, plain) -> dict[Generator, Generator]:
    """Rename tensors of colored-by-plain generators to colored plain ones.

    Sends the tensor of (g#w, h) to h#w, the identification under which a
    product with a replicated one-generator factor collapses onto the
    replicated second factor.
    """
    tmap = tensor_map(colored, plain)
    out = {}
    for (e, f), tensor in tmap.items():
        if e.color is None:
            raise ValueError(f"left factor {e.serialized()} carries no color")
        out[tensor] = Generator(f.name, f.arity, e.color, f.dualized)
    return out


def _left_comb(inner: Generator, root: Generator) -> Term:
    tree = Tree(root, (Tree(inner, (_X, _X)), _X))
    return Term(Fraction(1), tree, standard_slots(tree))


def _right_comb(root: Generator, inner: Generator) -> Term:
    tree = Tree(root, (_X, Tree(inner, (_X, _X))))
    return Term(Fraction(1), tree, standard_slots(tree))


def _scaled(term: Term, coeff: Fraction) -> Term:
    return Term(coeff, term.tree, term.slots)


def black_square(p: Presentation, q: Presentation) -> Presentation:
    """Tensor generators; one relation per relation pair, right combs negated."""
    _require_binary_quadratic(p)
    _require_binary_quadratic(q)
    tmap = tensor_map(p.binary, q.binary)
    rels = []
    for rp in p.relations:
        lp, rp_block = _comb_blocks(rp)
        for rq in q.relations:
            lq, rq_block = _comb_blocks(rq)
            terms = []
            for (i, j), a in lp.items():
                for (k, l), b in lq.items():
                    terms.append(_scaled(_left_comb(tmap[(i, k)], tmap[(j, l)]), a * b))
            for (i, j), a in rp_block.items():
                for (k, l), b in rq_block.items():
                    terms.append(_scaled(_right_comb(tmap[(i, k)], tmap[(j, l)]), -a * b))
            rels.append(Relation(f"{rp.name}__x__{rq.name}", tuple(terms)))
    gens = tuple(tmap.values())
    return Presentation(f"black_{p.name}__{q.name}", (), gens, tuple(rels))


def _white_literal(p: Presentation, q: Presentation) -> Presentation:
    """The one-relation-per-source-relation reading, right combs negated."""
    tmap = tensor_map(p.binary, q.binary)
    rels = []
    for rp in p.relations:
        lp, rp_block = _comb_blocks(rp)
        terms = []
        for k in q.binary:
            for l in q.binary:
                for (i, j), a in lp.items():
                    terms.append(_scaled(_left_comb(tmap[(i, k)], tmap[(j, l)]), a))
                for (i, j), a in rp_block.items():
                    terms.append(_scaled(_right_comb(tmap[(i, k)], tmap[(j, l)]), -a))
        rels.append(Relation(f"{rp.name}__white_left", tuple(terms)))
    for rq in q.relations:
        lq, rq_block = _comb_blocks(rq)
        terms = []
        for i in p.binary:
            for j in p.binary:
                for (k, l), b in lq.items():
                    terms.append(_scaled(_left_comb(tmap[(i, k)], tmap[(j, l)]), b))
                for (k, l), b in rq_block.items():
                    terms.append(_scaled(_right_comb(tmap[(i, k)], tmap[(j, l)]), -b))
        rels.append(Relation(f"{rq.name}__white_right", tuple(terms)))
    gens = tuple(tmap.values())
    return Presentation(f"whitelit_{p.name}__{q.name}", (), gens, tuple(rels))


def _white_dual(p: Presentation, q: Presentation) -> Presentation:
    dp, dq = koszul_dual(p), koszul_dual(q)
    core = koszul_dual(black_square(dp, dq))
    # core's generators are the dualized tensors of dp x dq; rename them to
    # the tensors of the original generator pairs.
    inner = tensor_map(dp.binary, dq.binary)
    target = tensor_map(p.binary, q.binary)
    mapping = {
        inner[(gp.dual(), gq.dual())].dual(): target[(gp, gq)]
        for gp in p.binary
        for gq in q.binary
    }
    renamed = rename_generators(core, mapping)
    return Presentation(
        f"white_{p.name}__{q.name}", (), renamed.binary, renamed.relations
    )


def white_square(p: Presentation, q: Presentation, mode: ProductKind = "white_dual") -> Presentation:
    _require_binary_quadratic(p)
    _require_binary_quadratic(q)
    if mode == "white_dual":
        return _white_dual(p, q)
    if mode == "white_literal":
        return _white_literal(p, q)
    raise ValueError(f"not a white product mode: {mode}")


@dataclass
class WhiteComparison:
    """Span comparison of the literal and dual readings of the white product.

    Both readings are binary quadratic, so they live in the one grading
    (arity 3, weight 2); the dimensions are those of their spans there.
    """

    left: str
    right: str
    agree: bool
    literal_dim: int
    dual_dim: int
    ambient: int

    def lines(self) -> list[str]:
        return [
            f"white product of {self.left} and {self.right}: "
            f"literal {'==' if self.agree else '!='} dual",
            f"  component (arity 3, weight 2): literal dim {self.literal_dim}, "
            f"dual dim {self.dual_dim}, ambient {self.ambient}",
        ]


def compare_white_readings(p: Presentation, q: Presentation) -> WhiteComparison:
    literal = white_square(p, q, "white_literal")
    dual = white_square(p, q, "white_dual")
    report = list(span_components(literal, dual))
    ranks = {(c.arity, c.weight): (c.left_rank, c.right_rank) for c in report}
    return WhiteComparison(
        p.name,
        q.name,
        all(c.equal for c in report),
        *ranks.get((3, 2), (0, 0)),
        enumerate_basis(literal.generators, 3, 2).dimension,
    )


def check_product_duality(p: Presentation, q: Presentation) -> tuple[bool, WhiteComparison]:
    """dual(black(P, Q)) vs white(dual(P), dual(Q)), plus the white-reading report.

    The two sides are identified by matching the dualized tensor of (gp, gq)
    with the tensor of (gp*, gq*).
    """
    lhs = koszul_dual(black_square(p, q))
    rhs = white_square(koszul_dual(p), koszul_dual(q), "white_dual")
    outer = tensor_map(p.binary, q.binary)
    target = tensor_map(
        [g.dual() for g in p.binary], [g.dual() for g in q.binary]
    )
    mapping = {
        outer[(gp, gq)].dual(): target[(gp.dual(), gq.dual())]
        for gp in p.binary
        for gq in q.binary
    }
    holds = presentation_span_equal(rename_generators(lhs, mapping), rhs)
    return holds, compare_white_readings(p, q)
