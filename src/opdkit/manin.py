"""Manin square products of binary quadratic presentations, written by tree shape.

A product term is a factor's term whose tree is decorated in preorder by the
tensor generators of the generator pairs, with its coefficient multiplied by
the pairing sign of the tree's shape (``duality.shape_sign``, which holds the
sign table for every weight-2 shape) and its slots the standard ones.  The
black product pairs every term of one relation with every term of the same
shape of another; a pair of relations with no shape in common gives no
relation.  The white product is computed through the duality identity

    white(P, Q) = dual(black(dual(P), dual(Q)))

renamed back to the tensor generators of P and Q.  A literal one-relation-
per-source-relation reading is kept alongside as ``product white-literal``;
it is not the white product, and its span differs from the dual route's
already for the associative operad against itself (``check-iso`` on the two
products shows it).

The tensor generators' names are made and read here and nowhere else: the
tensor of (e, f) is ``e~f``, each factor written as its name, ``#color``
and a bare ``*`` for a dual factor (``m#1*~prec``).
"""

from __future__ import annotations

import itertools
from typing import Collection, Literal, Optional, Sequence

from .duality import koszul_dual, shape_sign
from .presentation import Presentation, Relation, Term, rename_generators, require_valid, standard_slots
from .spans import SpanComponent, equal, span_components
from .trees import Generator, _require, relabel, split_generator_token

__all__ = [
    "ProductKind",
    "product_problem",
    "black_square",
    "white_square",
    "check_product_duality",
    "tensor_atom_name",
    "tensor_factors",
    "tensor_map",
    "tensor_clash",
    "tensor_colors_problem",
    "tensor_colors",
    "colorize_tensor_map",
]

ProductKind = Literal["black", "white_literal", "white_dual"]


def tensor_atom_name(g: Generator) -> str:
    """Name of a generator as it appears inside a tensor-product name.

    The dual marker is spelled with a bare ``*`` here so that tensor names
    stay single unambiguous tokens; ``^*`` is reserved for the dual flag of
    a whole generator.
    """
    out = g.name
    if g.color is not None:
        out += f"#{g.color}"
    if g.dualized:
        out += "*"
    return out


def _tensor_name(ge: Generator, gf: Generator) -> str:
    return f"{tensor_atom_name(ge)}~{tensor_atom_name(gf)}"


def _tensor_atom(atom: str) -> Generator:
    """The binary generator whose ``tensor_atom_name`` is ``atom``."""
    name, color, _ = split_generator_token(atom.removesuffix("*"))
    return Generator(name, 2, color, atom.endswith("*"))


def tensor_factors(name: str) -> Optional[tuple[Generator, Generator]]:
    """The pair whose tensor ``tensor_map`` names ``name``, or ``None``
    unless ``name`` holds exactly one ``~``: in a name with more, such as
    ``a~b~c``, the factors cannot be told apart."""
    left, sep, right = name.partition("~")
    return (_tensor_atom(left), _tensor_atom(right)) if sep and "~" not in right else None


def tensor_map(
    e: Sequence[Generator], f: Sequence[Generator]
) -> dict[tuple[Generator, Generator], Generator]:
    """The binary generator ``e~f`` of every pair, in lexicographic pair order;
    ``ValueError`` if two pairs give one name (``tensor_clash``)."""
    for g in list(e) + list(f):
        if g.arity != 2:
            raise ValueError(f"unary generator {g.text} in tensor product")
    _require(tensor_clash(e, f))
    pairs = sorted(
        ((ge, gf) for ge in e for gf in f),
        key=lambda p: (p[0].sort_key, p[1].sort_key),
    )
    return {(ge, gf): Generator(_tensor_name(ge, gf), 2) for ge, gf in pairs}


def tensor_clash(e: Sequence[Generator], f: Sequence[Generator]) -> Optional[str]:
    """Two pairs of ``e`` x ``f`` whose tensors share a name, as a message,
    such as (a, b~c) and (a~b, c), which both give ``a~b~c``; ``None`` if
    each pair's tensor has a name of its own."""
    made: dict[str, tuple[Generator, Generator]] = {}
    for ge in e:
        for gf in f:
            name = _tensor_name(ge, gf)
            first = made.setdefault(name, (ge, gf))
            if first != (ge, gf):
                return (
                    f"tensor generators collide: ({first[0].text}, {first[1].text}) and "
                    f"({ge.text}, {gf.text}) both give {name}"
                )
    return None


def product_problem(p: Presentation, q: Presentation, kind: ProductKind) -> Optional[str]:
    """Why the ``kind`` product of ``p`` and ``q`` is undefined, or ``None``:
    the factors must be binary quadratic with no ``tensor_clash``, and so
    must their duals' tensors (dual markers spelled ``*``) for ``white_dual``."""
    for r in (p, q):
        if r.unary:
            return f"presentation {r.name} has unary generators"
        for rel in r.relations:
            if rel.weight != 2:
                return f"presentation {r.name} has the cubic relation {rel.name}"
    clash = tensor_clash(p.binary, q.binary)
    if clash is None and kind == "white_dual":
        clash = tensor_clash([g.dual() for g in p.binary], [g.dual() for g in q.binary])
    return clash


def tensor_colors_problem(tensors: Collection[Generator]) -> Optional[str]:
    """Why ``tensor_colors`` cannot rename ``tensors`` (each must be the
    tensor of a colored generator and an uncolored one, neither of them a
    tensor itself), or ``None``."""
    for g in tensors:
        if g.name.count("~") > 1:
            return f"generator {g.text} is a tensor of a tensor; cannot apply the tensor-colors map"
        factors = tensor_factors(g.name)
        if factors is None or factors[0].color is None:
            return f"generator {g.text} is not a colored tensor; cannot apply the tensor-colors map"
        if factors[1].color is not None:
            return f"tensor factor {tensor_atom_name(factors[1])} already colored"
    return None


def tensor_colors(tensors: Collection[Generator]) -> dict[Generator, Generator]:
    """Send each tensor of (g#w, h), read off its name, to h#w, dualized if
    h or the tensor is: the identification under which a product with a
    replicated one-generator factor collapses onto the replicated other one."""
    _require(tensor_colors_problem(tensors))
    pairs = {g: tensor_factors(g.name) for g in tensors}
    return {g: Generator(f.name, 2, e.color, f.dualized or g.dualized) for g, (e, f) in pairs.items()}


def colorize_tensor_map(colored, plain) -> dict[Generator, Generator]:
    """``tensor_colors`` of the tensors of colored-by-plain generators."""
    return tensor_colors(tensor_map(colored, plain).values())


def _by_shape(rel: Relation) -> dict:
    """The terms of ``rel`` as (coefficient, generators in preorder), by tree shape.

    A shape is ``Tree.shape``, the node kinds in preorder; it maps to one
    tree of that shape and the terms that have it.
    """
    shapes: dict = {}
    for term in rel.terms:
        tree = term.tree
        shapes.setdefault(tree.shape, (tree, []))[1].append(
            (term.coeff, tree.internal_generators())
        )
    return shapes


def _signed(shapes: dict) -> dict:
    """``shapes`` with every coefficient multiplied by its shape's ``shape_sign``."""
    return {
        shape: (tree, [(shape_sign(tree) * a, gens) for a, gens in group])
        for shape, (tree, group) in shapes.items()
    }


def _every_decoration(shapes: dict, gens: Sequence[Generator]) -> dict:
    """Each of ``shapes`` with every decoration by ``gens``, coefficient 1."""
    return {
        shape: (tree, [(1, hs) for hs in itertools.product(gens, repeat=tree.weight)])
        for shape, (tree, _) in shapes.items()
    }


def _product(ours: dict, theirs: dict, tmap: dict) -> list[Term]:
    """Every term of ``ours`` times every term of the same shape in ``theirs``.

    The product of a·t and b·u is the shape of t decorated in preorder by
    the tensors ``tmap`` of the generator pairs of t and u, with coefficient
    a·b and standard slots; ``ours`` carries the pairing signs.
    """
    terms = []
    for shape, (tree, group) in ours.items():
        if shape not in theirs:
            continue
        slots = standard_slots(tree)
        partners = theirs[shape][1]
        for a, gp in group:
            for b, gq in partners:
                gens = map(tmap.__getitem__, zip(gp, gq))
                terms.append(Term(a * b, relabel(tree, gens), slots))
    return terms


def black_square(p: Presentation, q: Presentation) -> Presentation:
    """Tensor generators; one relation per relation pair that shares a shape.

    Every term a·t of a relation of ``p`` meets every term b·u of the same
    shape in a relation of ``q``, giving a·b·``shape_sign`` times the shape
    decorated by the tensors of their generator pairs.  A pair of relations
    with no shape in common gives no relation.
    """
    require_valid(p, q)
    _require(product_problem(p, q, "black"))
    tmap = tensor_map(p.binary, q.binary)
    theirs = [(rq.name, _by_shape(rq)) for rq in q.relations]
    rels = []
    for rp in p.relations:
        ours = _signed(_by_shape(rp))
        for name, shapes in theirs:
            terms = _product(ours, shapes, tmap)
            if terms:
                rels.append(Relation(f"{rp.name}__x__{name}", tuple(terms)))
    gens = tuple(tmap.values())
    return Presentation(f"black_{p.name}__{q.name}", (), gens, tuple(rels))


def _white_literal(p: Presentation, q: Presentation) -> Presentation:
    """The one-relation-per-source-relation reading, signed by shape.

    Every term of a relation of one factor is decorated by every tuple of
    the other factor's generators, with coefficient a·``shape_sign``.
    """
    tmap = tensor_map(p.binary, q.binary)
    swapped = {(h, g): t for (g, h), t in tmap.items()}
    rels = []
    for relations, others, pairs, side in (
        (p.relations, q.binary, tmap, "left"),
        (q.relations, p.binary, swapped, "right"),
    ):
        for rel in relations:
            ours = _signed(_by_shape(rel))
            terms = _product(ours, _every_decoration(ours, others), pairs)
            rels.append(Relation(f"{rel.name}__white_{side}", tuple(terms)))
    gens = tuple(tmap.values())
    return Presentation(f"whitelit_{p.name}__{q.name}", (), gens, tuple(rels))


def _dual_tensors(
    e: Sequence[Generator], f: Sequence[Generator]
) -> dict[Generator, Generator]:
    """The identification tensor(g, h)^* -> tensor(g^*, h^*) over every pair;
    each caller has made both products, so no two of these names collide."""
    return {
        Generator(_tensor_name(g, h), 2, None, True): Generator(_tensor_name(g.dual(), h.dual()), 2)
        for g in e
        for h in f
    }


def _white_dual(p: Presentation, q: Presentation) -> Presentation:
    dp, dq = koszul_dual(p), koszul_dual(q)
    # Dualizing twice gives back p and q, so this renames core's generators,
    # the dualized tensors of dp x dq, to the tensors of p x q.
    core = koszul_dual(black_square(dp, dq))
    renamed = rename_generators(core, _dual_tensors(dp.binary, dq.binary))
    return Presentation(
        f"white_{p.name}__{q.name}", (), renamed.binary, renamed.relations
    )


def white_square(p: Presentation, q: Presentation, mode: ProductKind = "white_dual") -> Presentation:
    require_valid(p, q)
    _require(product_problem(p, q, mode))
    if mode == "white_dual":
        return _white_dual(p, q)
    if mode == "white_literal":
        return _white_literal(p, q)
    raise ValueError(f"not a white product mode: {mode}")


def check_product_duality(p: Presentation, q: Presentation) -> tuple[bool, list[SpanComponent]]:
    """dual(black(P, Q)) vs white(dual(P), dual(Q)): the verdict and the span report.

    The two sides are identified by matching the dualized tensor of (gp, gq)
    with the tensor of (gp*, gq*).
    """
    lhs = koszul_dual(black_square(p, q))
    rhs = white_square(koszul_dual(p), koszul_dual(q), "white_dual")
    report = list(span_components(rename_generators(lhs, _dual_tensors(p.binary, q.binary)), rhs))
    return equal(report), report
