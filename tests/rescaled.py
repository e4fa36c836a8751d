"""Inputs for the oracle tests: catalog presentations whose relations are
rescaled by nonzero rationals, as the benchmark makes its inputs, and a
presentation whose relations hold one tree under two slot maps."""

from fractions import Fraction

from hypothesis import strategies as st

from opdkit.catalog import default_grid
from opdkit.presentation import Presentation, Relation, Term
from opdkit.trees import Generator, Tree, leaf

P = Generator("P", 1)
M = Generator("m", 2)
X = leaf()
LEFT_COMB = Tree(M, (Tree(M, (X, X)), X))
RIGHT_COMB = Tree(M, (X, Tree(M, (X, X))))
CHAIN = Tree(P, (Tree(P, (X,)),))


def two_slot_maps(cubic: bool) -> Presentation:
    """Relations with a tree under two slot maps.

    A constant coloring merges the two terms of ``merge`` into one tree and
    cancels ``cancel`` to zero; ``cubic`` adds a weight-3 relation of the
    same kind, which makes the presentation cubic.
    """
    relations = [
        Relation("merge", (
            Term(Fraction(1, 2), LEFT_COMB, (2, 1)),
            Term(Fraction(3), LEFT_COMB, (1, 2)),
            Term(Fraction(-1), RIGHT_COMB, (1, 2)),
        )),
        Relation("cancel", (Term(Fraction(1), CHAIN, (2, 1)), Term(Fraction(-1), CHAIN, (1, 2)))),
    ]
    if cubic:
        chain3 = Tree(P, (CHAIN,))
        relations.append(Relation("merge3", (
            Term(Fraction(2, 3), chain3, (3, 2, 1)),
            Term(Fraction(-5), chain3, (1, 3, 2)),
        )))
    return Presentation("two_slot_maps", (P,), (M,), tuple(relations))


GRID = dict(default_grid())
GRID["two_slot_maps"] = two_slot_maps(False)
GRID["two_slot_maps_cubic"] = two_slot_maps(True)

SCALES = st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 9))


def rescaled(data, p: Presentation) -> Presentation:
    """``p`` with each relation multiplied by its own drawn nonzero rational."""
    relations = []
    for rel in p.relations:
        scale = data.draw(SCALES)
        terms = tuple(Term(t.coeff * scale, t.tree, t.slots) for t in rel.terms)
        relations.append(Relation(rel.name, terms))
    return Presentation(p.name, p.unary, p.binary, tuple(relations))
