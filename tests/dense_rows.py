"""Dense relation rows made in test code, for the dense reference elimination.

``dense_rows`` writes each relation of one (arity, weight) grading as its
coefficients over the canonical basis of that grading, summed where two
terms share a tree.  It reads only ``enumerate_basis`` and the terms of the
relations, so the checks that eliminate its rows with ``dense_reference``
share no row-making code with the program's span engine.
"""

from fractions import Fraction

import dense_reference

from opdkit.trees import enumerate_basis


def dense_rows(gens, relations, arity, weight):
    """The graded component of ``gens`` in (arity, weight) and the dense rows
    of the relations in that grading, each a tuple of Fractions as wide as
    the component's basis."""
    component = enumerate_basis(gens, arity, weight)
    index = component.index()
    rows = []
    for rel in relations:
        if rel.grading() != (arity, weight):
            continue
        row = [Fraction(0)] * component.dimension
        for term in rel.terms:
            row[index[term.tree]] += term.coeff
        rows.append(tuple(row))
    return component, tuple(rows)


def dense_rank(gens, relations, arity, weight):
    """The rank of the relations' dense rows in (arity, weight), by ``dense_reference``."""
    component, rows = dense_rows(gens, relations, arity, weight)
    return dense_reference.rank(rows, component.dimension)
