"""The builders against a reference coloring.

The reference shares no code with the compiled templates of the builders:
it colors a tree vertex by vertex with ``Tree(gen, children)``, builds
every relation with ``Relation(...)``, which sorts its terms, and names
and orders the relations from the construction's definition.  The inputs
are catalog presentations with rescaled relations and a presentation that
holds one tree under two slot maps.
"""

import itertools
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from rescaled import GRID, rescaled
from opdkit.compat import build_lin, build_mat, build_tot, lin_encoding_sides
from opdkit.presentation import ColorSet, Presentation, Relation, Term, standard_slots, support
from opdkit.trees import Generator, Tree, enumerate_basis

LABELS = st.sampled_from([("1",), ("1", "2"), ("b", "a"), ("a", "b", "c"), ("c", "a", "b")])


def painted(tree, slots, colors):
    """``tree`` with ``colors[j-1]`` on its vertex at slot j, grown from the root."""
    vertex_colors = iter([colors[slot - 1] for slot in slots])

    def grow(t):
        if t.is_leaf:
            return Tree()
        gen, color = t.gen, next(vertex_colors)
        return Tree(Generator(gen.name, gen.arity, color, gen.dualized), tuple(map(grow, t.children)))

    return grow(tree)


def painted_term(term, colors, coeff=None):
    return Term(term.coeff if coeff is None else coeff, painted(term.tree, term.slots, colors), term.slots)


def colored_generators(p, labels):
    def copies(gens):
        return tuple(Generator(g.name, g.arity, c, g.dualized) for g in gens for c in labels)

    return copies(p.unary), copies(p.binary)


def reference_mat_relations(p, labels):
    return [
        Relation(f"{rel.name}__{','.join(colors)}", tuple(painted_term(t, colors) for t in rel.terms))
        for rel in p.relations
        for colors in itertools.product(labels, repeat=rel.weight)
    ]


def reference_lin(p, labels):
    rels = []
    for rel in p.relations:
        for colors in itertools.combinations_with_replacement(labels, rel.weight):
            distinct = sorted(dict.fromkeys(colors), key=colors.count, reverse=True)
            if len(distinct) == 1:
                name = f"{rel.name}__{','.join(colors)}"
            else:
                name = f"{rel.name}__{'L' if len(distinct) == 2 else 'S'}_{','.join(distinct)}"
            orderings = set(itertools.permutations(colors))
            terms = tuple(painted_term(t, o) for o in orderings for t in rel.terms)
            rels.append(Relation(name, terms))
    return Presentation(f"lin_{p.name}__{'_'.join(labels)}", *colored_generators(p, labels), tuple(rels))


def reference_mat(p, labels):
    return Presentation(
        f"mat_{p.name}__{'_'.join(labels)}", *colored_generators(p, labels),
        tuple(reference_mat_relations(p, labels)),
    )


def reference_support(rel):
    totals = {}
    for term in rel.terms:
        totals[term.tree, term.slots] = totals.get((term.tree, term.slots), 0) + term.coeff
    return [key for key, total in totals.items() if total]


def swap(name, tree, slots, first, second):
    plus = Term(Fraction(1), painted(tree, slots, first), slots)
    minus = Term(Fraction(-1), painted(tree, slots, second), slots)
    return Relation(name, (plus, minus))


def reference_tot(p, labels):
    rels = reference_mat_relations(p, labels)
    if all(rel.weight == 2 for rel in p.relations):
        for arity in (1, 2, 3):
            for idx, tree in enumerate(enumerate_basis(p.generators, arity, 2).basis):
                for mu, nu in itertools.combinations(labels, 2):
                    name = f"swap__a{arity}_{idx}_{mu},{nu}"
                    rels.append(swap(name, tree, standard_slots(tree), (mu, nu), (nu, mu)))
    else:
        for rel in p.relations:
            for idx, (tree, slots) in enumerate(reference_support(rel)):
                stem = f"{rel.name}__T_{idx}"
                if rel.weight == 2:
                    for mu, nu in itertools.combinations(labels, 2):
                        rels.append(swap(f"{stem}_{mu},{nu}", tree, slots, (mu, nu), (nu, mu)))
                else:
                    for mu, nu in itertools.permutations(labels, 2):
                        rels.append(swap(f"{stem}a_{mu},{nu}", tree, slots, (mu, nu, mu), (nu, mu, mu)))
                        rels.append(swap(f"{stem}b_{mu},{nu}", tree, slots, (mu, nu, mu), (mu, mu, nu)))
    return Presentation(f"tot_{p.name}__{'_'.join(labels)}", *colored_generators(p, labels), tuple(rels))


def reference_expansion(p, labels):
    """The coefficient of each color monomial after substituting formal sums
    into the slots of each relation, relation by relation, monomials sorted."""
    out = []
    for rel in p.relations:
        coefficients = {}
        for colors in itertools.product(labels, repeat=rel.weight):
            monomial = tuple(sorted(colors))
            coefficients.setdefault(monomial, []).extend(painted_term(t, colors) for t in rel.terms)
        out.extend(
            Relation(f"{rel.name}__c_{'.'.join(monomial)}", tuple(terms))
            for monomial, terms in sorted(coefficients.items())
        )
    return out


def same_terms(built, reference):
    """Equal, and term for term equal down to the generators of each tree."""
    assert built == reference
    for rel, ref in zip(built.relations, reference.relations):
        assert rel.name == ref.name
        for term, ref_term in zip(rel.terms, ref.terms):
            assert term.tree.internal_generators() == ref_term.tree.internal_generators()
            assert (term.coeff, term.slots) == (ref_term.coeff, ref_term.slots)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(GRID)), LABELS, st.data())
def test_builds_match_the_reference_coloring(label, labels, data):
    p = rescaled(data, GRID[label])
    omega = ColorSet(labels)
    same_terms(build_mat(p, omega), reference_mat(p, labels))
    same_terms(build_lin(p, omega), reference_lin(p, labels))
    same_terms(build_tot(p, omega), reference_tot(p, labels))
    formal = Presentation(f"formal_{p.name}", *colored_generators(p, labels), tuple(reference_expansion(p, labels)))
    same_terms(lin_encoding_sides(p, omega)[0], formal)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(sorted(GRID)), st.data())
def test_color_relation_matches_the_reference_coloring(label, data):
    p = rescaled(data, GRID[label])
    rel = data.draw(st.sampled_from(p.relations))
    colors = tuple(data.draw(st.lists(st.sampled_from("abc"), min_size=rel.weight, max_size=rel.weight)))
    name = f"{rel.name}__{','.join(colors)}"
    colored = build_mat(p, ColorSet(("a", "b", "c"))).relation(name)
    reference = Relation(name, tuple(painted_term(t, colors) for t in rel.terms))
    assert colored == reference
    assert [t.tree.internal_generators() for t in colored.terms] == [
        t.tree.internal_generators() for t in reference.terms
    ]


def test_a_constant_coloring_merges_two_terms_onto_one_tree():
    p = GRID["two_slot_maps"]
    mat = build_mat(p, ColorSet(("a", "b")))
    merged = mat.relation("merge__a,a")
    assert len(merged.terms) == 3
    assert merged.terms[0].tree is merged.terms[1].tree
    assert {t.slots for t in merged.terms[:2]} == {(1, 2), (2, 1)}
    mixed = mat.relation("merge__a,b")
    assert mixed.terms[0].tree != mixed.terms[1].tree


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(sorted(GRID)), st.data())
def test_support_matches_the_reference_with_cancelling_terms(label, data):
    p = rescaled(data, GRID[label])
    rel = data.draw(st.sampled_from(p.relations))
    # Each added copy of a term is its negative (which cancels the tree), a
    # zero term or a rescaled copy; cancelling every term leaves no support.
    factors = st.sampled_from([-1, 0, 2, Fraction(-1, 3)])
    copies = data.draw(st.lists(st.tuples(st.sampled_from(rel.terms), factors)))
    terms = rel.terms + tuple(Term(t.coeff * factor, t.tree, t.slots) for t, factor in copies)
    rel = Relation(rel.name, terms)
    assert support(rel) == reference_support(rel)
