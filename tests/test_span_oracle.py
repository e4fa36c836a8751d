"""The sparse span kernel against the dense reference elimination.

The dense adapters of ``opdkit.linalg`` must return exactly what the dense
fraction-free elimination in ``dense_reference`` returns, and the sparse
presentation span checks, their per-grading report and the Koszul dual must
agree with that elimination run on the dense rows of each graded component,
which ``dense_rows`` makes in test code.  ``component_matrix``, the
program's own dense rows, is pinned against ``dense_rows``.
"""

import copy
from fractions import Fraction
from functools import lru_cache
from math import gcd

import dense_reference as ref
import pytest
import rescaled
from dense_rows import dense_rows
from hypothesis import given, settings
from hypothesis import strategies as st

from opdkit.catalog import default_grid
from opdkit.compat import build_compatible, build_mat, build_tot, lin_encoding_sides
from opdkit.duality import koszul_dual, shape_sign
from opdkit.linalg import (
    Echelon,
    RationalMatrix,
    nullspace,
    primitive_row,
    rank,
    rref,
    span_contains,
    span_equal,
)
from opdkit.parser import parse_presentation, serialize
from opdkit.presentation import (
    ColorSet,
    Presentation,
    Relation,
    Term,
    standard_slots,
    validate,
)
from opdkit.spans import (
    SpanComponent,
    component_matrix,
    contains,
    equal,
    presentation_span_contains,
    presentation_span_equal,
    relation_gradings,
    span_components,
)
from opdkit.trees import Generator, Tree, enumerate_basis

# Mostly zeros, as in relation matrices, with small fractions elsewhere.
ENTRY = st.one_of(
    st.just(Fraction(0)),
    st.just(Fraction(0)),
    st.fractions(min_value=-4, max_value=4, max_denominator=3),
)


@st.composite
def matrices(draw, cols=None):
    if cols is None:
        cols = draw(st.integers(1, 7))
    rows = draw(st.lists(st.lists(ENTRY, min_size=cols, max_size=cols), max_size=6))
    return RationalMatrix.from_rows(rows, cols)


@st.composite
def matrix_pairs(draw):
    """A matrix and a second one made of combinations of its rows plus noise rows."""
    a = draw(matrices())
    combined = []
    for _ in range(draw(st.integers(0, 4))):
        coeffs = draw(st.lists(ENTRY, min_size=a.nrows, max_size=a.nrows))
        combined.append(
            [sum((c * row[j] for c, row in zip(coeffs, a.rows)), Fraction(0)) for j in range(a.cols)]
        )
    noise = draw(matrices(a.cols))
    return a, RationalMatrix.from_rows(combined + [list(r) for r in noise.rows[:2]], a.cols)


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_dense_adapters_match_reference(m):
    reduced, pivots = ref.rref(m.rows, m.cols)
    assert rref(m) == (RationalMatrix(reduced, m.cols), pivots)
    assert rank(m) == ref.rank(m.rows, m.cols)
    assert nullspace(m) == RationalMatrix(ref.nullspace(m.rows, m.cols), m.cols)


@settings(max_examples=150, deadline=None)
@given(matrix_pairs())
def test_span_tests_match_reference(pair):
    a, b = pair
    assert span_contains(a, b) == ref.span_contains(a.rows, b.rows, a.cols)
    assert span_contains(b, a) == ref.span_contains(b.rows, a.rows, a.cols)
    assert span_equal(a, b) == ref.span_equal(a.rows, b.rows, a.cols)


@st.composite
def pivot_ladders(draw):
    """Dense small-integer content-1 rows, mostly in order of falling leading column.

    Each row then takes a pivot left of the earlier ones, so the new pivot
    column sits in several basis rows, and back-substitution both fills in
    entries and cancels them.  Rows are made content 1, as ``Echelon.add``
    requires.
    """
    cols = draw(st.integers(2, 7))
    entry = st.integers(-3, 3).filter(bool)
    row = st.dictionaries(st.integers(0, cols - 1), entry, min_size=1).map(primitive_row)
    rows = draw(st.lists(row, min_size=1, max_size=8))
    if draw(st.booleans()):
        rows.sort(key=min, reverse=True)
    return cols, rows


def column_map(basis):
    return {(c, p) for c, pivots in basis._rows_at.items() for p in pivots}


def assert_matches_reference(basis, rows, cols):
    dense = RationalMatrix.from_rows([[row.get(c, 0) for c in range(cols)] for row in rows], cols)
    reduced, pivots = ref.rref(dense.rows, dense.cols)
    assert tuple(sorted(basis.rows)) == pivots
    for p, expected in zip(pivots, reduced):
        row = basis.rows[p]
        # The canonical basis row: content 1, positive at its pivot.
        assert gcd(*row.values()) == 1 and row[p] > 0 and min(row) == p
        assert tuple(Fraction(row.get(c, 0), row[p]) for c in range(cols)) == expected
    assert column_map(basis) == {(c, p) for p, row in basis.rows.items() for c in row if c != p}


@settings(max_examples=300, deadline=None)
@given(pivot_ladders())
def test_echelon_add_matches_reference_after_every_row(case):
    cols, rows = case
    basis = Echelon()
    for n, row in enumerate(rows, start=1):
        basis.add(row)
        assert_matches_reference(basis, rows[:n], cols)


@settings(max_examples=150, deadline=None)
@given(pivot_ladders(), pivot_ladders())
def test_echelon_copy_grows_on_its_own(first, second):
    (cols, rows), (more_cols, more) = first, second
    basis = Echelon(rows)
    rows_before, map_before = {p: dict(row) for p, row in basis.rows.items()}, column_map(basis)
    twin = basis.copy()
    assert twin.rows == basis.rows and column_map(twin) == map_before
    for row in more:
        twin.add(row)
    assert basis.rows == rows_before and column_map(basis) == map_before
    assert_matches_reference(twin, rows + more, max(cols, more_cols))
    # A frozen basis has no column map; its copy makes one from the rows.
    thawed = Echelon(rows).frozen().copy()
    for row in more:
        thawed.add(row)
    assert_matches_reference(thawed, rows + more, max(cols, more_cols))


def test_echelon_add_updates_the_column_map_on_fill_in_and_cancellation():
    rows = [{3: 1, 4: 1}, {2: 1, 4: 1}, {1: 1, 3: 1}, {0: 1, 4: 1, 5: 1}, {4: 1, 5: 1}]
    basis = Echelon(rows[:4])
    # {1: 1, 3: 1} was reduced to {1: 1, 4: -1}, so column 4 is in every row.
    assert column_map(basis) == {(4, 3), (4, 2), (4, 1), (4, 0), (5, 0)}
    basis.add(rows[4])
    # The new pivot 4 leaves all four rows: column 5 fills in three of them
    # and cancels in row 0.
    assert basis.rows == {0: {0: 1}, 1: {1: 1, 5: 1}, 2: {2: 1, 5: -1}, 3: {3: 1, 5: -1}, 4: {4: 1, 5: 1}}
    assert column_map(basis) == {(5, 1), (5, 2), (5, 3), (5, 4)}
    assert_matches_reference(basis, rows, 6)


GRID = dict(default_grid())
KINDS = ("linear", "matching", "total")


@lru_cache(maxsize=None)
def constructed(label, kind):
    return build_compatible(kind, GRID[label], ColorSet.of(2))


def subset(data, p):
    n = len(p.relations)
    mask = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    chosen = tuple(rel for rel, keep in zip(p.relations, mask) if keep)
    return Presentation(p.name, p.unary, p.binary, chosen)


def reference_contains(big, small):
    gens = big.generators
    for arity, weight in relation_gradings(small.relations):
        component, rb = dense_rows(gens, big.relations, arity, weight)
        _, rs = dense_rows(gens, small.relations, arity, weight)
        if not ref.span_contains(rb, rs, component.dimension):
            return False
    return True


def reference_equal(p, q):
    gens = p.generators
    for arity, weight in relation_gradings(p.relations + q.relations):
        component, rp = dense_rows(gens, p.relations, arity, weight)
        _, rq = dense_rows(gens, q.relations, arity, weight)
        if not ref.span_equal(rp, rq, component.dimension):
            return False
    return True


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(sorted(GRID)),
    st.sampled_from(KINDS),
    st.sampled_from(KINDS),
    st.booleans(),
    st.data(),
)
def test_presentation_spans_match_reference(label, big_kind, small_kind, nested, data):
    big = subset(data, constructed(label, big_kind))
    # A subset of big's own relations is contained in big, so both
    # verdicts of the containment check are exercised.
    small = subset(data, big if nested else constructed(label, small_kind))
    assert_spans_match_reference(big, small)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(sorted(rescaled.GRID)),
    st.sampled_from(KINDS),
    st.sampled_from(KINDS),
    st.booleans(),
    st.data(),
)
def test_rescaled_spans_match_reference(label, big_kind, small_kind, nested, data):
    # Rational coefficients, terms that a coloring merges onto one tree, and
    # relations that cancel to zero.  Each side is rescaled on its own; a
    # nested side rescales big's own relations, whose integer coefficients
    # are then worked out afresh rather than taken from their template.
    p = rescaled.GRID[label]
    big = subset(data, build_compatible(big_kind, rescaled.rescaled(data, p), ColorSet.of(2)))
    if nested:
        other = rescaled.rescaled(data, big)
    else:
        other = build_compatible(small_kind, rescaled.rescaled(data, p), ColorSet.of(2))
    assert_spans_match_reference(big, subset(data, other))


def test_a_colored_relation_that_cancels_to_zero_adds_no_rank():
    mat = build_compatible("matching", rescaled.two_slot_maps(False), ColorSet.of(2))
    zero = Presentation(mat.name, mat.unary, mat.binary, (mat.relation("cancel__1,1"),))
    _, rows = dense_rows(mat.generators, zero.relations, 1, 2)
    assert not any(any(row) for row in rows)
    unary = [c for c in span_components(mat, zero) if c.arity == 1]
    # The mixed colorings, P#1(P#2(x1)) - P#2(P#1(x1)) and its negative, span one line.
    assert [(c.left_rank, c.right_rank, c.equal, c.contains) for c in unary] == [(1, 0, False, True)]
    assert_spans_match_reference(mat, zero)
    assert_spans_match_reference(zero, mat)


# Relations written to reach every path of the row builder: weight-2 trees
# over one unary and two binary generators, in arities 2 and 3, drawn from
# few trees so that one relation often holds a tree twice (a merged
# column), with terms 0*t, terms that cancel, and coefficients that are not
# coprime integers.
AWKWARD_UNARY = (Generator("P", 1),)
AWKWARD_BINARY = (Generator("m", 2), Generator("n", 2))
AWKWARD_TREES = {
    arity: enumerate_basis(AWKWARD_UNARY + AWKWARD_BINARY, arity, 2).basis[:4] for arity in (2, 3)
}
AWKWARD_COEFF = st.sampled_from(
    [Fraction(0), Fraction(1), Fraction(-1), Fraction(2), Fraction(-2), Fraction(4, 3), Fraction(-2, 3)]
)
NONZERO_SCALE = st.sampled_from([Fraction(1), Fraction(-1), Fraction(2), Fraction(4, 3), Fraction(-2, 3)])


def awkward_term(coeff, tree):
    return Term(coeff, tree, standard_slots(tree))


@st.composite
def awkward_relations(draw, name):
    trees = st.sampled_from(AWKWARD_TREES[draw(st.sampled_from(sorted(AWKWARD_TREES)))])
    terms = draw(st.lists(st.tuples(AWKWARD_COEFF, trees), min_size=1, max_size=4))
    if draw(st.booleans()):  # a term and its negative
        coeff, tree = draw(AWKWARD_COEFF), draw(trees)
        terms += [(coeff, tree), (-coeff, tree)]
    if draw(st.booleans()):
        terms.append((Fraction(0), draw(trees)))
    scale = draw(NONZERO_SCALE)
    return Relation(name, tuple(awkward_term(coeff * scale, tree) for coeff, tree in terms))


@st.composite
def disguised(draw, rel):
    """``rel`` rescaled, some terms split in two on their tree and a 0*t term
    added: the same line, written another way."""
    scale = draw(NONZERO_SCALE)
    terms = []
    for term in rel.terms:
        coeff = term.coeff * scale
        if draw(st.booleans()):
            part = draw(AWKWARD_COEFF)
            terms += [awkward_term(part, term.tree), awkward_term(coeff - part, term.tree)]
        else:
            terms.append(awkward_term(coeff, term.tree))
    if draw(st.booleans()):
        terms.append(awkward_term(Fraction(0), draw(st.sampled_from(AWKWARD_TREES[rel.arity]))))
    return Relation(rel.name, tuple(terms))


def awkward_presentation(relations):
    return Presentation("awkward", AWKWARD_UNARY, AWKWARD_BINARY, tuple(relations))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_rows_of_awkward_relations_match_reference(data):
    # The rows of relations with 0*t terms, merged columns, cancelled terms
    # and common factors must span what the dense rows span: ``small``
    # rewrites some of ``big``'s relations and may add one of its own.
    count = data.draw(st.integers(1, 4))
    big = [data.draw(awkward_relations(f"r{i}")) for i in range(count)]
    kept = data.draw(st.lists(st.sampled_from(big), max_size=count))
    small = [data.draw(disguised(rel)) for rel in kept]
    if data.draw(st.booleans()):
        small.append(data.draw(awkward_relations("extra")))
    assert_spans_match_reference(awkward_presentation(big), awkward_presentation(small))


def rebuilt(p):
    """``p`` with every relation made anew, so that it shares no relation object."""
    return Presentation(p.name, p.unary, p.binary, tuple(Relation(r.name, r.terms) for r in p.relations))


def assert_shared_rows_change_nothing(big, small):
    # Relation objects held by both sides are rowed for each; the report
    # must be the one of sides that share nothing, and the dense reference's.
    assert list(span_components(big, small)) == list(span_components(rebuilt(big), rebuilt(small)))
    assert_spans_match_reference(big, small)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_shared_awkward_relations_match_unshared_and_reference(data):
    # Each side holds the shared objects and rows of its own: the right
    # side's own rows may be new, or shared lines written another way.
    def drawn(stem, most):
        return [data.draw(awkward_relations(f"{stem}{i}")) for i in range(data.draw(st.integers(0, most)))]

    shared, mine, yours = drawn("s", 3), drawn("l", 2), drawn("r", 2)
    if shared:
        yours += [data.draw(disguised(rel)) for rel in data.draw(st.lists(st.sampled_from(shared), max_size=2))]
    big, small = awkward_presentation(shared + mine), awkward_presentation(shared + yours)
    assert_shared_rows_change_nothing(big, small)
    assert_shared_rows_change_nothing(small, big)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(GRID)), st.data())
def test_shared_built_relations_match_unshared_and_reference(label, data):
    # tot holds mat's relation objects, so subsets of the two share some;
    # the right side's own swaps are not in a matching span.
    mat, tot = subset(data, constructed(label, "matching")), subset(data, constructed(label, "total"))
    assert_shared_rows_change_nothing(mat, tot)
    assert_shared_rows_change_nothing(tot, mat)


def assert_spans_match_reference(big, small):
    assert presentation_span_contains(big, small) == reference_contains(big, small)
    assert presentation_span_contains(small, big) == reference_contains(small, big)
    assert presentation_span_equal(big, small) == reference_equal(big, small)

    report = list(span_components(big, small))
    assert [(c.arity, c.weight) for c in report] == relation_gradings(big.relations + small.relations)
    for c in report:
        component, rb = dense_rows(big.generators, big.relations, c.arity, c.weight)
        _, rs = dense_rows(big.generators, small.relations, c.arity, c.weight)
        cols = component.dimension
        assert (c.left_rank, c.right_rank) == (ref.rank(rb, cols), ref.rank(rs, cols))
        assert c.equal == ref.span_equal(rb, rs, cols)
        assert c.contains == ref.span_contains(rb, rs, cols)


# --- kept bases: one input's builds and formal side, and copies of them ---

SIDES = ("lin", "mat", "tot", "formal", "tot_copy", "mat_parsed")
QUESTIONS = ("contains", "equal", "components")


def shared_sides(p, colors):
    """lin, mat, tot and the formal side of ``p``, a copy of tot and mat
    read back from its text: every side over one generator set, so all
    share one column map per grading."""
    omega = ColorSet.of(colors)
    formal, lin = lin_encoding_sides(p, omega)
    mat, tot = build_mat(p, omega), build_tot(p, omega)
    return {
        "lin": lin, "mat": mat, "tot": tot, "formal": formal,
        "tot_copy": copy.copy(tot), "mat_parsed": parse_presentation(serialize(mat)),
    }


def ask(question, p, q):
    if question == "contains":
        return presentation_span_contains(p, q)
    if question == "equal":
        return presentation_span_equal(p, q)
    return list(span_components(p, q))


@lru_cache(maxsize=None)
def reference_answers(label, colors, left, right):
    """Each question's answer from the dense rows of every grading."""
    sides = shared_sides(GRID[label], colors)
    p, q = sides[left], sides[right]
    report = []
    for arity, weight in relation_gradings(p.relations + q.relations):
        component, rp = dense_rows(p.generators, p.relations, arity, weight)
        _, rq = dense_rows(p.generators, q.relations, arity, weight)
        cols = component.dimension
        report.append(SpanComponent(
            arity, weight, ref.rank(rp, cols), ref.rank(rq, cols),
            ref.span_equal(rp, rq, cols), ref.span_contains(rp, rq, cols),
        ))
    return {"contains": contains(report), "equal": equal(report), "components": report}


def assert_kept_bases_are_fresh(p):
    # A kept basis is frozen, and it is the basis of its side's rows in its
    # grading made afresh, however many questions read it, and whether or
    # not it was grown from the kept basis of a build it extends.  A side
    # no question has asked keeps nothing.
    kept = vars(p).get("_spans")
    if kept is None:
        return
    for grading, basis in kept.bases.items():
        fresh = Echelon(map(kept.columns[grading].row, kept.graded.get(grading, ())))
        assert basis._rows_at is None and basis.rows == fresh.rows, grading


@pytest.mark.parametrize("colors", (2, 3))
@pytest.mark.parametrize("label", sorted(GRID))
@settings(max_examples=8, deadline=None)
@given(fresh=st.booleans(), data=st.data())
def test_questions_on_shared_maps_match_the_general_path_and_reference(label, colors, fresh, data):
    # A copy of the input keeps nothing, so its first questions make the
    # bases; the grid's own input keeps what earlier examples made.  The
    # drawn order lets a basis made for one question be read by another,
    # and a copy or a parsed side share the column maps of the kept builds.
    p = copy.copy(GRID[label]) if fresh else GRID[label]
    sides = shared_sides(p, colors)
    question = st.tuples(st.sampled_from(QUESTIONS), st.sampled_from(SIDES), st.sampled_from(SIDES))
    for asked in data.draw(st.lists(question, min_size=1, max_size=6)):
        kind, left, right = asked
        answer = ask(kind, sides[left], sides[right])
        assert answer == ask(kind, rebuilt(sides[left]), rebuilt(sides[right])), asked
        assert answer == reference_answers(label, colors, left, right)[kind], asked
    for side in sides.values():
        assert_kept_bases_are_fresh(side)


def dualized(tree):
    if tree.is_leaf:
        return tree
    return Tree(tree.gen.dual(), tuple(dualized(c) for c in tree.children))


def reference_dual_relations(p):
    """R^perp per arity: the dense null space of the sign-scaled relation rows."""
    rels = []
    for arity in (1, 2, 3):
        component, rows = dense_rows(p.generators, p.relations, arity, 2)
        if component.dimension == 0:
            continue
        signs = [shape_sign(t) for t in component.basis]
        scaled = [[x * sign for x, sign in zip(row, signs)] for row in rows]
        for i, vec in enumerate(ref.nullspace(scaled, component.dimension)):
            terms = []
            for coeff, tree in zip(vec, component.basis):
                if coeff:
                    dual_tree = dualized(tree)
                    terms.append(Term(coeff, dual_tree, standard_slots(dual_tree)))
            rels.append(Relation(f"dual_a{arity}_{i}", tuple(terms)))
    return Presentation("reference", (), (), tuple(rels)).relations


QUADRATIC = sorted(label for label, p in GRID.items() if p.is_quadratic)


def drawn_awkward(data, most):
    """Up to ``most`` awkward relations, those that ``validate`` refuses left out."""
    relations = [data.draw(awkward_relations(f"r{i}")) for i in range(data.draw(st.integers(0, most)))]
    return awkward_presentation(rel for rel in relations if validate(awkward_presentation([rel])).ok)


@settings(max_examples=80, deadline=None)
@given(st.booleans(), st.data())
def test_koszul_dual_matches_reference(awkward, data):
    # Catalog constructions never put two terms on one tree; the awkward
    # relations merge columns, hold 0*t terms and have coefficients that are
    # not coprime integers, so their rows are made content 1 again.
    if awkward:
        p = drawn_awkward(data, 4)
    else:
        label, kind = data.draw(st.sampled_from(QUADRATIC)), data.draw(st.sampled_from(KINDS))
        p = subset(data, constructed(label, kind))
    assert koszul_dual(p).relations == reference_dual_relations(p)


@settings(max_examples=60, deadline=None)
@given(st.booleans(), st.data())
def test_component_matrix_matches_the_dense_rows(awkward, data):
    # The program's dense rows, kept for the benchmark's tracer and the
    # acceptance gate, are the test-owned ones in every grading of the
    # relations and in an empty one.
    if awkward:
        p = drawn_awkward(data, 4)
    else:
        label, kind = data.draw(st.sampled_from(sorted(GRID))), data.draw(st.sampled_from(KINDS))
        p = subset(data, constructed(label, kind))
    for arity, weight in relation_gradings(p.relations) + [(4, 1)]:
        component, rows = dense_rows(p.generators, p.relations, arity, weight)
        assert component_matrix(p.generators, p.relations, arity, weight) == (
            component, RationalMatrix(rows, component.dimension)
        )
