"""Presentations: validation, coloring, sums, renaming, tensor generators."""

from fractions import Fraction

import dataclasses
import pytest

from opdkit.catalog import builtin, default_grid
from opdkit.presentation import (
    ColorSet,
    Presentation,
    Relation,
    Term,
    color_relation,
    presentation_span_contains,
    presentation_span_equal,
    rename_generators,
    replicate,
    tensor_generators,
    validate,
)
from opdkit.trees import Generator, Tree, leaf, relabel, tree_text

P = Generator("P", 1)
M = Generator("m", 2)
X = leaf()


def test_catalog_entries_validate():
    for label, pres in default_grid():
        assert validate(pres).ok, label


def test_nonhomogeneous_relation_rejected():
    quadratic = Term(Fraction(1), Tree(M, (Tree(M, (X, X)), X)), (2, 1))
    cubic = Term(Fraction(1), Tree(M, (Tree(M, (Tree(M, (X, X)), X)), X)), (3, 2, 1))
    bad = Presentation("bad", (), (M,), (Relation("r", (quadratic, cubic)),))
    report = validate(bad)
    assert not report.ok
    assert any("non-homogeneous" in p for p in report.problems)


def test_slot_arity_mismatch_rejected():
    term1 = Term(Fraction(1), Tree(P, (Tree(M, (X, X)),)), (1, 2))
    term2 = Term(Fraction(1), Tree(M, (Tree(P, (X,)), X)), (1, 2))  # slot 1 binary here
    bad = Presentation("bad", (P,), (M,), (Relation("r", (term1, term2)),))
    report = validate(bad)
    assert any("slot arity mismatch" in p for p in report.problems)


def test_validate_mutations_of_catalog():
    good = builtin("diff")
    rel = good.relations[0]
    # drop a slot annotation
    broken_term = dataclasses.replace(rel.terms[0], slots=(1, 1))
    mutated = dataclasses.replace(
        good, relations=(Relation(rel.name, (broken_term,) + rel.terms[1:]),)
    )
    assert not validate(mutated).ok
    # unknown generator
    rogue = Generator("zz", 2)
    term = Term(Fraction(1), Tree(rogue, (Tree(rogue, (X, X)), X)), (2, 1))
    mutated = dataclasses.replace(good, relations=(Relation("r", (term,)),))
    assert not validate(mutated).ok
    # duplicate generator triple
    mutated = dataclasses.replace(good, unary=(good.unary[0], good.unary[0]))
    assert not validate(mutated).ok
    # generator declared under the wrong arity heading
    mutated = dataclasses.replace(good, binary=(Generator("m", 1),))
    report = validate(mutated)
    assert any("listed as binary has arity 1" in p for p in report.problems)


def test_replicate_order_and_errors():
    omega = ColorSet.of(2)
    fam = replicate(builtin("as"), omega)
    assert [g.serialized() for g in fam] == ["m#1", "m#2"]
    fam = replicate(builtin("rba0"), ColorSet.of(["a"]))
    assert [g.serialized() for g in fam] == ["P#a", "m#a"]
    fam = replicate(builtin("multi_diff", 2), omega)
    assert len([g for g in fam if g.arity == 1]) == 4
    assert len([g for g in fam if g.arity == 2]) == 2
    colored = Presentation("c", (), (Generator("m", 2, "1"),), ())
    with pytest.raises(ValueError):
        replicate(colored, omega)


def test_color_relation_assoc_matches_matching_pattern():
    rel = builtin("as").relation("assoc")
    colored = color_relation(rel, ("1", "2"))
    texts = sorted(tree_text(t.tree, t.slots) for t in colored.terms)
    assert texts == ["m#1@1(x1,m#2@2(x2,x3))", "m#2@2(m#1@1(x1,x2),x3)"]


def test_color_relation_constant_color_forgets_back():
    rel = builtin("rba0").relation("rb")
    colored = color_relation(rel, ("w",) * 3)
    stripped = []
    for term in colored.terms:
        gens = [g.uncolored() for g in term.tree.internal_generators()]
        stripped.append(Term(term.coeff, relabel(term.tree, gens), term.slots))
    assert Relation(rel.name, tuple(stripped)) == rel


def test_color_relation_rb_mixed():
    rel = builtin("rba0").relation("rb")
    colored = color_relation(rel, ("1", "2", "1"))
    texts = {tree_text(t.tree): t.coeff for t in colored.terms}
    assert texts == {
        "m#1(P#1(x1),P#2(x2))": 1,
        "P#2(m#1(P#1(x1),x2))": -1,
        "P#1(m#1(x1,P#2(x2)))": -1,
    }


def test_color_relation_errors():
    rel = builtin("as").relation("assoc")
    with pytest.raises(ValueError):
        color_relation(rel, ("1",))
    with pytest.raises(ValueError):
        color_relation(rel, ("1", "3"), ColorSet.of(2))


def test_color_commutes_with_sum():
    rel = builtin("dend").relation("dleft")
    a = color_relation(Relation(rel.name, rel.terms + rel.terms), ("1", "2"))
    colored = color_relation(rel, ("1", "2"))
    b = Relation(colored.name, colored.terms + colored.terms)
    assert a.terms == b.terms


def test_removed_helpers_are_gone_from_the_api():
    import opdkit
    from opdkit import presentation, trees

    for module, name in ((opdkit, "elementwise_sum"), (opdkit, "compare"),
                         (presentation, "elementwise_sum"), (trees, "compare")):
        assert not hasattr(module, name), name


def test_rename_generators_roundtrip():
    pres = builtin("d1d2")
    forward = {g: Generator(g.name + "_r", g.arity) for g in pres.generators}
    backward = {v: k for k, v in forward.items()}
    there = rename_generators(pres, forward)
    assert {g.name for g in there.generators} == {"d1_r", "d2_r", "m_r"}
    assert rename_generators(there, backward) == pres
    assert rename_generators(pres, {g: g for g in pres.generators}) == pres


def test_rename_rejects_collapse_and_arity_change():
    pres = builtin("d1d2")
    collapse = {g: Generator("same", g.arity) for g in pres.generators}
    with pytest.raises(ValueError):
        rename_generators(pres, collapse)
    twist = {g: Generator(g.name, 3 - g.arity) for g in pres.generators}
    with pytest.raises(ValueError):
        rename_generators(pres, twist)


def test_tensor_generators():
    colored = [Generator("m", 2, "1"), Generator("m", 2, "2")]
    dend = builtin("dend").binary
    got = tensor_generators(colored, dend)
    assert [g.name for g in got] == ["m#1~prec", "m#1~succ", "m#2~prec", "m#2~succ"]
    assert tensor_generators([M], [M])[0].name == "m~m"
    with pytest.raises(ValueError):
        tensor_generators([P, M], [M])


def test_presentation_span_equal_requires_same_generators():
    with pytest.raises(ValueError):
        presentation_span_equal(builtin("as"), builtin("dend"))


def test_span_checks_reject_trees_outside_their_component():
    pres = builtin("as")
    stranger = Generator("n", 2)
    foreign = Relation(
        "foreign",
        (
            Term(Fraction(1), Tree(stranger, (Tree(M, (X, X)), X)), (2, 1)),
            Term(Fraction(-1), Tree(M, (X, Tree(M, (X, X)))), (1, 2)),
        ),
    )
    # Same generator list, but one relation uses a generator outside it.
    outside = dataclasses.replace(pres, relations=pres.relations + (foreign,))
    message = "relation foreign contains a tree outside its graded component"
    with pytest.raises(ValueError, match=message):
        presentation_span_contains(pres, outside)
    with pytest.raises(ValueError, match=message):
        presentation_span_contains(outside, pres)
    with pytest.raises(ValueError, match=message):
        presentation_span_equal(pres, outside)
    # Containment rows every grading of both sides: a stray relation of the
    # containing side is refused even where the contained side has none.
    lone = Relation("lone", (Term(Fraction(1), Tree(stranger, (X, X)), (1,)),))
    stray = dataclasses.replace(pres, relations=pres.relations + (lone,))
    with pytest.raises(ValueError, match="relation lone contains a tree outside"):
        presentation_span_contains(stray, pres)
    # A term of another grading is outside the component as well.
    mixed = Relation(
        "mixed",
        (
            Term(Fraction(1), Tree(M, (Tree(M, (X, X)), X)), (2, 1)),
            Term(Fraction(1), Tree(M, (X, X)), (1,)),
        ),
    )
    uneven = dataclasses.replace(pres, relations=(mixed,))
    with pytest.raises(ValueError, match="relation mixed contains a tree outside"):
        presentation_span_equal(pres, uneven)
