"""Presentations: validation, coloring, sums, renaming, tensor generators."""

from fractions import Fraction
from math import gcd
from pathlib import Path

import ast
import copy
import dataclasses
import gc
import operator
import pickle
import re
import pytest
import rescaled
from hypothesis import given, settings
from hypothesis import strategies as st

from opdkit import spans
from opdkit.catalog import builtin, default_grid
from opdkit.presentation import (
    ColorSet,
    Presentation,
    Relation,
    Term,
    _integers,
    _terms_skeleton,
    rename_generators,
    validate,
)
from opdkit.compat import _Template, _compiled, build_lin, build_mat, build_tot, lin_encoding_sides, replicate
from opdkit.duality import dual_identity_sides
from opdkit.linalg import Echelon
from opdkit.manin import tensor_map
from opdkit.parser import parse_presentation, serialize
from opdkit.spans import presentation_span_contains, presentation_span_equal, span_components
from opdkit.trees import Generator, Tree, color_label_problem, leaf, relabel, tree_key, tree_text

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


def test_a_relation_whose_terms_cancel_is_rejected():
    assoc = builtin("as")
    term = assoc.relation("assoc").terms[0]
    half, zero = (dataclasses.replace(term, coeff=c) for c in (Fraction(1, 2), Fraction(0)))
    minus = dataclasses.replace(term, coeff=-term.coeff)
    for terms in ((term, minus), (zero,), (half, half, minus)):
        bad = dataclasses.replace(assoc, relations=(Relation("r", terms),))
        assert validate(bad).problems == ["relation r: its terms cancel to zero"], terms
    # A 0*t term beside terms that stay, or two terms on one pair that sum
    # to a nonzero coefficient, is no zero relation.
    for terms in (assoc.relation("assoc").terms + (zero,), (half, half)):
        assert validate(dataclasses.replace(assoc, relations=(Relation("r", terms),))).ok, terms
    # Terms on one tree under two slot maps stay apart: the constant
    # colorings of ``cancel`` have zero span rows and are valid.
    mat = build_mat(rescaled.two_slot_maps(False), ColorSet.of(2))
    assert validate(mat).ok and mat.relation("cancel__1,1")


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


def test_relations_sort_by_name_then_first_term():
    assoc = builtin("as").relation("assoc")
    left, right = (Relation("r", (term,)) for term in assoc.terms)
    assert tree_key(left.terms[0].tree) < tree_key(right.terms[0].tree)
    other = Relation("a", assoc.terms)
    for given in ((right, other, left), (left, right, other), (other, right, left)):
        p = Presentation("dup", (), (M,), given)
        assert p.relations == (other, left, right)
        assert validate(p).problems == ["duplicate relation name r"]


def test_color_set_of_refuses_a_bare_string():
    # Read as a sequence, "10" would be the two labels 1 and 0, and b"ab"
    # the labels 97 and 98; a set iterates in an order that changes with the
    # hash seed; True is an int, and gave the one color 1; a float or None
    # is no sequence at all.
    for spec, kind in (("10", "str"), ("3", "str"), ("a,b", "str"), (b"ab", "bytes"),
                       ({"b", "a"}, "set"), (frozenset({"a"}), "frozenset"), (set(), "set"),
                       (True, "bool"), (False, "bool"), (3.0, "float"), (None, "NoneType")):
        with pytest.raises(ValueError) as refused:
            ColorSet.of(spec)
        assert str(refused.value) == (
            f"color set {spec!r} is a {kind}: give an int, a sequence of labels or a ColorSet"
        )
    assert ColorSet.of(["10"]).labels == ("10",)
    assert ColorSet.of(("a", "b")).labels == ("a", "b")


def test_color_set_of_passes_sequence_labels_unconverted():
    # Once converted by str(), None and True were the labels "None" and
    # "True", and (1, "1") was refused as a repeated label.  Now ColorSet's
    # own rule names the first label that is not a str.
    for spec, first in (([None], None), ([True, False], True), ((1, "1"), 1), ((1, 2), 1)):
        for make in (ColorSet.of, ColorSet):
            with pytest.raises(ValueError) as refused:
                make(spec)
            assert str(refused.value) == f"color label {first!r} is not a str"
    assert ColorSet.of(iter(["a", "b"])).labels == ("a", "b")


def test_color_set_refuses_a_string_or_bytes_as_its_labels():
    for labels, kind in (("10", "str"), (b"ab", "bytes"),
                         ({"b", "a"}, "set"), (frozenset({"a"}), "frozenset")):
        with pytest.raises(ValueError) as refused:
            ColorSet(labels)
        assert str(refused.value) == f"color labels {labels!r} is a {kind}: give a sequence of str labels"
    assert ColorSet(("10",)).labels == ("10",)


def test_color_set_keeps_its_labels_as_a_tuple_of_str():
    # A label that is no str is refused by name, not by the label pattern.
    for labels in ((1, 2), ["a", 2]):
        with pytest.raises(ValueError, match=r"^color label \d is not a str$"):
            ColorSet(labels)
    # Labels given as a list are kept as a tuple, so the set hashes and
    # keys a kept build like any other.
    listed = ColorSet(["a", "b"])
    assert listed.labels == ("a", "b") and listed == ColorSet(("a", "b"))
    assert build_mat(builtin("as"), listed) == build_mat(builtin("as"), ColorSet(("a", "b")))


Q = Generator("Q", 1)


def test_validate_keeps_the_text_and_order_of_its_problems():
    # One relation with an unknown generator, slots that are no permutation
    # and slot arity mismatches; one mixing gradings, whose terms are not
    # checked; one of weight 1 over an unknown generator.
    one = Fraction(1)
    r = Relation("r", (
        Term(one, Tree(P, (Tree(M, (X, X)),)), (1, 2)),
        Term(-one, Tree(M, (Tree(P, (X,)), X)), (1, 2)),
        Term(one, Tree(Q, (Tree(M, (X, X)),)), (2, 1)),
        Term(one, Tree(M, (X, Tree(P, (X,)))), (1, 1)),
    ))
    s = Relation("s", (
        Term(one, Tree(Q, (Tree(M, (X, X)),)), (1, 2)),
        Term(one, Tree(M, (Tree(M, (X, X)), X)), (1, 2)),
        Term(one, Tree(P, (X,)), (1,)),
    ))
    u = Relation("u", (Term(one, Tree(Q, (X,)), (1,)), Term(-one, Tree(P, (X,)), (1,))))
    assert validate(Presentation("bad", (P,), (M,), (r, s, u))).problems == [
        "relation r term 1: unknown generator Q",
        "relation r term 1: slot arity mismatch at slot 2",
        "relation r term 1: slot arity mismatch at slot 1",
        "relation r term 2: slot arity mismatch at slot 1",
        "relation r term 2: slot arity mismatch at slot 2",
        "relation r term 3: slots (1, 1) are not a permutation of 1..2",
        "relation s: non-homogeneous relation, mixes gradings [(1, 1), (2, 2), (3, 2)]",
        "relation u: weight 1 not quadratic or cubic",
        "relation u term 1: unknown generator Q",
    ]


def test_relations_of_one_faulty_shape_are_each_reported_by_name():
    # The structural answer is kept per shape; every relation of that shape
    # still gets its own problems, under its own name, in every presentation.
    assoc = builtin("as").relation("assoc")
    bad_terms = tuple(dataclasses.replace(t, slots=(1, 1)) for t in assoc.terms)
    relations = (Relation("a", bad_terms), Relation("b", bad_terms))
    expected = [
        f"relation {name} term {idx}: slots (1, 1) are not a permutation of 1..2"
        for name in ("a", "b") for idx in (0, 1)
    ]
    for _ in range(2):
        assert validate(Presentation("bad", (), (M,), relations)).problems == expected
    renamed = Generator("n", 2)
    moved = rename_generators(Presentation("bad", (), (M,), relations), {M: renamed})
    assert validate(moved).problems == expected


@pytest.mark.parametrize("label", ["a b", "1#2", ""])
@pytest.mark.parametrize("make", [
    build_lin, build_mat, build_tot, replicate, lin_encoding_sides,
    lambda p, omega: dual_identity_sides("linear", p, omega),
], ids=["build_lin", "build_mat", "build_tot", "replicate", "lin_encoding_sides", "dual_identity_sides"])
def test_library_refuses_color_labels_the_dsl_cannot_read(make, label):
    # The colored generator g#label would not read back, so no coloring is made.
    with pytest.raises(ValueError, match=re.escape(color_label_problem(label))):
        make(builtin("as"), [label, "c"])


def test_replicate_order_and_errors():
    omega = ColorSet.of(2)
    fam = replicate(builtin("as"), omega)
    assert [g.text for g in fam] == ["m#1", "m#2"]
    fam = replicate(builtin("rba0"), ColorSet.of(["a"]))
    assert [g.text for g in fam] == ["P#a", "m#a"]
    fam = replicate(builtin("multi_diff", 2), omega)
    assert len([g for g in fam if g.arity == 1]) == 4
    assert len([g for g in fam if g.arity == 2]) == 2
    # The family is the builds' own generator objects.
    pres = builtin("multi_diff", 2)
    fam, built = replicate(pres, omega), build_mat(pres, omega).generators
    assert len(fam) == len(built) and all(map(operator.is_, fam, built))
    colored = Presentation("c", (), (Generator("m", 2, "1"),), ())
    with pytest.raises(ValueError):
        replicate(colored, omega)


def test_color_relation_assoc_matches_matching_pattern():
    colored = build_mat(builtin("as"), ColorSet.of(2)).relation("assoc__1,2")
    texts = sorted(tree_text(t.tree, t.slots) for t in colored.terms)
    assert texts == ["m#1@1(x1,m#2@2(x2,x3))", "m#2@2(m#1@1(x1,x2),x3)"]


def test_color_relation_constant_color_forgets_back():
    rel = builtin("rba0").relation("rb")
    colored = build_mat(builtin("rba0"), ColorSet(("w",))).relation("rb__w,w,w")
    stripped = []
    for term in colored.terms:
        gens = [g.uncolored() for g in term.tree.internal_generators()]
        stripped.append(Term(term.coeff, relabel(term.tree, gens), term.slots))
    assert Relation(rel.name, tuple(stripped)) == rel


def test_color_relation_rb_mixed():
    colored = build_mat(builtin("rba0"), ColorSet.of(2)).relation("rb__1,2,1")
    texts = {tree_text(t.tree): t.coeff for t in colored.terms}
    assert texts == {
        "m#1(P#1(x1),P#2(x2))": 1,
        "P#2(m#1(P#1(x1),x2))": -1,
        "P#1(m#1(x1,P#2(x2)))": -1,
    }


# --- the colored walk against relabel ---


def colored_tree(tree, slots, colors, compiled):
    """``tree`` with ``colors[j-1]`` on its vertex at slot j, stamped from a
    one-term template compiled in ``compiled`` (``walk_state``).  A
    template term has at least 2 vertices, as every term of a valid
    relation and every swap has."""
    (term,) = _Template((Term(Fraction(1), tree, slots),), compiled).relation("t", (colors,), None).terms
    return term.tree


UNARY = [P, Generator("d", 1), Generator("P", 1, None, True)]
BINARY = [M, Generator("n", 2), Generator("m", 2, None, True)]


def walk_state():
    """A fresh compiled state over ``UNARY`` and ``BINARY``, with their
    copies colored a, b and c: what the builders stamp through."""
    p = Presentation("walks", tuple(UNARY), tuple(BINARY), ())
    replicate(p, ColorSet.of(["a", "b", "c"]))
    return _compiled(p)


@st.composite
def uncolored_trees(draw, max_weight, min_weight=0):
    """A tree of weight ``min_weight`` to ``max_weight`` over unary and binary generators."""
    weight = draw(st.integers(min_weight, max_weight))
    if weight == 0:
        return X
    if draw(st.booleans()):
        return Tree(draw(st.sampled_from(UNARY)), (draw(uncolored_trees(weight - 1)),))
    left = draw(uncolored_trees(weight - 1))
    right = draw(uncolored_trees(weight - 1 - left.weight))
    return Tree(draw(st.sampled_from(BINARY)), (left, right))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_colored_walk_matches_relabel_and_shares_subtrees(data):
    tree = data.draw(uncolored_trees(4, 2))
    other = data.draw(uncolored_trees(4, 2))
    labels = st.sampled_from(["a", "b", "c"])
    weight = max(tree.weight, other.weight)
    colors = tuple(data.draw(st.lists(labels, min_size=weight, max_size=weight)))
    slots = tuple(data.draw(st.permutations(range(1, tree.weight + 1))))
    other_slots = tuple(data.draw(st.permutations(range(1, other.weight + 1))))
    state = walk_state()
    colored = colored_tree(tree, slots, colors, state)
    reference = relabel(
        tree, [g.colored(colors[s - 1]) for g, s in zip(tree.internal_generators(), slots)]
    )
    assert colored == reference
    assert colored.internal_generators() == reference.internal_generators()
    assert tree_text(colored) == tree_text(reference)
    # A colored tree holds no subtrees; built again through the same memo,
    # after other trees, it is the same object.
    colored_tree(other, other_slots, colors, state)
    assert colored_tree(pickle.loads(pickle.dumps(tree)), slots, colors, state) is colored


@st.composite
def plans(draw, max_weight):
    """A tree as nested (generator, color, subplans), ``None`` for a leaf."""
    weight = draw(st.integers(0, max_weight))
    if weight == 0:
        return None
    color = draw(st.sampled_from(["a", "b", "c"]))
    if draw(st.booleans()):
        return (draw(st.sampled_from(UNARY)), color, (draw(plans(weight - 1)),))
    left = draw(plans(weight - 1))
    right = draw(plans(weight - 1 - plan_weight(left)))
    return (draw(st.sampled_from(BINARY)), color, (left, right))


def plan_weight(plan):
    return 0 if plan is None else 1 + sum(map(plan_weight, plan[2]))


def walked_tree(plan, colored):
    """The tree of ``plan`` built vertex by vertex with ``Tree(gen, children)``,
    its generators colored when ``colored`` is set."""
    if plan is None:
        return Tree()
    gen, color, subplans = plan
    return Tree(
        gen.colored(color) if colored else gen,
        tuple(walked_tree(sub, colored) for sub in subplans),
    )


def plan_colors(plan):
    """The colors of ``plan``'s vertices in preorder."""
    if plan is None:
        return []
    return [plan[1]] + [c for sub in plan[2] for c in plan_colors(sub)]


def assert_matches_plan(tree, plan):
    """``tree``'s ``gen`` and ``children`` are, vertex by vertex, the colored
    generators and walked subtrees of ``plan``."""
    assert tree == walked_tree(plan, True)
    if plan is None:
        assert tree.is_leaf and tree.gen is None and tree.children == ()
        return
    gen, color, subplans = plan
    assert not tree.is_leaf and tree.gen == gen.colored(color)
    assert len(tree.children) == len(subplans)
    for child, sub in zip(tree.children, subplans):
        assert_matches_plan(child, sub)


@settings(max_examples=300, deadline=None)
@given(plans(4), st.data())
def test_flat_colored_and_relabelled_trees_match_the_walked_tree(plan, data):
    tree, walked = walked_tree(plan, False), walked_tree(plan, True)
    vertex_colors = plan_colors(plan)
    slots = tuple(data.draw(st.permutations(range(1, tree.weight + 1))))
    colors = [""] * tree.weight
    for slot, color in zip(slots, vertex_colors):
        colors[slot - 1] = color
    flats = [relabel(tree, walked.internal_generators())]
    if tree.weight >= 2:
        flats.append(colored_tree(tree, slots, colors, walk_state()))
    for flat in flats:
        for built in (flat, pickle.loads(pickle.dumps(flat))):
            assert built == walked and walked == built
            assert hash(built) == hash(walked)
            assert tree_key(built) == tree_key(walked)
            assert tree_text(built) == tree_text(walked)
            assert tree_text(built, slots) == tree_text(walked, slots)
            assert built.internal_generators() == walked.internal_generators()
            assert_matches_plan(built, plan)


def test_color_commutes_with_sum():
    dend = builtin("dend")
    rel = dend.relation("dleft")
    doubled = Presentation(dend.name, dend.unary, dend.binary, (Relation(rel.name, rel.terms + rel.terms),))
    a = build_mat(doubled, ColorSet.of(2)).relation("dleft__1,2")
    colored = build_mat(dend, ColorSet.of(2)).relation("dleft__1,2")
    b = Relation(colored.name, colored.terms + colored.terms)
    assert a.terms == b.terms


@settings(max_examples=200, deadline=None)
@given(st.lists(
    st.one_of(st.just(Fraction(0)), st.fractions(min_value=-9, max_value=9, max_denominator=12)),
    min_size=1, max_size=6,
))
def test_integers_are_coprime_and_a_positive_multiple_of_the_coefficients(coeffs):
    ints = _integers([(c.numerator, c.denominator) for c in coeffs])
    assert len(ints) == len(coeffs) and all(type(v) is int for v in ints)
    if not any(coeffs):
        assert ints == [0] * len(coeffs)
        return
    assert gcd(*ints) == 1
    ratio = next(Fraction(v) / c for v, c in zip(ints, coeffs) if c)
    assert ratio > 0 and ints == [ratio * c for c in coeffs]


DERIVED = ("_integer_coefficients", "_skeleton")


def test_colored_relations_pickle_and_compare_as_their_fields():
    rel = builtin("rba0").relation("rb")
    scales = (Fraction(1, 2), Fraction(-3), Fraction(2, 3))
    rel = Relation(rel.name, tuple(Term(t.coeff * c, t.tree, t.slots) for t, c in zip(rel.terms, scales)))
    rba0 = builtin("rba0")
    scaled = Presentation(rba0.name, rba0.unary, rba0.binary, (rel,))
    colored = build_mat(scaled, ColorSet.of(2)).relation("rb__1,2,1")
    plain = Relation(colored.name, colored.terms)
    assert pickle.dumps(colored) == pickle.dumps(plain)
    assert (colored, hash(colored), repr(colored)) == (plain, hash(plain), repr(plain))
    # The stamped integer coefficients and skeleton are the ones worked out afresh.
    assert all(key in vars(colored) for key in DERIVED)
    assert colored._integer_coefficients == plain._integer_coefficients
    assert colored._skeleton == plain._skeleton == _terms_skeleton(colored.terms)
    copies = (pickle.loads(pickle.dumps(colored)), copy.copy(colored), copy.deepcopy(colored),
              dataclasses.replace(colored))
    for other in copies:
        assert other == colored and not any(key in vars(other) for key in DERIVED)
        assert other._integer_coefficients == colored._integer_coefficients
        assert other._skeleton == colored._skeleton
        assert pickle.dumps(other) == pickle.dumps(plain)
    # A copy with other terms works out its own values, never the source's.
    negated = tuple(dataclasses.replace(t, coeff=-2 * t.coeff) for t in colored.terms)
    other = dataclasses.replace(colored, terms=negated)
    assert other._skeleton == _terms_skeleton(negated) != colored._skeleton
    assert other._integer_coefficients == tuple(-v for v in colored._integer_coefficients)


def test_removed_helpers_are_gone_from_the_api():
    import opdkit
    from opdkit import compat, presentation, trees

    for module, name in ((opdkit, "elementwise_sum"), (opdkit, "compare"),
                         (presentation, "elementwise_sum"), (trees, "compare"),
                         (Relation, "renamed"), (presentation, "_colored_tree"),
                         (presentation, "_color_term"), (presentation, "_color_relation"),
                         (compat._Compiled, "tot_swaps")):
        assert not hasattr(module, name), name
    # The second coloring paths: the builders are the only way in.
    removed = {
        presentation: ("color_term", "color_relation", "tensor_generators",
                       "_Template", "_Compiled", "_ColoredCopies", "_colored_copies", "_picker"),
        compat: ("transposition_relations", "uncovered_trees", "_uncovered",
                 "_build_mat", "_build_lin", "_expand_formal", "FormalExpansion", "expand_formal",
                 "_ColoredCopies", "_colored_copies", "_colored_gens", "_monomial_name", "_swaps"),
    }
    for module, names in removed.items():
        for name in names:
            assert not hasattr(module, name), name
            assert name not in module.__all__, name
            assert not hasattr(opdkit, name), name
    # One colored family: ``compat`` makes it, and ``opdkit`` exports that one.
    assert not hasattr(presentation, "replicate") and "replicate" not in presentation.__all__
    assert opdkit.replicate is compat.replicate


DENSE = ("rref", "rank", "nullspace", "span_equal", "span_contains", "orthogonal_complement",
         "RationalMatrix", "DiagonalForm")
SPAN_NAMES = ("shared_generators_problem", "relation_gradings", "component_matrix", "SpanComponent",
              "span_components", "presentation_span_equal", "presentation_span_contains")


def test_dense_api_left_the_top_level():
    import opdkit
    from opdkit import duality, linalg

    for name in DENSE + ("pairing_form",):
        assert not hasattr(opdkit, name), name
    for name in DENSE:
        assert name in linalg.__all__ and hasattr(linalg, name), name
    assert not hasattr(duality, "pairing_form") and not hasattr(linalg.RationalMatrix, "empty")


def test_span_machinery_lives_in_spans():
    from opdkit import presentation, spans

    imported = {node.module for node in ast.walk(ast.parse(Path(presentation.__file__).read_text()))
                if isinstance(node, ast.ImportFrom)}
    assert not imported & {"linalg", "compat", "opdkit.linalg", "opdkit.compat"}
    for name in SPAN_NAMES:
        assert name in spans.__all__ and name not in presentation.__all__, name
    # Bound in presentation only for the readers that look them up there.
    bound = {name for name in SPAN_NAMES if hasattr(presentation, name)}
    assert bound == {"component_matrix", "relation_gradings", "presentation_span_equal",
                     "presentation_span_contains"}
    for name in bound:
        assert getattr(presentation, name) is getattr(spans, name), name
    for name in ("_Columns", "_by_grading", "_outside_component"):
        assert not hasattr(presentation, name) and hasattr(spans, name), name


TENSOR_NAMES = ("tensor_atom_name", "tensor_factors", "tensor_map", "tensor_clash", "_tensor_name", "_tensor_atom")
KIND_NAMES = {"lin", "mat", "tot", "linear", "matching", "total"}


def test_every_name_has_one_home():
    from opdkit import claims, cli, compat, duality, manin, parser, presentation

    for name in TENSOR_NAMES:
        assert not hasattr(presentation, name), name
        assert getattr(manin, name).__module__ == "opdkit.manin", name
    assert not hasattr(Generator, "serialized")
    assert "standard_slots" not in duality.__all__
    assert "split_generator_token" not in parser.__all__
    # The construction kinds are one table, compat.KINDS: no dict of cli or
    # claims is keyed by a kind, and cli spells none.
    trees = {m: ast.parse(Path(m.__file__).read_text()) for m in (cli, claims)}
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Dict):
                keys = {k.value for k in node.keys if isinstance(k, ast.Constant)}
                assert not keys & KIND_NAMES, (module.__name__, keys)
    assert not {n.value for n in ast.walk(trees[cli]) if isinstance(n, ast.Constant)} & KIND_NAMES
    assert set(compat.KINDS.items()) == {("lin", "linear"), ("mat", "matching"), ("tot", "total")}


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
    got = tensor_map(colored, dend)
    assert [g.name for g in got.values()] == ["m#1~prec", "m#1~succ", "m#2~prec", "m#2~succ"]
    assert list(got) == [(c, d) for c in colored for d in dend]
    assert tensor_map([M], [M])[M, M].name == "m~m"
    with pytest.raises(ValueError):
        tensor_map([P, M], [M])


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


def test_tot_extends_mat_and_a_question_asked_again_eliminates_nothing(monkeypatch):
    adds = []
    add = Echelon.add

    def counted(self, row):
        adds.append(row)
        return add(self, row)

    monkeypatch.setattr(Echelon, "add", counted)
    three = ColorSet.of(3)
    for label, p in default_grid():
        mat, lin = build_mat(p, three), build_lin(p, three)
        assert presentation_span_contains(mat, lin), label
        # mat's bases exist: tot's are copies of them grown by its swap rows.
        tot = build_tot(p, three)
        adds.clear()
        assert presentation_span_contains(tot, mat), label
        assert len(adds) <= len(tot.relations) - len(mat.relations), label
        # Asked again, every question reads the bases kept: nothing is eliminated.
        adds.clear()
        for big, small in ((tot, mat), (mat, lin)):
            report = list(span_components(big, small))
            assert presentation_span_contains(big, small), label
            assert presentation_span_equal(big, small) == all(c.equal for c in report), label
        assert not adds, label


def test_build_tot_groups_no_relations_until_a_span_question(monkeypatch, capsys):
    # build_tot records that tot extends mat; neither side groups its
    # relations by grading before its first question.
    from opdkit import cli

    grouped = []
    by_grading = spans._by_grading

    def counted(relations):
        grouped.append(relations)
        return by_grading(relations)

    monkeypatch.setattr(spans, "_by_grading", counted)
    path = Path(__file__).resolve().parent.parent / "src" / "opdkit" / "data" / "d1d2.opd"
    for fmt in ("dsl", "json"):
        assert cli.main(["build", "tot", str(path), "--omega", "3", "--format", fmt]) == 0
    assert capsys.readouterr().out and not grouped
    p = builtin("rba0")
    tot = build_tot(p, ColorSet.of(2))
    assert not grouped
    assert presentation_span_contains(tot, build_mat(p, ColorSet.of(2))) and grouped


def test_parsed_presentations_asked_again_eliminate_nothing(monkeypatch):
    adds = []
    add = Echelon.add

    def counted(self, row):
        adds.append(row)
        return add(self, row)

    monkeypatch.setattr(Echelon, "add", counted)
    three = ColorSet.of(3)
    for label, p in default_grid():
        tot, mat, lin = (parse_presentation(serialize(build(p, three))) for build in (build_tot, build_mat, build_lin))
        assert presentation_span_contains(tot, mat) and presentation_span_contains(mat, lin), label
        adds.clear()
        for big, small in ((tot, mat), (mat, lin)):
            report = list(span_components(big, small))
            assert presentation_span_contains(big, small), label
            assert presentation_span_equal(big, small) == all(c.equal for c in report), label
        assert not adds, label


def test_column_maps_live_as_long_as_a_side_holds_them():
    p = parse_presentation("operad held\nbinary qq\nrelation assoc: qq@2(qq@1(x1,x2),x3) - qq@1(x1,qq@2(x2,x3))\n")
    two = ColorSet.of(2)
    tot, mat = build_tot(p, two), build_mat(p, two)
    assert presentation_span_contains(tot, mat)
    gens = frozenset(mat.generators)
    # One map per (generators, grading), and it is the one both sides row over.
    held = {grading: columns for (key, grading), columns in spans._COLUMNS.items() if key == gens}
    assert held.keys() == {rel.grading() for rel in tot.relations}
    assert all(vars(side)["_spans"].columns[grading] is columns
               for side in (tot, mat) for grading, columns in held.items())
    # No map outlives the presentations whose sides hold it.
    del p, tot, mat, held
    gc.collect()
    assert not [key for key in list(spans._COLUMNS.keys()) if key[0] == gens]
