"""Trees: grafting, composition, enumeration, canonical order."""

import itertools
import os
import pickle
import pickletools
import random
import subprocess
import sys
import weakref
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import opdkit
from opdkit.catalog import builtin
from opdkit.compat import build_mat, build_tot
from opdkit.parser import parse_presentation, serialize
from opdkit.presentation import ColorSet, Presentation, Relation, Term
from opdkit.trees import (
    Generator,
    Tree,
    basis_dimension,
    compose,
    corolla,
    enumerate_basis,
    graft,
    leaf,
    relabel,
    tree_key,
    tree_text,
)

P = Generator("P", 1)
M = Generator("m", 2)
N = Generator("n", 2)
D2 = Generator("d2", 1)


def t(gen, *children):
    return Tree(gen, tuple(children))


X = leaf()


def test_graft_first_leaf():
    got = graft(corolla(M), 1, corolla(P))
    assert got == t(M, t(P, X), X)
    assert tree_text(got) == "m(P(x1),x2)"


def test_graft_right_comb():
    got = graft(corolla(M), 2, corolla(M))
    assert got == t(M, X, t(M, X, X))
    assert got.arity == 3 and got.weight == 2


def test_graft_left_left_comb():
    got = graft(graft(corolla(M), 1, corolla(M)), 1, corolla(M))
    assert tree_text(got) == "m(m(m(x1,x2),x3),x4)"
    assert got.arity == 4 and got.weight == 3


def test_graft_out_of_range():
    with pytest.raises(IndexError):
        graft(corolla(M), 3, corolla(P))
    with pytest.raises(IndexError):
        graft(corolla(P), 0, corolla(P))


def test_compose_unitality():
    tree = t(M, t(P, X), X)
    assert compose(tree, [X, X]) == tree
    assert compose(X, [tree]) == tree


def test_compose_rb_support_tree():
    got = compose(corolla(M), [corolla(P), corolla(P)])
    assert tree_text(got) == "m(P(x1),P(x2))"


def test_compose_bad_argument_count():
    with pytest.raises(ValueError):
        compose(corolla(M), [X])


# --- canonical order ---


def test_relabel_decorates_in_preorder():
    tree = t(M, t(P, X), t(N, X, X))
    assert relabel(tree, tree.internal_generators()) == tree
    got = relabel(tree, [N, D2, M])
    assert tree_text(got) == "n(d2(x1),m(x2,x3))"
    assert got.internal_generators() == (N, D2, M)
    assert relabel(X, []) is X


@pytest.mark.parametrize("gens, message", [
    ((M, M, M), "tree has 2 internal vertices but 3 generators"),
    ((M,), "tree has 2 internal vertices but 1 generators"),
    ((M, P), "node P needs 1 children, got 2"),
], ids=["surplus", "too-few", "wrong-arity"])
def test_relabel_needs_one_generator_of_each_vertex_arity(gens, message):
    with pytest.raises(ValueError) as excinfo:
        relabel(t(M, t(M, X, X), X), gens)
    assert str(excinfo.value) == message


def test_compare_equal_and_examples():
    left_comb = t(M, t(M, X, X), X)
    right_comb = t(M, X, t(M, X, X))
    assert tree_key(left_comb) == tree_key(t(M, t(M, X, X), X))
    assert tree_key(left_comb) < tree_key(right_comb)
    assert tree_key(t(M, t(P, X), X)) < tree_key(t(M, X, t(P, X)))


def test_compare_is_exhaustive_order_on_component():
    component = enumerate_basis([P, M], 3, 2)
    assert [tree_text(u) for u in component.basis] == [
        "m(m(x1,x2),x3)",
        "m(x1,m(x2,x3))",
    ]


def test_compare_strict_total_order_on_components():
    for arity, weight in [(2, 2), (3, 2), (2, 3), (3, 3)]:
        keys = [tree_key(u) for u in enumerate_basis([P, M, N, D2], arity, weight).basis]
        for a, b in itertools.combinations(keys, 2):
            assert a < b and not b < a
        for a, b, c in itertools.combinations(keys, 3):
            assert a < b < c and a < c


# --- enumeration ---


def brute_force_component(gens, arity, weight):
    """Independent oracle: grow trees by grafting corollas in all positions."""
    level = {leaf()}
    for _ in range(weight):
        grown = set()
        for tree in level:
            for i in range(1, tree.arity + 1):
                for g in gens:
                    grown.add(graft(tree, i, corolla(g)))
        level = grown
    return {tree for tree in level if tree.arity == arity}


@pytest.mark.parametrize(
    "t_count,s_count", [(t, s) for t in (1, 2, 3) for s in (1, 2, 3)]
)
def test_closed_form_counts(t_count, s_count):
    unary = [Generator(f"u{i}", 1) for i in range(t_count)]
    binary = [Generator(f"b{i}", 2) for i in range(s_count)]
    gens = unary + binary
    t_, s = t_count, s_count
    expected = {
        (1, 2): t_ * t_,
        (2, 2): 3 * t_ * s,
        (3, 2): 2 * s * s,
        (2, 3): 6 * t_ * t_ * s,
        (3, 3): 10 * t_ * s * s,
        (4, 3): 5 * s ** 3,
        (1, 3): t_ ** 3,
    }
    for (arity, weight), count in expected.items():
        component = enumerate_basis(gens, arity, weight)
        assert component.dimension == count
        assert set(component.basis) == brute_force_component(gens, arity, weight)
        assert len(set(component.basis)) == component.dimension


def test_empty_and_identity_components():
    assert enumerate_basis([P, M], 2, 0).basis == ()
    assert enumerate_basis([P, M], 1, 0).basis == (leaf(),)
    assert enumerate_basis([M], 1, 2).basis == ()


def test_basis_dimension_counts_the_enumerated_basis():
    for t_count, s_count in itertools.product(range(3), repeat=2):
        gens = [Generator(f"u{i}", 1) for i in range(t_count)] + [
            Generator(f"b{i}", 2) for i in range(s_count)
        ]
        for arity, weight in itertools.product(range(1, 5), range(6)):
            want = enumerate_basis(gens, arity, weight).dimension
            assert basis_dimension(gens, arity, weight) == want, (t_count, s_count, arity, weight)
    for arity, weight in ((0, 2), (2, -1)):
        with pytest.raises(ValueError):
            basis_dimension([P, M], arity, weight)


# --- random structural properties ---


def random_tree(rng, gens, max_weight):
    tree = leaf()
    for _ in range(rng.randint(0, max_weight)):
        i = rng.randint(1, tree.arity)
        tree = graft(tree, i, corolla(rng.choice(gens)))
    return tree


def test_arity_weight_additivity_random():
    rng = random.Random(7)
    gens = [P, M, D2]
    for _ in range(300):
        a = random_tree(rng, gens, 5)
        b = random_tree(rng, gens, 5)
        i = rng.randint(1, a.arity)
        g = graft(a, i, b)
        assert g.arity == a.arity + b.arity - 1
        assert g.weight == a.weight + b.weight


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_grafting_associativity(data):
    rng = random.Random(data.draw(st.integers(0, 10 ** 6)))
    gens = [P, M]
    outer = random_tree(rng, gens, 3)
    mid = random_tree(rng, gens, 3)
    inner = random_tree(rng, gens, 3)
    i = data.draw(st.integers(1, outer.arity))
    j = data.draw(st.integers(1, mid.arity))
    nested_first = graft(outer, i, graft(mid, j, inner))
    grafted_first = graft(graft(outer, i, mid), i + j - 1, inner)
    assert nested_first == grafted_first
    assert hash(nested_first) == hash(grafted_first)


def test_pickled_trees_rebuild_their_hash():
    tree = t(M, t(P, X), t(M, X, X))
    # A cached string-based hash is only valid in the process that made it,
    # and every computed field is rebuilt, never copied.
    data = pickle.dumps(tree)
    for stored in (b"_hash", b"shape", b"_gens", b"_keys", b"sort_key"):
        assert stored not in data
    assert "BUILD" not in {op.name for op, _, _ in pickletools.genops(data)}
    copy = pickle.loads(data)
    assert copy == tree and hash(copy) == hash(tree)
    assert (copy.arity, copy.weight) == (3, 3)
    assert (copy.shape, copy.internal_generators()) == (tree.shape, (M, P, M))


def test_trees_and_generators_are_slotted():
    for obj in (t(M, t(P, X), X), M):
        assert not hasattr(obj, "__dict__")
        with pytest.raises(TypeError):
            weakref.ref(obj)
    gen = Generator("m", 2, "a", True)
    data = pickle.dumps(gen)
    # The hash and sort key are rebuilt on loading, never copied: the pickle
    # calls the constructor and sets no state afterwards.
    for stored in (b"_hash", b"sort_key"):
        assert stored not in data
    assert "BUILD" not in {op.name for op, _, _ in pickletools.genops(data)}
    copy = pickle.loads(data)
    assert copy == gen and hash(copy) == hash(gen) and copy.sort_key == ("m", "a", True)


_OTHER_PROCESS = """
import pickle, sys
from opdkit.trees import Generator, Tree, leaf, tree_key

tree, gen, table, parent_hash = pickle.load(sys.stdin.buffer)
m, p = Generator("m", 2), Generator("P", 1)
fresh_tree = Tree(m, (Tree(p, (leaf(),)), Tree(m, (leaf(), leaf()))))
fresh_gen = Generator("n", 2, "b", True)
assert hash("opdkit") != parent_hash, "the child must hash strings differently"
assert tree == fresh_tree and hash(tree) == hash(fresh_tree)
assert gen == fresh_gen and hash(gen) == hash(fresh_gen)
assert gen.sort_key == fresh_gen.sort_key == ("n", "b", True)
assert tree_key(tree) == tree_key(fresh_tree)
assert table[fresh_tree] == "tree" and table[fresh_gen] == "gen"
assert fresh_tree in table and fresh_gen in table
print("ok")
"""


def test_pickles_load_in_a_process_with_another_hash_seed():
    tree = t(M, t(P, X), t(M, X, X))
    gen = Generator("n", 2, "b", True)
    data = pickle.dumps((tree, gen, {tree: "tree", gen: "gen"}, hash("opdkit")))
    seed = "1" if os.environ.get("PYTHONHASHSEED") == "2" else "2"
    src = str(Path(opdkit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONHASHSEED=seed)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", _OTHER_PROCESS],
        input=data, capture_output=True, env=env, timeout=60,
    )
    assert done.returncode == 0, done.stderr.decode()
    assert done.stdout.decode().split() == ["ok"]


# --- stored key against the tree walk ---


def preorder(tree):
    stack = [tree]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(node.children))


def walked_key(tree):
    """Reference ``tree_key``: (arity, weight, preorder kinds, preorder generator keys),
    with leaf 2, unary 0 and binary 1, read off a walk of the tree.  Each
    generator key is made from the generator's fields, not its stored key."""
    kinds, genkeys = [], []
    for node in preorder(tree):
        if node.is_leaf:
            kinds.append(2)
        else:
            gen = node.gen
            kinds.append(0 if gen.arity == 1 else 1)
            genkeys.append((gen.name, gen.color or "", gen.dualized))
    return (tree.arity, tree.weight, tuple(kinds), tuple(genkeys))


def walked_generators(tree):
    """Reference ``internal_generators``: the generators of a preorder walk."""
    return tuple(node.gen for node in preorder(tree) if node.gen is not None)


UNARY = [P, D2, Generator("P", 1, "a"), Generator("d2", 1, None, True)]
BINARY = [M, N, Generator("m", 2, "b"), Generator("n", 2, "a", True)]


def _grow(children):
    return st.one_of(
        st.builds(lambda g, c: Tree(g, (c,)), st.sampled_from(UNARY), children),
        st.builds(lambda g, a, b: Tree(g, (a, b)), st.sampled_from(BINARY), children, children),
    )


trees = st.recursive(st.just(X), _grow, max_leaves=5)


@st.composite
def built_trees(draw):
    """A tree made by ``Tree``, then by one of graft, compose, relabel, pickle."""
    tree = draw(trees)
    how = draw(st.sampled_from(["tree", "graft", "compose", "relabel", "pickle"]))
    if how == "graft":
        return graft(tree, draw(st.integers(1, tree.arity)), draw(trees))
    if how == "compose":
        return compose(tree, draw(st.lists(trees, min_size=tree.arity, max_size=tree.arity)))
    if how == "relabel":
        gens = [
            draw(st.sampled_from(UNARY if g.arity == 1 else BINARY))
            for g in walked_generators(tree)
        ]
        return relabel(tree, gens)
    if how == "pickle":
        return pickle.loads(pickle.dumps(tree))
    return tree


@settings(max_examples=300, deadline=None)
@given(built_trees())
def test_stored_key_matches_the_tree_walk(tree):
    key = walked_key(tree)
    assert tree_key(tree) == key
    assert tree.shape == key[2]
    assert tree.internal_generators() == walked_generators(tree)


def walked_text(tree, slots=None):
    """Reference ``tree_text``: a recursive walk, leaves numbered left to right."""
    next_leaf = [1]
    next_internal = [0]

    def go(node):
        if node.is_leaf:
            s = f"x{next_leaf[0]}"
            next_leaf[0] += 1
            return s
        label = node.gen.serialized()
        if slots is not None:
            label += f"@{slots[next_internal[0]]}"
        next_internal[0] += 1
        return f"{label}({','.join(go(c) for c in node.children)})"

    return go(tree)


@settings(max_examples=300, deadline=None)
@given(built_trees(), st.data())
def test_text_template_matches_the_tree_walk(tree, data):
    assert tree_text(tree) == walked_text(tree)
    slots = data.draw(st.permutations(range(1, tree.weight + 1)))
    assert tree_text(tree, slots) == walked_text(tree, slots)
    # The slotted form: a term as serialize prints it, and the parser reads it.
    term = Term(Fraction(data.draw(st.sampled_from([1, -1, 3, -2]))), tree, tuple(slots))
    text = serialize(Presentation("t", tuple(UNARY), tuple(BINARY), (Relation("r", (term,)),)))
    coeff = {1: "", -1: "-", 3: "3*", -2: "-2*"}[term.coeff]
    assert text.splitlines()[-1] == f"relation r: {coeff}{walked_text(tree, slots)}"
    assert parse_presentation(text).relations[0].terms == (term,)


@pytest.mark.parametrize(
    "slots,given", [((1, 2, 3), 3), ((1,), 1)], ids=["extra-slot", "missing-slot"]
)
def test_tree_text_needs_one_slot_per_internal_vertex(slots, given):
    with pytest.raises(ValueError) as excinfo:
        tree_text(t(M, t(M, X, X), X), slots)
    assert str(excinfo.value) == (
        f"tree has 2 internal vertices but {given} slot annotations"
    )


def walked_equal(a, b):
    """Reference tree equality: generators and children compared level by level."""
    return a.gen == b.gen and len(a.children) == len(b.children) and all(
        map(walked_equal, a.children, b.children)
    )


def colliding(tree, other):
    """A fresh copy of ``tree`` whose stored hash is ``other``'s, as in a collision."""
    copy = Tree(tree.gen, tree.children)
    object.__setattr__(copy, "_hash", other._hash)
    return copy


@settings(max_examples=300, deadline=None)
@given(built_trees(), built_trees())
def test_tree_equality_matches_the_tree_walk(a, b):
    assert (a == b) == walked_equal(a, b)
    # Past equal hashes, equality must still see every vertex.
    assert (a == colliding(b, a)) == walked_equal(a, b)
    copy = pickle.loads(pickle.dumps(a))
    assert copy == a and hash(copy) == hash(a)


@pytest.mark.parametrize("name", ["as", "rba0", "cubic_as"])
def test_equal_trees_from_separate_builds_compare_equal(name):
    # Builds of one input share their colored trees; two equal inputs made
    # apart share none.
    colors = ColorSet.of(3)
    tot, mat = build_tot(builtin(name), colors), build_mat(builtin(name), colors)
    tot_trees = {id(term.tree): term.tree for r in tot.relations for term in r.terms}
    mat_trees = {id(term.tree): term.tree for r in mat.relations for term in r.terms}
    assert not tot_trees.keys() & mat_trees.keys()  # no tree object is shared
    lookup = {tree: tree for tree in tot_trees.values()}
    for tree in mat_trees.values():
        twin = lookup[tree]  # every mat tree occurs in tot
        assert twin is not tree and twin == tree and hash(twin) == hash(tree)


def test_trees_that_differ_anywhere_compare_unequal():
    m1, m2 = Generator("m", 2, "1"), Generator("m", 2, "2")
    blank = Generator("m", 2, "")
    # The same sort key ("m", "", False), but a color '' is not no color.
    assert blank.sort_key == M.sort_key and blank != M
    deep = t(m1, t(m1, t(m1, X, X), X), X)
    for a, b in [
        (deep, t(m1, t(m1, t(m2, X, X), X), X)),  # one deep generator
        (deep, t(m1, X, t(m1, t(m1, X, X), X))),  # same generators, other shape
        (t(M, t(blank, X, X), X), t(M, t(M, X, X), X)),
    ]:
        assert a != b and b != a
        assert a != colliding(b, a) and colliding(b, a) != a


def test_tree_key_distinguishes_decorations():
    assert tree_key(t(P, t(D2, X))) != tree_key(t(D2, t(P, X)))
    assert tree_key(t(M, X, X)) != tree_key(t(N, X, X))


def test_generator_invariants():
    with pytest.raises(ValueError):
        Generator("bad", 3)
    g = Generator("m", 2, "1")
    assert g.serialized() == "m#1"
    assert g.dual().serialized() == "m#1^*"
    assert g.dual().dual() == g
    with pytest.raises(ValueError):
        g.colored("2")
