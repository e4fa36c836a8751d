"""The three compatible constructions and the linear-encoding check."""

import copy
import gc
import itertools
import pickle
import weakref
from fractions import Fraction
from math import gcd

import pytest
import rescaled
from dense_rows import dense_rank

from opdkit import compat
from opdkit.catalog import builtin, default_grid
from opdkit.compat import (
    build_compatible,
    build_lin,
    build_mat,
    build_tot,
    lin_encoding_sides,
    relation_count,
    verify_lin_encoding,
)
from opdkit.parser import serialize
from opdkit.presentation import (
    ColorSet,
    Presentation,
    Relation,
    Term,
    _integers,
    _terms_skeleton,
    rename_generators,
    support,
)
from opdkit.spans import (
    presentation_span_contains,
    presentation_span_equal,
    span_components,
)
from opdkit.trees import Generator, relabel, tree_text

TWO = ColorSet.of(2)
THREE = ColorSet.of(3)


def test_support_of_assoc_and_rb():
    assoc = builtin("as").relation("assoc")
    assert [tree_text(t) for t, _ in support(assoc)] == [
        "m(m(x1,x2),x3)",
        "m(x1,m(x2,x3))",
    ]
    rb = builtin("rba0").relation("rb")
    assert len(support(rb)) == 3


def test_support_drops_cancelled_terms():
    assoc = builtin("as").relation("assoc")
    extra = Term(-assoc.terms[0].coeff, assoc.terms[0].tree, assoc.terms[0].slots)
    cancelled = Relation("r", assoc.terms + (extra,))
    assert [tree_text(t) for t, _ in support(cancelled)] == ["m(x1,m(x2,x3))"]


def test_build_mat_assoc_family():
    mat = build_mat(builtin("as"), TWO)
    assert len(mat.relations) == 4
    texts = {
        rel.name: sorted(tree_text(t.tree) for t in rel.terms)
        for rel in mat.relations
    }
    assert texts["assoc__1,2"] == ["m#1(x1,m#2(x2,x3))", "m#2(m#1(x1,x2),x3)"]


def test_build_mat_relation_counts():
    # one colored relation per color tuple, |colors|^weight each
    for label, pres in default_grid():
        mat = build_mat(pres, TWO)
        expected = sum(2 ** rel.weight for rel in pres.relations)
        assert len(mat.relations) == expected, label


def scaled(p, scale):
    """``p`` with every coefficient multiplied by ``scale``."""
    relations = tuple(
        Relation(rel.name, tuple(Term(t.coeff * scale, t.tree, t.slots) for t in rel.terms))
        for rel in p.relations
    )
    return Presentation(p.name, p.unary, p.binary, relations)


# The catalog, presentations whose colorings merge and cancel terms, and
# both with coefficients that are not coprime integers.
STAMP_INPUTS = [
    (f"{label} x {scale}", scaled(p, scale))
    for label, p in rescaled.GRID.items()
    for scale in (Fraction(1), Fraction(-4, 3))
]


def stamped_relations(p, omega):
    for kind in ("linear", "matching", "total"):
        yield from build_compatible(kind, p, omega).relations
    yield from lin_encoding_sides(p, omega)[0].relations


@pytest.mark.parametrize("label, p", STAMP_INPUTS, ids=[label for label, _ in STAMP_INPUTS])
def test_stamped_integer_coefficients_are_the_coprime_integers_of_the_terms(label, p):
    # A stamped relation takes its integer coefficients from its template,
    # permuted as its terms were; they must be what its terms give afresh.
    # So must its skeleton, the one of the first stamp with that order.
    for n in (1, 2, 3):
        for rel in stamped_relations(p, ColorSet.of(n)):
            assert rel._integer_coefficients == tuple(_integers(rel.terms)), (n, rel.name)
            assert gcd(*rel._integer_coefficients) == 1, (n, rel.name)
            assert vars(rel)["_skeleton"] == _terms_skeleton(rel.terms), (n, rel.name)


@pytest.mark.parametrize("label, p", STAMP_INPUTS[::2], ids=[label for label, _ in STAMP_INPUTS[::2]])
def test_relation_count_is_the_number_of_relations_built(label, p):
    for kind in ("linear", "matching", "total"):
        for n in (1, 2, 3, 4):
            built = build_compatible(kind, p, ColorSet.of(n))
            assert relation_count(kind, p, n) == len(built.relations), (kind, n)


def test_build_lin_as_two_colors_exact_relations():
    # two constant-color copies plus one four-term mixed associativity
    lin = build_lin(builtin("as"), TWO)
    assert len(lin.relations) == 3
    mixed = lin.relation("assoc__L_1,2")
    texts = {(str(t.coeff), tree_text(t.tree)) for t in mixed.terms}
    assert texts == {
        ("1", "m#2(m#1(x1,x2),x3)"),
        ("1", "m#1(m#2(x1,x2),x3)"),
        ("-1", "m#1(x1,m#2(x2,x3))"),
        ("-1", "m#2(x1,m#1(x2,x3))"),
    }
    for w in ("1", "2"):
        constant = lin.relation(f"assoc__{w},{w}")
        assert {tree_text(t.tree) for t in constant.terms} == {
            f"m#{w}(m#{w}(x1,x2),x3)",
            f"m#{w}(x1,m#{w}(x2,x3))",
        }


def _coefficient_grid():
    # default_grid() already holds p_cubed and multi_diff(2).
    extra = [(f"multi_diff({n})", builtin("multi_diff", n)) for n in (1, 3)]
    return default_grid() + extra


def _slot_colors(term):
    colors = dict(zip(term.slots, (g.color for g in term.tree.internal_generators())))
    return tuple(colors[slot] for slot in sorted(colors))


def _formal_coefficients(p, omega):
    """The formal side of ``p`` over ``omega`` by (relation, color monomial),
    read from each relation's name ``<relation>__c_<a.b...>``."""
    out = {}
    for rel in lin_encoding_sides(p, omega)[0].relations:
        relation, _, monomial = rel.name.rpartition("__c_")
        out[relation, tuple(monomial.split("."))] = rel
    return out


@pytest.mark.parametrize("omega", [1, 2, 3, ("b", "a", "c")])
def test_build_lin_relations_are_the_formal_coefficients(omega):
    # Exact oracle: each linear relation is, term for term, the coefficient
    # of its color monomial after substituting formal sums into the slots.
    for label, pres in _coefficient_grid():
        want = {key: rel.terms for key, rel in _formal_coefficients(pres, omega).items()}
        got = {}
        for rel in build_lin(pres, omega).relations:
            monomials = {tuple(sorted(_slot_colors(t))) for t in rel.terms}
            assert len(monomials) == 1, (label, rel.name)
            key = (rel.name.split("__")[0], monomials.pop())
            assert key not in got, (label, rel.name)
            got[key] = rel.terms
        assert got == want, (label, omega)


def test_build_lin_cubic_names_and_term_counts():
    # At three colors a cubic relation with k terms gives 3 one-color
    # relations of k terms, 6 two-color ones of 3k and one of 6k.
    rb = builtin("rba0").relation("rb")
    k = len(rb.terms)
    lin = build_lin(builtin("rba0"), THREE)
    counts = {r.name: len(r.terms) for r in lin.relations if r.name.startswith("rb__")}
    assert counts == {
        "rb__1,1,1": k,
        "rb__2,2,2": k,
        "rb__3,3,3": k,
        "rb__L_1,2": 3 * k,
        "rb__L_1,3": 3 * k,
        "rb__L_2,1": 3 * k,
        "rb__L_2,3": 3 * k,
        "rb__L_3,1": 3 * k,
        "rb__L_3,2": 3 * k,
        "rb__S_1,2,3": 6 * k,
    }


def test_build_lin_quadratic_counts():
    # n_colors constant copies plus one symmetrized sum per unordered pair
    lin = build_lin(builtin("dend"), THREE)
    per_family = 3 + 3
    assert len(lin.relations) == 3 * per_family


def test_singleton_collapse():
    one = ColorSet.of(1)
    for label, pres in default_grid():
        for build in (build_lin, build_mat, build_tot):
            collapsed = build(pres, one)
            back = rename_generators(
                collapsed, {g: g.uncolored() for g in collapsed.generators}
            )
            assert presentation_span_equal(back, pres), (label, build.__name__)


def test_epimorphism_chain():
    for label, pres in default_grid():
        for omega in (TWO, THREE):
            lin = build_lin(pres, omega)
            mat = build_mat(pres, omega)
            tot = build_tot(pres, omega)
            assert presentation_span_contains(mat, lin), label
            assert presentation_span_contains(tot, mat), label


def _transpositions(tot, base, mu, nu):
    """The swaps that ``tot`` holds on the support trees of relation ``base``
    for the colors ``mu``, ``nu``."""
    return [
        rel for rel in tot.relations
        if rel.name.startswith(f"{base}__T_") and rel.name.endswith(f"_{mu},{nu}")
    ]


def test_transpositions_of_assoc():
    rels = _transpositions(build_tot(builtin("as"), TWO), "assoc", "1", "2")
    assert len(rels) == 2
    texts = [sorted((str(t.coeff), tree_text(t.tree)) for t in rel.terms) for rel in rels]
    assert [("-1", "m#1(m#2(x1,x2),x3)"), ("1", "m#2(m#1(x1,x2),x3)")] in texts
    assert [("-1", "m#2(x1,m#1(x2,x3))"), ("1", "m#1(x1,m#2(x2,x3))")] in texts


def test_transpositions_weight3_two_per_tree():
    tot = build_tot(builtin("rba0"), TWO)
    assert len(_transpositions(tot, "rb", "1", "2")) == 6
    assert not _transpositions(tot, "rb", "1", "1")
    # A swap needs two distinct colors, and a color set has no repeated label.
    with pytest.raises(ValueError):
        build_tot(builtin("rba0"), ColorSet(("1", "1")))


def test_transpositions_single_tree_weight2():
    tot = build_tot(builtin("d1d2"), TWO)
    assert len(_transpositions(tot, "dd_a", "1", "2")) == 1


def test_build_tot_as_span():
    tot = build_tot(builtin("as"), TWO)
    # matching family plus both comb transpositions
    names = {rel.name for rel in tot.relations}
    assert "assoc__T_0_1,2" in names and "assoc__T_1_1,2" in names
    assert dense_rank(tot.generators, tot.relations, 3, 2) == 5  # of the 8-dimensional ambient


def _signed_terms(rel, sign=1):
    totals = {}
    for term in rel.terms:
        totals[term.tree] = totals.get(term.tree, 0) + sign * term.coeff
    return frozenset((tree, c) for tree, c in totals.items() if c)


def test_build_tot_emits_no_negated_duplicates():
    for name in ("as", "dend", "d1d2"):
        for k in (2, 3):
            tot = build_tot(builtin(name), ColorSet.of(k))
            seen = {_signed_terms(rel) for rel in tot.relations}
            negated = [rel.name for rel in tot.relations if _signed_terms(rel, -1) in seen]
            assert negated == [], (name, k)
    # The two orientations of a weight-3 swap are different relations.
    tot = build_tot(builtin("rba0"), TWO)
    names = {rel.name for rel in tot.relations}
    for idx in range(len(support(builtin("rba0").relation("rb")))):
        for half in "ab":
            assert {f"rb__T_{idx}{half}_1,2", f"rb__T_{idx}{half}_2,1"} <= names
            a = tot.relation(f"rb__T_{idx}{half}_1,2")
            b = tot.relation(f"rb__T_{idx}{half}_2,1")
            assert _signed_terms(b) not in (_signed_terms(a), _signed_terms(a, -1))


def test_build_tot_swaps_are_one_tree_under_two_colorings():
    for label, pres in default_grid():
        for omega in (TWO, THREE):
            tot = build_tot(pres, omega)
            swaps = [r for r in tot.relations if "__T_" in r.name or r.name.startswith("swap__")]
            assert swaps, (label, omega)
            for rel in swaps:
                lo, hi = sorted(rel.terms, key=lambda t: t.coeff)
                assert (lo.coeff, hi.coeff) == (-1, 1), rel.name
                assert lo.slots == hi.slots, rel.name
                plain = {
                    relabel(t.tree, (g.uncolored() for g in t.tree.internal_generators()))
                    for t in rel.terms
                }
                assert len(plain) == 1, rel.name
                first, second = _slot_colors(hi), _slot_colors(lo)
                assert first != second and sorted(first) == sorted(second), rel.name


def test_build_tot_quadratic_rank_closed_form():
    # For quadratic P with relations R_a among the weight-2 trees V_a of
    # arity a, and k colors, tot spans R_a (x) S^2 + V_a (x) Lambda^2: the
    # matching span R_a (x) k^2 meets the swaps V_a (x) Lambda^2 in
    # R_a (x) Lambda^2.  dim V_a is t^2, 3ts, 2s^2 for t unary and s binary
    # generators.
    grid = [(label, p) for label, p in default_grid() if p.is_quadratic]
    grid.append(("multi_diff(1)", builtin("multi_diff", 1)))
    for label, pres in grid:
        t, s = len(pres.unary), len(pres.binary)
        for k in (2, 3):
            tot = build_tot(pres, ColorSet.of(k))
            for arity, dim_v in ((1, t * t), (2, 3 * t * s), (3, 2 * s * s)):
                dim_r = dense_rank(pres.generators, pres.relations, arity, 2)
                want = dim_r * k * (k + 1) // 2 + dim_v * k * (k - 1) // 2
                assert dense_rank(tot.generators, tot.relations, arity, 2) == want, (label, k, arity)


def test_build_tot_cubic_keeps_support_swaps():
    # With a cubic relation only the support trees carry swaps: one per
    # unordered color pair on a weight-2 relation, both orientations on a
    # weight-3 relation.
    for label, pres in default_grid():
        if pres.is_quadratic:
            continue
        tot = build_tot(pres, THREE)
        swaps = {
            f"{base.name}__T_{idx}{half}_{mu},{nu}"
            for base in pres.relations
            for idx in range(len(support(base)))
            for half in (("",) if base.weight == 2 else ("a", "b"))
            for mu, nu in (
                itertools.combinations(THREE.labels, 2)
                if base.weight == 2
                else itertools.permutations(THREE.labels, 2)
            )
        }
        mat = build_mat(pres, THREE)
        assert len(tot.relations) == len(mat.relations) + len(swaps), label
        assert {rel.name for rel in tot.relations} == {rel.name for rel in mat.relations} | swaps, label
        assert not any(rel.name.startswith("swap__") for rel in tot.relations), label


def test_formal_side_monomials():
    pres = builtin("rba0")
    coefficients = _formal_coefficients(pres, TWO)
    assert {monomial for relation, monomial in coefficients if relation == "rb"} == {
        ("1", "1", "1"),
        ("1", "1", "2"),
        ("1", "2", "2"),
        ("2", "2", "2"),
    }
    # diagonal monomial is the constant-color copy
    diag = coefficients["rb", ("1", "1", "1")]
    mat = build_mat(pres, TWO)
    assert presentation_span_equal(
        Presentation("diag", mat.unary, mat.binary, (diag,)),
        Presentation("constant", mat.unary, mat.binary, (mat.relation("rb__1,1,1"),)),
    )
    # the square monomial carries 9 terms: three colorings of three trees
    assert len(coefficients["rb", ("1", "1", "2")].terms) == 9


def test_formal_side_assoc_mixed_is_elementwise_sum():
    mixed = _formal_coefficients(builtin("as"), TWO)["assoc", ("1", "2")]
    lin = build_lin(builtin("as"), TWO)
    assert presentation_span_equal(
        Presentation("mixed", lin.unary, lin.binary, (mixed,)),
        Presentation("lin", lin.unary, lin.binary, (lin.relation("assoc__L_1,2"),)),
    )


@pytest.mark.parametrize("n", [2, 3])
def test_verify_lin_encoding_catalog(n):
    for label, pres in default_grid():
        assert verify_lin_encoding(pres, ColorSet.of(n)), (label, n)


def _equal_trees_are_one_object(*presentations) -> bool:
    seen = {}
    return all(
        seen.setdefault(term.tree, term.tree) is term.tree
        for p in presentations
        for rel in p.relations
        for term in rel.terms
    )


def test_build_tot_colors_each_tree_once():
    # The matching relations and the swaps color the same support trees.
    for label, pres in default_grid():
        assert _equal_trees_are_one_object(build_tot(pres, THREE)), label


def test_verify_lin_encoding_colors_each_tree_once(monkeypatch):
    # build_lin and the formal side color the same trees; the two sides that
    # reach the span check share them.
    compared = []

    def record(formal, lin):
        compared.append((formal, lin))
        return presentation_span_equal(formal, lin)

    monkeypatch.setattr(compat, "presentation_span_equal", record)
    for label, pres in default_grid():
        assert verify_lin_encoding(pres, THREE), label
        assert _equal_trees_are_one_object(*compared.pop()), label


def _trees(*presentations):
    return [term.tree for p in presentations for rel in p.relations for term in rel.terms]


def _memo_colorings(pres):
    """Every (generator or tree, colors) entry of ``pres``'s coloring memo."""
    return {
        (key, colors if isinstance(colors, tuple) else (colors,))
        for key, table in pres._compiled.memo.items()
        for colors in table
    }


def test_builds_of_one_input_share_trees_and_generators():
    for label, pres in default_grid():
        built = [build(pres, TWO) for build in (build_tot, build_mat, build_lin)]
        assert _equal_trees_are_one_object(*built), label
        gens = {id(g) for g in built[0].generators}
        for other in built:
            assert [id(g) for g in other.generators] == [id(g) for g in built[0].generators], label
            for tree in _trees(other):
                assert gens.issuperset(map(id, tree.internal_generators())), label


def test_more_colors_add_only_colorings_of_the_new_label():
    for label, pres in default_grid():
        two = build_tot(pres, TWO)
        before = _memo_colorings(pres)
        built = [build_tot(pres, THREE), build_lin(pres, THREE)]
        verify_lin_encoding(pres, THREE)
        added = _memo_colorings(pres) - before
        assert added and all("3" in colors for _, colors in added), label
        seen = {tree: tree for tree in _trees(two)}
        for tree in _trees(*built):
            if all(g.color != "3" for g in tree.internal_generators()):
                assert seen[tree] is tree, label


def test_built_presentation_pickles_and_copies_as_its_fields():
    built_from, never_built = builtin("rba0"), builtin("rba0")
    tot = serialize(build_tot(built_from, THREE))
    assert verify_lin_encoding(built_from, THREE) and "_compiled" in vars(built_from)
    for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.dumps(built_from, protocol) == pickle.dumps(never_built, protocol)
    clone = pickle.loads(pickle.dumps(built_from))
    for other in (clone, copy.copy(built_from), copy.deepcopy(built_from)):
        assert other == built_from and set(vars(other)) == {"name", "unary", "binary", "relations"}
    assert serialize(build_tot(clone, THREE)) == tot


def _span_answers(p, q):
    return presentation_span_contains(p, q), presentation_span_equal(p, q), list(span_components(p, q))


def test_copies_of_a_kept_build_take_the_general_path():
    pres = builtin("rba0")
    kept = {build.__name__: build(pres, THREE) for build in (build_lin, build_mat, build_tot)}
    # Every question is asked first, so the kept builds hold bases to leave behind.
    questions = {
        (left, right): _span_answers(p, q)
        for (left, p), (right, q) in itertools.product(kept.items(), repeat=2)
    }
    assert all("_spans" in vars(p) for p in kept.values())
    clones = {
        name: (copy.copy(p), copy.deepcopy(p), pickle.loads(pickle.dumps(p)))
        for name, p in kept.items()
    }
    for name, others in clones.items():
        for other in others:
            assert other == kept[name] and set(vars(other)) == {"name", "unary", "binary", "relations"}
    # The kept builds of an equal input made anew are other objects, with
    # sides of their own; their first question rows tot, not lin.
    twin = builtin("rba0")
    anew = {build.__name__: build(twin, THREE) for build in (build_lin, build_mat, build_tot)}
    assert presentation_span_contains(anew["build_tot"], anew["build_lin"])
    # Copies, kept builds and the kept builds of an equal input all live
    # over one generator set, so every pair shares the column maps.
    for (left, right), answers in questions.items():
        for p, q in zip(clones[left], clones[right]):
            for big, small in ((p, q), (p, kept[right]), (kept[left], q), (anew[left], kept[right])):
                assert _span_answers(big, small) == answers, (left, right)
    # Asked, a copy keeps its own side, over the kept build's column maps.
    for name, others in clones.items():
        maps = vars(kept[name])["_spans"].columns
        for other in others:
            side = vars(other)["_spans"]
            assert side is not vars(kept[name])["_spans"] and side.columns.keys() == maps.keys(), name
            assert all(side.columns[grading] is columns for grading, columns in maps.items()), name


# --- finished builds are kept in the input's compiled state ---

BUILDS = (build_lin, build_mat, build_tot)


def test_a_build_asked_again_is_the_kept_one():
    pres = builtin("rba0")
    for short, kind in compat.KINDS.items():
        build = getattr(compat, f"build_{short}")
        assert build(pres, TWO) is build(pres, ColorSet.of(2)) is build_compatible(kind, pres, TWO), short


def test_tot_holds_the_relations_of_mat():
    for label, pres in default_grid():
        tot = {id(rel) for rel in build_tot(pres, THREE).relations}
        assert tot.issuperset(map(id, build_mat(pres, THREE).relations)), label


def test_kept_builds_go_with_their_input():
    pres = builtin("dend")
    kept = [weakref.ref(build(pres, TWO)) for build in BUILDS]
    assert all(ref() is not None for ref in kept)
    del pres
    gc.collect()
    assert all(ref() is None for ref in kept)


def test_other_colors_and_equal_inputs_build_anew():
    pres, twin = builtin("d1d2"), builtin("d1d2")
    for build in BUILDS:
        two = build(pres, TWO)
        assert build(pres, ColorSet.of(("1", "3"))) is not two
        anew = build(twin, TWO)
        assert anew == two and anew is not two
        assert not {id(rel) for rel in anew.relations} & {id(rel) for rel in two.relations}


def test_templates_take_their_relations_integers():
    for label, pres in default_grid():
        for template, rel in zip(compat._compiled(pres).templates, pres.relations):
            assert template._integers is rel._integer_coefficients, label


def test_refused_input_raises_the_same_error_on_every_build():
    pres = builtin("as")
    twice = Presentation(pres.name, pres.unary, pres.binary, pres.relations * 2)
    builds = (build_lin, build_mat, build_tot, lin_encoding_sides, verify_lin_encoding)
    messages = set()
    for build in builds * 2:
        with pytest.raises(ValueError) as info:
            build(twice, TWO)
        messages.add(str(info.value))
    assert messages == {"invalid presentation as: duplicate relation name assoc"}
    colored = build_mat(pres, TWO)
    for build in builds * 2:
        with pytest.raises(ValueError, match="^cannot replicate already-colored generator m#1$"):
            build(colored, TWO)


def test_verify_lin_encoding_singleton_trivial():
    assert verify_lin_encoding(builtin("rba0"), ColorSet.of(1))


def test_color_symmetry_of_lin_and_tot():
    for key in ("rba0", "dend"):
        pres = builtin(key)
        for build in (build_lin, build_tot):
            built = build(pres, THREE)
            for perm in itertools.permutations(THREE.labels):
                sigma = dict(zip(THREE.labels, perm))
                mapping = {
                    g: Generator(g.name, g.arity, sigma[g.color], g.dualized)
                    for g in built.generators
                }
                renamed = rename_generators(built, mapping)
                assert presentation_span_equal(renamed, built), (key, build.__name__, perm)
                # A renamed relation keeps its source's skeleton only where
                # its terms keep their order.
                for rel in renamed.relations:
                    assert rel._skeleton == _terms_skeleton(rel.terms), (key, build.__name__, perm)
