"""The three compatible operads over a finite color set.

Given a presentation P and colors W, three quotients of the free operad on
the replicated generators are built, with increasingly strict relations:

* linear   -- one relation per color monomial, the sum of its distinct
  orderings: a constant-color copy for c_a^w, (a,b)+(b,a) for c_a c_b,
  (a,a,b)+(a,b,a)+(b,a,a) for c_a^2 c_b, and all six orderings of three
  distinct colors;
* matching -- every coloring of every relation, over all color tuples;
* total    -- the matching relations plus, for every support tree, the
  transposition relations equating colorings that differ by swapping the
  colors of two slots; for a quadratic presentation, every weight-2 tree
  carries the swap, not only the support trees (see ``build_tot``).

``expand_formal``/``verify_lin_encoding`` mechanize the argument that the
linear construction encodes exactly the algebras closed under arbitrary
linear combinations of the replicated operations: substituting a formal sum
sum_w c_w g#w into every slot and collecting coefficients of each monomial
in the c's must yield the same componentwise span as the linear relations.
The expansion stamps the same colorings from the same templates as
``build_lin``, so it is not independent of it (the two agree term for term
up to names); ``tests/test_build_oracle.py::reference_expansion`` is.

This module is the only one that knows how a coloring is made.  Each
relation is compiled once into a template (``_Template``) and every
coloring is stamped from it; each swap is a template of one tree, stamped
for every pair of colors.  The templates, the swaps and the coloring memo
they share are the presentation's compiled state (``_Compiled``, reached
through ``_compiled``), made by the first build from a presentation
object and kept in its instance dict as long as that object lives.  So every
build from one input, at any color count, shares them: ``build_tot`` with
a ``build_mat`` of the same input, ``expand_formal`` with ``build_lin``, a
3-color build with a 2-color one.  The memo maps each tree to its colored
trees, keyed by the colors of the tree's vertices, so equal colored trees
built from one input are one object, and a build's generator list is read
from the memo's colored copies, so its trees and its generator list hold
the same objects.  The state is never global: an equal presentation built
anew starts with none.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from operator import getitem, itemgetter
from typing import Literal, Optional, Sequence

from .presentation import (
    ColorSet,
    Presentation,
    Relation,
    Term,
    _integers,
    _ordered_relation,
    _set,
    _term,
    replicate_problem,
    require_valid,
    standard_slots,
)
from .spans import presentation_span_equal
from .trees import Generator, Tree, _flat_tree, _require, enumerate_basis

__all__ = [
    "CompatKind",
    "KINDS",
    "FormalExpansion",
    "support",
    "build_lin",
    "build_mat",
    "build_tot",
    "build_compatible",
    "relation_count",
    "expand_formal",
    "lin_encoding_sides",
    "verify_lin_encoding",
]

CompatKind = Literal["linear", "matching", "total"]

# The constructions by the short name that ``opdkit build`` and the claim
# labels give them.  The builder of each is ``build_<short name>``, which
# ``build_compatible`` looks up when called, so that a rebinding of it (a
# tracer's) sees every build.
KINDS: dict[str, CompatKind] = {"lin": "linear", "mat": "matching", "tot": "total"}


def support(rel: Relation) -> list[tuple[Tree, tuple[int, ...]]]:
    """Duplicate-free (tree, slot map) pairs carrying a nonzero net coefficient.

    The sums are taken over the relation's integer coefficients, a positive
    multiple of its coefficients, so they vanish where the rational sums do.
    """
    totals: dict[tuple[Tree, tuple[int, ...]], int] = {}
    for term, coeff in zip(rel.terms, rel._integer_coefficients):
        key = (term.tree, term.slots)
        totals[key] = totals.get(key, 0) + coeff
    return [key for key, total in totals.items() if total]


class _ColoredCopies(dict):
    """color -> one generator colored by it, each copy made on first use."""

    __slots__ = ("gen",)

    def __init__(self, gen: Generator) -> None:
        super().__init__()
        self.gen = gen

    def __missing__(self, color: str) -> Generator:
        colored = self[color] = self.gen.colored(color)
        return colored


def _colored_copies(memo: dict, gen: Generator) -> _ColoredCopies:
    """The memo's table of the colored copies of ``gen``."""
    copies = memo.get(gen)
    if copies is None:
        copies = memo[gen] = _ColoredCopies(gen)
    return copies


class _Template:
    """Terms compiled once, to be colored by many colorings.

    It holds the terms' integer coefficients (``_integers``, coprime) and,
    per term, the coefficient, the shape and slots, the 0-based slot each
    vertex reads its color from, each vertex's table of colored generators
    and the memo's dict of the tree's colorings.  A coloring then makes
    each term from a lookup keyed by the colors of its vertices, and puts
    the terms in canonical order without checking them again.

    The memo is shared by everything colored from one presentation (see
    ``_Compiled``): ``memo[gen]`` maps a color to the colored generator,
    ``memo[tree]`` maps the colors of the tree's vertices in preorder to
    the colored tree.  Equal colored trees built through one memo are
    therefore one object.

    ``reads`` gives, per term, the slots its vertices read their colors
    from, when they are not the term's own slots (see ``_swap``).
    """

    __slots__ = ("_parts", "_integers", "_ranks", "_ties", "_in_order", "_integer_rows")

    def __init__(
        self, terms: Sequence[Term], memo: dict, reads: Optional[Sequence[tuple[int, ...]]] = None
    ) -> None:
        parts = []
        for term, read in zip(terms, reads or [t.slots for t in terms]):
            tree = term.tree
            colorings = memo.get(tree)
            if colorings is None:
                colorings = memo[tree] = {}
            parts.append((
                term.coeff,
                tree.shape,
                term.slots,
                # A valid term has 2 or 3 vertices, so this picks a tuple.
                itemgetter(*[slot - 1 for slot in read]),
                tuple([_colored_copies(memo, gen) for gen in tree.internal_generators()]),
                colorings,
            ))
        self._parts = parts
        self._integers = tuple(_integers(terms))
        # Colored terms compare as in Term.sort_key by (rank, generator
        # keys, tie).  Coloring keeps a tree's (arity, weight, shape), whose
        # rank comes first.  Two colored trees with equal keys come from
        # equal trees, so their terms compare by slots and coefficient, as
        # their template terms do: the tie is a term's place in the sorted
        # template.  One coloring of terms of increasing rank needs no sort.
        grades = [(term.tree.arity, term.tree.weight, term.tree.shape) for term in terms]
        rank = {grade: i for i, grade in enumerate(sorted(set(grades)))}
        self._ranks = [rank[grade] for grade in grades]
        self._ties = [0] * len(terms)
        if len(rank) < len(terms):  # else equal keys mean one template term
            for place, i in enumerate(sorted(range(len(terms)), key=lambda i: terms[i].sort_key())):
                self._ties[i] = place
        self._in_order = all(a < b for a, b in zip(self._ranks, self._ranks[1:]))
        # Sorted stamps with equal integer coefficients share one tuple.
        self._integer_rows: dict[tuple[int, ...], tuple[int, ...]] = {}

    def relation(self, name: str, colorings: Sequence[Sequence[str]]) -> Relation:
        """The relation ``name`` whose terms are those of every coloring.

        Its integer coefficients are the template's, in the order of its
        terms: as they are for one coloring in template order, else
        repeated per coloring and permuted as the terms are.
        """
        terms = []
        for colors in colorings:
            for coeff, shape, slots, pick, copies, trees in self._parts:
                vertex_colors = pick(colors)
                tree = trees.get(vertex_colors)
                if tree is None:
                    gens = tuple(map(getitem, copies, vertex_colors))
                    tree = trees[vertex_colors] = _flat_tree(shape, gens)
                # The template checked the term: it is made without Term's check.
                terms.append(_term(coeff, tree, slots))
        ints = self._integers
        if len(colorings) > 1 or not self._in_order:
            n = len(colorings)
            keys = list(zip(self._ranks * n, [term.tree._keys for term in terms], self._ties * n))
            order = sorted(range(len(terms)), key=keys.__getitem__)
            terms = [terms[i] for i in order]
            # Through a list: a tuple built from an iterator grows by
            # reallocation, which raised span-ladder's peak RSS by 0.5 MiB.
            repeated = ints * n
            ints = tuple([repeated[i] for i in order])
            ints = self._integer_rows.setdefault(ints, ints)
        rel = _ordered_relation(name, tuple(terms))
        _set(rel, "_integer_coefficients", ints)
        return rel


class _Compiled:
    """What the builders derive from one valid presentation.

    ``memo`` is the coloring memo that every build from the presentation
    shares, ``copies`` the memo's table of colored copies of each
    generator, in generator order, and ``templates`` one compiled template
    per relation, by position.  ``tot_swaps`` holds the total
    construction's swap templates, grouped by weight, once ``_tot_swaps``
    has compiled them.

    It is made on first use (``_compiled``) and lives as long as its
    presentation.  It grows with the color labels asked of it: each
    new label adds its colored generators and the colored trees that use it.
    """

    __slots__ = ("memo", "copies", "templates", "tot_swaps")

    def __init__(self, p: Presentation) -> None:
        self.memo = memo = {}
        self.copies = tuple([_colored_copies(memo, g) for g in p.generators])
        self.templates = tuple([_Template(rel.terms, memo) for rel in p.relations])
        self.tot_swaps: Optional[list[tuple[int, list[tuple[str, _Template]]]]] = None


def _compiled(p: Presentation) -> _Compiled:
    """``p``'s compiled state, made once ``p`` is known to be valid and uncolored
    and kept in its instance dict, as ``cached_property`` keeps a value."""
    state = vars(p).get("_compiled")
    if state is None:
        require_valid(p)
        _require(replicate_problem(p))
        state = vars(p)["_compiled"] = _Compiled(p)
    return state


def _colored_gens(
    omega: ColorSet, compiled: _Compiled
) -> tuple[tuple[Generator, ...], tuple[Generator, ...]]:
    """g#w for every generator g, then every color w, as ``replicate`` lists
    them, taken from the memo that the colored trees take theirs from."""
    gens = [copies[w] for copies in compiled.copies for w in omega.labels]
    return tuple([g for g in gens if g.arity == 1]), tuple([g for g in gens if g.arity == 2])


def build_mat(p: Presentation, omega: ColorSet) -> Presentation:
    """Matching operad: every coloring of every relation, all color tuples."""
    compiled = _compiled(p)
    omega = ColorSet.of(omega)
    unary, binary = _colored_gens(omega, compiled)
    rels = [
        template.relation(f"{rel.name}__{','.join(colors)}", (colors,))
        for rel, template in zip(p.relations, compiled.templates)
        for colors in itertools.product(omega.labels, repeat=rel.weight)
    ]
    return Presentation(f"mat_{p.name}__{'_'.join(omega.labels)}", unary, binary, tuple(rels))


def _monomial_name(base: str, colors: tuple[str, ...]) -> str:
    """``base__a,a`` for one color, ``base__L_<repeated>,<other>`` for two,
    ``base__S_a,b,c`` for three."""
    # Most frequent first, ties in order of first appearance.
    distinct = sorted(dict.fromkeys(colors), key=colors.count, reverse=True)
    if len(distinct) == 1:
        return f"{base}__{','.join(colors)}"
    return f"{base}__{'L' if len(distinct) == 2 else 'S'}_{','.join(distinct)}"


def build_lin(p: Presentation, omega: ColorSet) -> Presentation:
    """Linearly compatible operad: one relation per color monomial of each
    relation, the sum of its distinct orderings."""
    compiled = _compiled(p)
    omega = ColorSet.of(omega)
    unary, binary = _colored_gens(omega, compiled)
    rels = []
    for rel, template in zip(p.relations, compiled.templates):
        for colors in itertools.combinations_with_replacement(omega.labels, rel.weight):
            # The coefficient of c_mu c_nu ... is the sum over all distinct
            # orderings of the colors; the orderings are not individually
            # extractable from commuting scalars.
            orderings = list(dict.fromkeys(itertools.permutations(colors)))
            rels.append(template.relation(_monomial_name(rel.name, colors), orderings))
    return Presentation(f"lin_{p.name}__{'_'.join(omega.labels)}", unary, binary, tuple(rels))


# Transpositions of slots, as maps from slot to slot, and the swaps of a
# relation of each weight: a name suffix and the transposition applied.
_SWAP_12 = {1: 2, 2: 1, 3: 3}
_SWAP_23 = {1: 1, 2: 3, 3: 2}
_SWAPS = {2: (("", _SWAP_12),), 3: (("a", _SWAP_12), ("b", _SWAP_23))}


def _swap(tree: Tree, slots: tuple[int, ...], swap: dict[int, int], memo: dict) -> _Template:
    """The swap t(first) - t(second) of one slotted tree, as a template that
    is stamped by ``first``.

    ``second`` is ``first`` with the colors of the slots that ``swap``
    exchanges exchanged, so both terms are ``tree`` with ``slots`` and the
    second one's vertices read their colors from the swapped slots.
    """
    terms = (Term(Fraction(1), tree, slots), Term(Fraction(-1), tree, slots))
    return _Template(terms, memo, (slots, tuple([swap[s] for s in slots])))


def _swaps(rel: Relation, supported: list, memo: dict) -> list[tuple[str, _Template]]:
    """The swap templates of ``rel``'s support trees, with their name stems.

    Weight 2: t(mu,nu) - t(nu,mu).  Weight 3: t(mu,nu,mu) - t(nu,mu,mu) and
    t(mu,nu,mu) - t(mu,mu,nu), i.e. the swap of slots 1,2 and of slots 2,3.
    """
    return [
        (f"{rel.name}__T_{idx}{suffix}", _swap(tree, slots, swap, memo))
        for idx, (tree, slots) in enumerate(supported)
        for suffix, swap in _SWAPS[rel.weight]
    ]


def _uncovered(p: Presentation, supports) -> list[tuple[int, Tree]]:
    """The weight-2 trees over p's generators outside every support, each
    with its basis index, arity by arity (1, 2, 3) in canonical order."""
    covered = {tree for supported in supports for tree, _ in supported}
    bases = (enumerate_basis(p.generators, arity, 2).basis for arity in (1, 2, 3))
    return [(i, tree) for basis in bases for i, tree in enumerate(basis) if tree not in covered]


def build_tot(p: Presentation, omega: ColorSet) -> Presentation:
    """Totally compatible operad: matching relations plus color swaps.

    Every relation contributes color swaps on its support trees, named
    ``<relation>__T_<support index>[a|b]_<mu>,<nu>`` (see ``_swaps``).  For
    a quadratic presentation the swap t(mu,nu) - t(nu,mu) is imposed on
    every weight-2 tree t, so the trees outside all supports get one more
    swap per pair of colors, named ``swap__a<arity>_<basis index>_<mu>,<nu>``.

    The quadratic rule is forced by the Koszul duality with the linear
    construction.  Write V for the weight-2 trees of one arity and R for the
    relations there.  The dual pairs V with its dual diagonally, so it uses
    the whole V, and lin(P) spans R (x) S^2(colors); hence

        dual(lin P) = R^perp (x) S^2(colors)  +  V (x) Lambda^2(colors).

    For this to be tot(P^!), whatever the supports of R^perp, the total
    construction of any quadratic Q must span R_Q (x) S^2 + V (x) Lambda^2,
    which is the matching span plus a swap on every tree of V.  Swapping
    only on support trees loses the Lambda^2 part on the uncovered trees:
    one derivation d over two colors has no swap on d(d(x1)).

    No duality pins the swap set once a relation is cubic, and neither the
    paper's abstract nor this project's documents settle it; such
    presentations keep the support-tree swaps only, as the Rota-Baxter
    golden file records.
    """
    omega = ColorSet.of(omega)
    mat = build_mat(p, omega)
    extra = []
    for weight, swaps in _tot_swaps(p):
        # A weight-2 swap for (nu,mu) is the negative of the one for (mu,nu);
        # the two weight-3 swaps for (nu,mu) are new relations.
        pairs = itertools.combinations if weight == 2 else itertools.permutations
        for mu, nu in pairs(omega.labels, 2):
            first = (mu, nu) if weight == 2 else (mu, nu, mu)
            extra.extend(template.relation(f"{stem}_{mu},{nu}", (first,)) for stem, template in swaps)
    return Presentation(
        f"tot_{p.name}__{'_'.join(omega.labels)}",
        mat.unary,
        mat.binary,
        mat.relations + tuple(extra),
    )


def _tot_swaps(p: Presentation) -> list[tuple[int, list[tuple[str, _Template]]]]:
    """The swap templates of ``build_tot`` with their name stems, grouped by
    weight: each relation's support swaps, then, for a quadratic ``p``, the
    weight-2 swaps of the uncovered trees.  Compiled on first use and kept
    in ``p``'s compiled state."""
    compiled = _compiled(p)
    if compiled.tot_swaps is not None:
        return compiled.tot_swaps
    memo = compiled.memo
    supports = [support(rel) for rel in p.relations]
    groups = [
        (rel.weight, _swaps(rel, supported, memo))
        for rel, supported in zip(p.relations, supports)
    ]
    if p.is_quadratic:
        groups.append((2, [
            (f"swap__a{tree.arity}_{idx}", _swap(tree, standard_slots(tree), _SWAP_12, memo))
            for idx, tree in _uncovered(p, supports)
        ]))
    compiled.tot_swaps = groups
    return groups


def build_compatible(kind: CompatKind, p: Presentation, omega: ColorSet) -> Presentation:
    """The ``kind`` construction of ``p`` over ``omega``, by the builder that
    ``KINDS`` names, looked up when called."""
    short = {long: short for short, long in KINDS.items()}[kind]
    return globals()[f"build_{short}"](p, omega)


def relation_count(kind: CompatKind, p: Presentation, colors: int) -> int:
    """How many relations ``build_compatible(kind, p, omega)`` makes for a
    valid, uncolored ``p`` and ``colors`` = |omega|, in closed form: nothing
    is colored.

    A relation of weight w gives C(k+w-1, w) linear relations, one per color
    multiset, and k^w matching ones.  The total construction adds its swap
    templates (``_tot_swaps``, which it compiles, as ``build_tot`` would),
    each stamped once per pair of colors at weight 2 and once per ordered
    pair at weight 3.
    """
    k = colors
    if kind == "linear":
        return sum(comb(k + rel.weight - 1, rel.weight) for rel in p.relations)
    count = sum(k**rel.weight for rel in p.relations)
    if kind == "total":
        pairs = {2: comb(k, 2), 3: k * (k - 1)}
        count += sum(len(swaps) * pairs[weight] for weight, swaps in _tot_swaps(p))
    return count


@dataclass(frozen=True)
class FormalExpansion:
    """Coefficients of one relation after substituting formal sums into slots.

    Keys are color monomials (sorted tuples of labels, one per slot); values
    are the extracted homogeneous relations in the colored generators.
    """

    relation: str
    coefficients: dict[tuple[str, ...], Relation]


def expand_formal(p: Presentation, omega: ColorSet) -> list[FormalExpansion]:
    """Substitute sum_w c_w g#w into every slot and collect by monomial in the c's."""
    compiled = _compiled(p)
    omega = ColorSet.of(omega)
    out = []
    for rel, template in zip(p.relations, compiled.templates):
        buckets: dict[tuple[str, ...], list[tuple[str, ...]]] = {}
        for colors in itertools.product(omega.labels, repeat=rel.weight):
            buckets.setdefault(tuple(sorted(colors)), []).append(colors)
        coefficients = {
            monomial: template.relation(f"{rel.name}__c_{'.'.join(monomial)}", colorings)
            for monomial, colorings in sorted(buckets.items())
        }
        out.append(FormalExpansion(rel.name, coefficients))
    return out


def lin_encoding_sides(p: Presentation, omega: ColorSet) -> tuple[Presentation, Presentation]:
    """All formal-expansion coefficients and the linear construction, as two
    presentations over the linear construction's generators."""
    omega = ColorSet.of(omega)
    lin = build_lin(p, omega)
    extracted = [
        rel
        for expansion in expand_formal(p, omega)
        for rel in expansion.coefficients.values()
    ]
    formal = Presentation(f"formal_{p.name}", lin.unary, lin.binary, tuple(extracted))
    return formal, lin


def verify_lin_encoding(p: Presentation, omega: ColorSet) -> bool:
    """Span of all formal-expansion coefficients == span of the linear relations,
    checked separately in every (arity, weight) component."""
    return presentation_span_equal(*lin_encoding_sides(p, omega))
