"""The three compatible operads over a finite color set.

Given a presentation P and colors W, three quotients of the free operad on
the replicated generators are built, with increasingly strict relations:

* linear   -- one relation per color monomial, the sum of its distinct
  orderings: a constant-color copy for c_a^w, (a,b)+(b,a) for c_a c_b,
  (a,a,b)+(a,b,a)+(b,a,a) for c_a^2 c_b, and all six orderings of three
  distinct colors;
* matching -- every coloring of every relation, over all color tuples;
* total    -- the matching relations plus transpositions equating two
  colorings of one tree that differ by swapping the colors of two slots:
  for a quadratic presentation one per weight-2 tree and pair of colors,
  else those of every relation's support trees (see ``build_tot``).

``lin_encoding_sides``/``verify_lin_encoding`` mechanize the argument that
the linear construction encodes exactly the algebras closed under arbitrary
linear combinations of the replicated operations: substituting a formal sum
sum_w c_w g#w into every slot and collecting coefficients of each monomial
in the c's must yield the same componentwise span as the linear relations.
The formal side groups every product coloring of a relation by its
multiset, where ``build_lin`` takes the distinct orderings of each
multiset; it stamps them from the same templates, so it is not independent
of ``build_lin`` (the two agree term for term up to names);
``tests/test_build_oracle.py::reference_expansion`` is.

The families differ only in the colorings each relation is stamped with,
so one loop stamps them all.  ``_stamped`` takes compiled templates, each
with a name stem and a weight, and a coloring rule, and stamps one relation
``<stem><suffix>`` per (suffix, colorings) that the rule gives for the
color labels and the template's weight: the sum of the template's terms
under each of those colorings.  The rules are ``_every_coloring`` for mat,
``_every_monomial`` for lin, ``_every_product`` for the formal side and
``_every_swap`` for tot's swaps, whose templates ``_tot_swaps`` compiles.

A template (``_Template``) is a relation's terms, or a swap's, compiled
once.  Its plan (``_Plan``) is what the terms' coefficients, shapes, slots
and read slots fix: the pickers of each term's vertex colors, the keys that
sort a stamp's terms, the integer coefficients and skeleton texts, and per
order a stamp's terms are sorted into its integer coefficients and
skeleton, so a stamped relation works out neither again.  Plans live in a
module-level ``functools`` cache (``_plan``) keyed by exactly those values,
so every template of one shape, of any input and any build, shares one.
The rest of a template is per tree.

This module is the only one that knows how a coloring is made.  What every
build from one presentation object shares is its compiled state
(``_Compiled``, through ``_compiled``), made by the first build and kept in
the object's instance dict while it lives: the relation templates, each
generator's colored copies, which ``replicate`` makes and every build lists,
the memo of colored trees, keyed by tree and the colors of its vertices, so
equal colored trees of one input are one object, and each finished build
(``_kept``).  So a build asked again is the same object, with the span
bases it keeps (see ``spans``); ``build_tot`` holds the very relations of
``build_mat`` and says so (``spans._extends``), so tot's bases are mat's
grown by the swap rows.  Apart from the plans, which hold no tree or
generator, nothing is global: an equal presentation built anew starts with
none.  lin, mat and tot at 2..8 colors over ``default_grid()`` keep 14.7 MiB
under tracemalloc, and 25.4 MiB once each has been asked tot ⊇ mat,
mat ⊇ lin and the linear encoding.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from math import comb
from operator import getitem, itemgetter
from typing import Callable, Iterable, Literal, Optional, Sequence

from .presentation import (
    ColorSet,
    Presentation,
    Relation,
    Term,
    _integers,
    _joined_skeleton,
    _ordered_relation,
    _term,
    _term_texts,
    replicate_problem,
    require_valid,
    standard_slots,
    support,
)
from .spans import _extends, presentation_span_equal
from .trees import _KIND_LEAF, Generator, Tree, _flat_tree, _require, basis_dimension, enumerate_basis

__all__ = [
    "CompatKind",
    "KINDS",
    "build_lin",
    "build_mat",
    "build_tot",
    "build_compatible",
    "relation_count",
    "replicate",
    "lin_encoding_sides",
    "verify_lin_encoding",
]

CompatKind = Literal["linear", "matching", "total"]

# The constructions by the short name that ``opdkit build`` and the claim
# labels give them.  The builder of each is ``build_<short name>``, which
# ``build_compatible`` looks up when called, so that a rebinding of it (a
# tracer's) sees every build.
KINDS: dict[str, CompatKind] = {"lin": "linear", "mat": "matching", "tot": "total"}

# What a coloring rule gives for the color labels and a template's weight:
# the (name suffix, colorings) of each relation to stamp (see ``_stamped``).
_Stamps = Iterable[tuple[str, Sequence[tuple[str, ...]]]]
_Rule = Callable[[tuple[str, ...], int], _Stamps]


class _Plan:
    """What stamping needs of a template's terms beyond their trees, shared
    by every template of one shape: relations and swaps alike, of any input.

    ``picks`` holds per term the picker of the colors its vertices read.
    ``integers`` are the terms' coprime integer coefficients
    (``_integers``) and ``texts`` their parts of a skeleton
    (``_term_texts``).  Colored terms compare as in ``Term.sort_key`` by
    (rank, generator keys, tie), and ``ranks``, ``ties`` and ``in_order``
    give the parts of that key that coloring does not change (see
    ``_plan``).  ``stamps`` maps the order a stamp's terms are sorted into
    (``None``: as stamped) to its integer coefficients and skeleton, the
    plan's permuted, which depend on that order only, so every stamp sorted
    so, from any template of the plan, shares them.
    """

    __slots__ = ("picks", "integers", "texts", "ranks", "ties", "in_order", "stamps")


@functools.lru_cache(maxsize=1024)
def _plan(
    key: tuple[tuple[int, int, tuple[int, ...], tuple[int, ...], tuple[int, ...]], ...]
) -> _Plan:
    """The plan of template terms with these (coefficient numerator and
    denominator, shape, slots, read slots), one tuple per term; nothing of
    it depends on the terms' generators.  The two integers fix the
    coefficient and hash faster than the ``Fraction``.

    Coloring keeps a tree's (arity, weight, shape), whose rank comes first
    in the sort key.  Two colored trees with equal generator keys come from
    equal trees, so their terms compare by slots and coefficient, as their
    template terms do: the tie is a term's place among the template terms
    sorted by (rank, slots, integer coefficient), which sorts equal trees
    as ``Term.sort_key`` does, since the integers are a positive multiple
    of the coefficients.  Terms of distinct ranks need no tie, and one
    coloring of terms of increasing rank needs no sort.
    """
    plan = _Plan()
    # A valid term has 2 or 3 vertices, so each picker picks a tuple.
    plan.picks = [itemgetter(*[slot - 1 for slot in read]) for _, _, _, _, read in key]
    plan.integers = ints = tuple(_integers([(num, den) for num, den, _, _, _ in key]))
    plan.texts = _term_texts([term[:4] for term in key])
    grades = [(shape.count(_KIND_LEAF), len(slots), shape) for _, _, shape, slots, _ in key]
    rank = {grade: i for i, grade in enumerate(sorted(set(grades)))}
    plan.ranks = ranks = [rank[grade] for grade in grades]
    plan.ties = [0] * len(key)
    if len(rank) < len(key):
        order = sorted(range(len(key)), key=lambda i: (ranks[i], key[i][3], ints[i]))
        for place, i in enumerate(order):
            plan.ties[i] = place
    plan.in_order = all(a < b for a, b in zip(ranks, ranks[1:]))
    plan.stamps = {}
    return plan


class _Template:
    """Terms compiled once, to be colored by many colorings.

    It is split in two.  The plan (``_Plan``, from ``_plan``) is what the
    terms' coefficients, shapes, slots and read slots fix, shared by every
    template of that shape.  The template itself keeps, per term, its
    coefficient, shape and slots, the plan's picker, and what depends on
    the tree, taken from the compiled state it is made in (``_Compiled``):
    the memo's dict of the tree's colorings and each vertex's dict of
    colored copies.  A coloring then makes each term from a lookup keyed
    by the colors of its vertices, and puts the terms in canonical order
    without checking them again.  It may use only labels that ``replicate``
    has made copies of.

    ``reads`` gives, per term, the slots its vertices read their colors
    from, when they are not the term's own slots (see ``_swap``).
    """

    __slots__ = ("_plan", "_parts")

    def __init__(
        self, terms: Sequence[Term], compiled: _Compiled,
        reads: Optional[Sequence[tuple[int, ...]]] = None,
    ) -> None:
        reads = reads or [term.slots for term in terms]
        self._plan = plan = _plan(tuple([
            (term.coeff.numerator, term.coeff.denominator, term.tree.shape, term.slots, read)
            for term, read in zip(terms, reads)
        ]))
        memo, copies = compiled.memo, compiled.copies
        self._parts = [
            (term.coeff, term.tree.shape, term.slots, pick,
             tuple([copies[gen] for gen in term.tree.internal_generators()]),
             memo.setdefault(term.tree, {}))
            for term, pick in zip(terms, plan.picks)
        ]

    def relation(self, name: str, colorings: Sequence[Sequence[str]]) -> Relation:
        """The relation ``name`` whose terms are those of every coloring.

        Its integer coefficients and skeleton are the plan's, in the order
        of its terms: as they are for one coloring in template order, else
        repeated per coloring and permuted as the terms are.  Both are
        worked out for the plan's first stamp with its terms in that order.
        """
        plan = self._plan
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
        order = None
        if len(colorings) > 1 or not plan.in_order:
            n = len(colorings)
            keys = list(zip(plan.ranks * n, [term.tree._keys for term in terms], plan.ties * n))
            order = tuple(sorted(range(len(terms)), key=keys.__getitem__))
            terms = [terms[i] for i in order]
        stamp = plan.stamps.get(order)
        if stamp is None:
            ints, texts = plan.integers, plan.texts
            if order is not None:
                # Through a list: a tuple built from an iterator grows by
                # reallocation, which raised span-ladder's peak RSS by 0.5 MiB.
                repeated, texts = ints * len(colorings), texts * len(colorings)
                ints = tuple([repeated[i] for i in order])
                texts = [texts[i] for i in order]
            stamp = plan.stamps[order] = (ints, _joined_skeleton(texts))
        return _ordered_relation(name, tuple(terms), *stamp)


class _Compiled:
    """What the builders derive from one valid, uncolored presentation.

    ``copies`` maps each generator, in generator order, to its colored
    copies by label, made by ``replicate``.  ``memo`` maps each tree of a
    template to its colored trees, keyed by the colors of its vertices in
    preorder, so equal colored trees stamped from one input are one object.
    ``templates`` holds per relation, by position, its name stem
    ``<relation>__``, its weight and its template, as ``_stamped`` takes
    them.  ``builds`` holds each finished build, keyed by its builder's
    name and the color labels (see ``_kept``).

    It is made on first use (``_compiled``) and lives as long as its
    presentation.  It grows with the color labels asked of it: each new
    label adds its colored generators and the colored trees that use it.
    """

    __slots__ = ("copies", "memo", "templates", "builds")

    def __init__(self, p: Presentation) -> None:
        self.copies: dict[Generator, dict[str, Generator]] = {g: {} for g in p.generators}
        self.memo: dict[Tree, dict[tuple[str, ...], Tree]] = {}
        self.templates = tuple([
            (f"{rel.name}__", rel.weight, _Template(rel.terms, self)) for rel in p.relations
        ])
        self.builds: dict[tuple[str, tuple[str, ...]], Presentation] = {}


def _require_buildable(p: Presentation) -> None:
    """Raise the builders' ``ValueError`` unless ``p`` is valid and uncolored."""
    require_valid(p)
    _require(replicate_problem(p))


def _compiled(p: Presentation) -> _Compiled:
    """``p``'s compiled state, made once ``p`` is known to be valid and uncolored
    and kept in its instance dict, as ``cached_property`` keeps a value."""
    state = vars(p).get("_compiled")
    if state is None:
        _require_buildable(p)
        state = vars(p)["_compiled"] = _Compiled(p)
    return state


def replicate(p: Presentation, omega: ColorSet) -> list[Generator]:
    """The colored generator family: g#w for every generator g, then every
    color w.  Each copy is made once, by the first call that asks for it,
    and kept in ``p``'s compiled state, so every build of ``p`` over
    ``omega`` lists these very objects and its colored trees hold them."""
    labels = ColorSet.of(omega).labels
    gens = []
    for gen, copies in _compiled(p).copies.items():
        for label in labels:
            colored = copies.get(label)
            if colored is None:
                colored = copies[label] = gen.colored(label)
            gens.append(colored)
    return gens


def _stamped(
    templates: Iterable[tuple[str, int, _Template]], labels: tuple[str, ...], rule: _Rule
) -> list[Relation]:
    """Every colored relation of a family: for each (name stem, weight,
    template), one relation ``<stem><suffix>`` per (suffix, colorings) that
    ``rule(labels, weight)`` gives, the sum of the template's terms under
    each of those colorings."""
    return [
        template.relation(stem + suffix, colorings)
        for stem, weight, template in templates
        for suffix, colorings in rule(labels, weight)
    ]


def _every_coloring(labels: tuple[str, ...], weight: int) -> _Stamps:
    """mat's rule: every color tuple on its own, named ``a,b,...``."""
    return [(",".join(colors), (colors,)) for colors in itertools.product(labels, repeat=weight)]


def _every_monomial(labels: tuple[str, ...], weight: int) -> _Stamps:
    """lin's rule: every color multiset with its distinct orderings, named
    ``a,a`` for one color, ``L_<repeated>,<other>`` for two and ``S_a,b,c``
    for three."""
    for colors in itertools.combinations_with_replacement(labels, weight):
        # The coefficient of c_mu c_nu ... is the sum over all distinct
        # orderings of the colors; the orderings are not individually
        # extractable from commuting scalars.
        orderings = list(dict.fromkeys(itertools.permutations(colors)))
        # Most frequent first, ties in order of first appearance.
        distinct = sorted(dict.fromkeys(colors), key=colors.count, reverse=True)
        if len(distinct) == 1:
            yield ",".join(colors), orderings
        else:
            yield f"{'L' if len(distinct) == 2 else 'S'}_{','.join(distinct)}", orderings


def _every_product(labels: tuple[str, ...], weight: int) -> _Stamps:
    """The formal side's rule: every color tuple, grouped by its sorted
    colors, the monomial in the c's it is a coefficient of, and named
    ``c_<sorted colors, joined by .>``."""
    buckets: dict[tuple[str, ...], list[tuple[str, ...]]] = {}
    for colors in itertools.product(labels, repeat=weight):
        buckets.setdefault(tuple(sorted(colors)), []).append(colors)
    return [(f"c_{'.'.join(monomial)}", colorings) for monomial, colorings in buckets.items()]


def _every_swap(labels: tuple[str, ...], weight: int) -> _Stamps:
    """tot's rule: the coloring that stamps a swap template (see
    ``_tot_swaps``), named ``mu,nu``: (mu,nu) for mu < nu at weight 2,
    (mu,nu,mu) for mu != nu at weight 3.  A weight-2 swap for (nu,mu) is
    the negative of the one for (mu,nu); the two weight-3 swaps for
    (nu,mu) are new relations."""
    if weight == 2:
        return [(f"{mu},{nu}", ((mu, nu),)) for mu, nu in itertools.combinations(labels, 2)]
    return [(f"{mu},{nu}", ((mu, nu, mu),)) for mu, nu in itertools.permutations(labels, 2)]


def _kept(build):
    """``build``, keeping each result in the input's compiled state by the
    builder's name and the color labels, to return when asked again."""

    @functools.wraps(build)
    def kept(p: Presentation, omega: ColorSet) -> Presentation:
        compiled = _compiled(p)
        omega = ColorSet.of(omega)
        key = (build.__name__, omega.labels)
        built = compiled.builds.get(key)
        if built is None:
            built = compiled.builds[key] = build(p, omega)
        return built

    return kept


def _built(kind: str, p: Presentation, omega: ColorSet, rule: _Rule) -> Presentation:
    """The construction ``<kind>_<p>__<labels>``: every relation of ``p``
    stamped by ``rule``, over ``replicate(p, omega)``, unary then binary."""
    gens = replicate(p, omega)
    return Presentation(
        f"{kind}_{p.name}__{'_'.join(omega.labels)}",
        tuple([g for g in gens if g.arity == 1]),
        tuple([g for g in gens if g.arity == 2]),
        tuple(_stamped(_compiled(p).templates, omega.labels, rule)),
    )


@_kept
def build_mat(p: Presentation, omega: ColorSet) -> Presentation:
    """Matching operad: every coloring of every relation, all color tuples."""
    return _built("mat", p, omega, _every_coloring)


@_kept
def build_lin(p: Presentation, omega: ColorSet) -> Presentation:
    """Linearly compatible operad: one relation per color monomial of each
    relation, the sum of its distinct orderings."""
    return _built("lin", p, omega, _every_monomial)


# Transpositions of slots, as maps from slot to slot, and the swaps of a
# relation of each weight: a name suffix and the transposition applied.
_SWAP_12 = {1: 2, 2: 1, 3: 3}
_SWAP_23 = {1: 1, 2: 3, 3: 2}
_SWAPS = {2: (("", _SWAP_12),), 3: (("a", _SWAP_12), ("b", _SWAP_23))}


# The coefficients of a swap's two terms, shared by every swap.
_ONE, _MINUS_ONE = Fraction(1), Fraction(-1)


def _swap(tree: Tree, slots: tuple[int, ...], swap: dict[int, int], compiled: _Compiled) -> _Template:
    """The swap t(first) - t(second) of one slotted tree, as a template that
    is stamped by ``first``.

    ``second`` is ``first`` with the colors of the slots that ``swap``
    exchanges exchanged, so both terms are ``tree`` with ``slots`` and the
    second one's vertices read their colors from the swapped slots.  The
    tree and slots come from a checked relation or ``standard_slots``, so
    the terms are made unchecked.
    """
    terms = (_term(_ONE, tree, slots), _term(_MINUS_ONE, tree, slots))
    return _Template(terms, compiled, (slots, tuple([swap[s] for s in slots])))


@_kept
def build_tot(p: Presentation, omega: ColorSet) -> Presentation:
    """Totally compatible operad: matching relations plus color swaps.

    For a quadratic presentation the swap t(mu,nu) - t(nu,mu), over
    ``standard_slots(t)``, is imposed on every weight-2 tree t and every
    pair of colors mu < nu, named ``swap__a<arity>_<basis index>_<mu>,<nu>``
    after t's place in ``enumerate_basis``.  Once a relation is cubic, every
    relation swaps the colors of its support trees instead, named
    ``<relation>__T_<support index>[a|b]_<mu>,<nu>``.  Either way the swaps
    are ``_tot_swaps``' templates stamped by ``_every_swap``.

    The quadratic rule is forced by the Koszul duality with the linear
    construction.  Write V for the weight-2 trees of one arity and R for the
    relations there.  The dual pairs V with its dual diagonally, so it uses
    the whole V, and lin(P) spans R (x) S^2(colors); hence

        dual(lin P) = R^perp (x) S^2(colors)  +  V (x) Lambda^2(colors).

    For this to be tot(P^!), whatever the supports of R^perp, the total
    construction of any quadratic Q must span R_Q (x) S^2 + V (x) Lambda^2,
    which is the matching span plus a swap on every tree of V.  Swapping
    only on support trees would lose the Lambda^2 part on the other trees:
    one derivation d over two colors has no relation on d(d(x1)).

    No duality pins the swap set once a relation is cubic, and neither the
    paper's abstract nor this project's documents settle it; such
    presentations keep the support-tree swaps only, as the Rota-Baxter
    golden file records.

    tot holds mat's relation objects, so its span bases extend mat's.
    """
    mat = build_mat(p, omega)
    swaps = _stamped(_tot_swaps(p), omega.labels, _every_swap)
    tot = Presentation(
        f"tot_{p.name}__{'_'.join(omega.labels)}",
        mat.unary,
        mat.binary,
        mat.relations + tuple(swaps),
    )
    return _extends(tot, mat, swaps)


def _tot_swaps(p: Presentation) -> list[tuple[str, int, _Template]]:
    """The swap templates of ``build_tot`` as ``_stamped`` takes them, each
    with a name stem ending in ``_`` that ``_every_swap`` completes with
    the colors, and its weight.

    For a quadratic ``p`` one swap of slots 1,2 per weight-2 tree, arity by
    arity (1, 2, 3) in basis order, stem ``swap__a<arity>_<basis index>_``.
    Else, per relation, the swaps of its support trees, stem
    ``<relation>__T_<support index>[a|b]_``: t(mu,nu) - t(nu,mu) at weight
    2; t(mu,nu,mu) - t(nu,mu,mu) (a, slots 1,2) and t(mu,nu,mu) -
    t(mu,mu,nu) (b, slots 2,3) at weight 3.  Compiled anew by each call,
    over ``p``'s compiled state: tot is kept per color labels, and the
    plans are shared.
    """
    compiled = _compiled(p)
    if p.is_quadratic:
        return [
            (f"swap__a{arity}_{idx}_", 2, _swap(tree, standard_slots(tree), _SWAP_12, compiled))
            for arity in (1, 2, 3)
            for idx, tree in enumerate(enumerate_basis(p.generators, arity, 2).basis)
        ]
    return [
        (f"{rel.name}__T_{idx}{suffix}_", rel.weight, _swap(tree, slots, swap, compiled))
        for rel in p.relations
        for idx, (tree, slots) in enumerate(support(rel))
        for suffix, swap in _SWAPS[rel.weight]
    ]


def build_compatible(kind: CompatKind, p: Presentation, omega: ColorSet) -> Presentation:
    """The ``kind`` construction of ``p`` over ``omega``, by the builder that
    ``KINDS`` names, looked up when called."""
    short = {long: short for short, long in KINDS.items()}[kind]
    return globals()[f"build_{short}"](p, omega)


def relation_count(kind: CompatKind, p: Presentation, colors: int) -> int:
    """How many relations ``build_compatible(kind, p, omega)`` makes for
    ``colors`` = |omega|, in closed form: nothing is colored or compiled.
    An invalid or colored ``p`` is refused with the builders' ``ValueError``.

    A relation of weight w gives C(k+w-1, w) linear relations, one per color
    multiset, and k^w matching ones.  The total construction adds its swaps
    (``_tot_swaps``), read off without compiling them: for a quadratic
    ``p``, C(k, 2) per weight-2 tree, counted by ``basis_dimension``; else
    one per support tree, swap of its weight and pair of colors, unordered
    at weight 2 and ordered at weight 3.
    """
    _require_buildable(p)
    k = colors
    if kind == "linear":
        return sum(comb(k + rel.weight - 1, rel.weight) for rel in p.relations)
    count = sum(k**rel.weight for rel in p.relations)
    if kind == "total":
        if p.is_quadratic:
            count += comb(k, 2) * sum(basis_dimension(p.generators, a, 2) for a in (1, 2, 3))
        else:
            pairs = {2: comb(k, 2), 3: k * (k - 1)}
            count += sum(
                len(support(rel)) * len(_SWAPS[rel.weight]) * pairs[rel.weight] for rel in p.relations
            )
    return count


def lin_encoding_sides(p: Presentation, omega: ColorSet) -> tuple[Presentation, Presentation]:
    """The formal side and the linear construction, as two presentations
    over the linear construction's generators.

    The formal side substitutes sum_w c_w g#w into every slot of each
    relation and collects the coefficient of each color monomial: one
    relation ``<relation>__c_<sorted colors, joined by .>`` per monomial,
    the sum of every coloring whose sorted colors it is (``_every_product``).
    It is not kept, and holds lin's generator tuples."""
    omega = ColorSet.of(omega)
    lin = build_lin(p, omega)
    formal = _stamped(_compiled(p).templates, omega.labels, _every_product)
    return Presentation(f"formal_{p.name}", lin.unary, lin.binary, tuple(formal)), lin


def verify_lin_encoding(p: Presentation, omega: ColorSet) -> bool:
    """Span of all formal-expansion coefficients == span of the linear relations,
    checked separately in every (arity, weight) component."""
    return presentation_span_equal(*lin_encoding_sides(p, omega))
