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

This module is the only one that knows how a coloring is made, and
``replicate`` is the one way to the colored generators.  Each relation is
compiled once into a template (``_Template``) and every coloring is stamped
from it; each swap is a template of one tree, stamped for every pair of
colors.  Every coloring of a relation has the shape of the relation, so a
template is split in two.  Its plan (``_Plan``) is what the terms'
coefficients, shapes, slots and read slots fix: the pickers of each term's
vertex colors, the keys that sort a stamp's terms, and the integer
coefficients and skeleton of each order a stamp's terms are sorted into.
Plans live in a module-level ``functools`` cache (``_plan``) keyed by
exactly those values, so every template of one shape, relation or swap, of
any input and any build, shares one.  The rest of a template is per tree:
each term's colorings in the memo and the tables of its vertices' colored
generators.  The templates, the swaps and the coloring memo they share are
the presentation's compiled state (``_Compiled``, reached through
``_compiled``), made by the first build from a presentation object and kept
in its instance dict as long as that object lives.  So every build from one
input, at any color count, shares them: ``build_tot`` with a ``build_mat``
of the same input, the formal side with ``build_lin``, a 3-color build with
a 2-color one.  The memo maps each tree to its colored trees, keyed by the
colors of the tree's vertices, so equal colored trees built from one input
are one object, and a build's generator list is read from the memo's
colored copies (``replicate``), so its trees and its generator list hold
the same objects.  Each finished build is kept there too and returned when
asked again, so ``build_tot`` holds the very relations of ``build_mat``,
and a kept build keeps its span bases (see ``spans``) as long as the input
lives.  ``build_tot`` states that it extends mat (``spans._extends``), so
tot's basis in a grading is mat's grown by the swap rows, and mat's rows
are never eliminated for tot; only the extension is recorded at build time.
A stamped relation carries its plan's integer coefficients and skeleton for
its order, so neither is worked out again per relation, for spans or for
printing, nor per input.  Apart from the plans, which hold no tree or
generator, the state is never global: an equal presentation built anew
starts with none, and nothing is evicted while the input lives.  lin, mat
and tot at 2..8 colors over ``default_grid()`` keep 14.8 MiB under
tracemalloc, and 25.5 MiB once each has been asked tot ⊇ mat, mat ⊇ lin and
the linear encoding, tot's bases among them.
"""

from __future__ import annotations

import functools
import itertools
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


class _Plan:
    """What stamping needs of a template's terms beyond their trees, shared
    by every template of one shape: relations and swaps alike, of any input.

    ``picks`` holds per term the picker of the colors its vertices read.
    ``integers`` are the terms' coprime integer coefficients
    (``_integers``) and ``texts`` their parts of a skeleton
    (``_term_texts``), set by the first template of the plan.  Colored
    terms compare as in ``Term.sort_key`` by (rank, generator keys, tie),
    and ``ranks``, ``ties`` and ``in_order`` give the parts of that key
    that coloring does not change (see ``_plan``).  ``stamps`` maps the
    order a stamp's terms are sorted into (``None``: as stamped) to its
    integer coefficients and skeleton, the plan's permuted, which depend on
    that order only, so every stamp sorted so, from any template of the
    plan, shares them.
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
    grades = [(shape.count(_KIND_LEAF), len(slots), shape) for _, _, shape, slots, _ in key]
    rank = {grade: i for i, grade in enumerate(sorted(set(grades)))}
    plan.ranks = ranks = [rank[grade] for grade in grades]
    plan.ties = [0] * len(key)
    if len(rank) < len(key):
        order = sorted(range(len(key)), key=lambda i: (ranks[i], key[i][3], ints[i]))
        for place, i in enumerate(order):
            plan.ties[i] = place
    plan.in_order = all(a < b for a, b in zip(ranks, ranks[1:]))
    plan.texts = None
    plan.stamps = {}
    return plan


class _Template:
    """Terms compiled once, to be colored by many colorings.

    It is split in two.  The plan (``_Plan``, from ``_plan``) is what the
    terms' coefficients, shapes, slots and read slots fix, shared by every
    template of that shape.  The template itself keeps, per term, its
    coefficient, shape and slots, the plan's picker, and what depends on
    the tree: the memo's dict of the tree's colorings and each vertex's
    table of colored generators.  A coloring then makes each term from a
    lookup keyed by the colors of its vertices, and puts the terms in
    canonical order without checking them again.

    The memo is shared by everything colored from one presentation (see
    ``_Compiled``): ``memo[gen]`` maps a color to the colored generator,
    ``memo[tree]`` maps the colors of the tree's vertices in preorder to
    the colored tree.  Equal colored trees built through one memo are
    therefore one object.

    ``reads`` gives, per term, the slots its vertices read their colors
    from, when they are not the term's own slots (see ``_swap``).
    """

    __slots__ = ("_plan", "_parts")

    def __init__(
        self, terms: Sequence[Term], memo: dict,
        reads: Optional[Sequence[tuple[int, ...]]] = None,
    ) -> None:
        reads = reads or [term.slots for term in terms]
        self._plan = plan = _plan(tuple([
            (term.coeff.numerator, term.coeff.denominator, term.tree.shape, term.slots, read)
            for term, read in zip(terms, reads)
        ]))
        parts = []
        for term, pick in zip(terms, plan.picks):
            tree = term.tree
            colorings = memo.get(tree)
            if colorings is None:
                colorings = memo[tree] = {}
            copies = tuple([_colored_copies(memo, gen) for gen in tree.internal_generators()])
            parts.append((term.coeff, tree.shape, term.slots, pick, copies, colorings))
        self._parts = parts
        if plan.texts is None:
            plan.texts = _term_texts(terms)

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
    """What the builders derive from one valid presentation.

    ``memo`` is the coloring memo that every build from the presentation
    shares, ``copies`` the memo's table of colored copies of each
    generator, in generator order, and ``templates`` one compiled template
    per relation, by position.  ``tot_swaps`` holds the total
    construction's swap templates, grouped by weight, once ``_tot_swaps``
    has compiled them (``relation_count`` counts them without).
    ``builds`` holds each finished build, keyed by its builder's name and
    the color labels (see ``_kept``).

    It is made on first use (``_compiled``) and lives as long as its
    presentation.  It grows with the color labels asked of it: each
    new label adds its colored generators and the colored trees that use it.
    """

    __slots__ = ("memo", "copies", "templates", "tot_swaps", "builds")

    def __init__(self, p: Presentation) -> None:
        self.memo = memo = {}
        self.copies = tuple([_colored_copies(memo, g) for g in p.generators])
        self.templates = tuple([_Template(r.terms, memo) for r in p.relations])
        self.tot_swaps: Optional[list[tuple[int, list[tuple[str, _Template]]]]] = None
        self.builds: dict[tuple[str, tuple[str, ...]], Presentation] = {}


def _compiled(p: Presentation) -> _Compiled:
    """``p``'s compiled state, made once ``p`` is known to be valid and uncolored
    and kept in its instance dict, as ``cached_property`` keeps a value."""
    state = vars(p).get("_compiled")
    if state is None:
        require_valid(p)
        _require(replicate_problem(p))
        state = vars(p)["_compiled"] = _Compiled(p)
    return state


def replicate(p: Presentation, omega: ColorSet) -> list[Generator]:
    """The colored generator family: g#w for every generator g, then every
    color w, taken from the memo that the colored trees take theirs from, so
    every build of ``p`` over ``omega`` lists these very objects."""
    labels = ColorSet.of(omega).labels
    return [copies[w] for copies in _compiled(p).copies for w in labels]


def _colored_gens(p: Presentation, omega: ColorSet) -> tuple[tuple[Generator, ...], tuple[Generator, ...]]:
    """``replicate(p, omega)``, unary then binary."""
    gens = replicate(p, omega)
    return tuple([g for g in gens if g.arity == 1]), tuple([g for g in gens if g.arity == 2])


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


@_kept
def build_mat(p: Presentation, omega: ColorSet) -> Presentation:
    """Matching operad: every coloring of every relation, all color tuples."""
    unary, binary = _colored_gens(p, omega)
    rels = [
        template.relation(f"{rel.name}__{','.join(colors)}", (colors,))
        for rel, template in zip(p.relations, _compiled(p).templates)
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


@_kept
def build_lin(p: Presentation, omega: ColorSet) -> Presentation:
    """Linearly compatible operad: one relation per color monomial of each
    relation, the sum of its distinct orderings."""
    unary, binary = _colored_gens(p, omega)
    rels = []
    for rel, template in zip(p.relations, _compiled(p).templates):
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


# The coefficients of a swap's two terms, shared by every swap.
_ONE, _MINUS_ONE = Fraction(1), Fraction(-1)


def _swap(tree: Tree, slots: tuple[int, ...], swap: dict[int, int], memo: dict) -> _Template:
    """The swap t(first) - t(second) of one slotted tree, as a template that
    is stamped by ``first``.

    ``second`` is ``first`` with the colors of the slots that ``swap``
    exchanges exchanged, so both terms are ``tree`` with ``slots`` and the
    second one's vertices read their colors from the swapped slots.  The
    tree and slots come from a checked relation or ``standard_slots``, so
    the terms are made unchecked.
    """
    terms = (_term(_ONE, tree, slots), _term(_MINUS_ONE, tree, slots))
    return _Template(terms, memo, (slots, tuple([swap[s] for s in slots])))


def _swaps(rel: Relation, memo: dict) -> list[tuple[str, _Template]]:
    """The swap templates of ``rel``'s support trees, with their name stems.

    Weight 2: t(mu,nu) - t(nu,mu).  Weight 3: t(mu,nu,mu) - t(nu,mu,mu) and
    t(mu,nu,mu) - t(mu,mu,nu), i.e. the swap of slots 1,2 and of slots 2,3.
    """
    return [
        (f"{rel.name}__T_{idx}{suffix}", _swap(tree, slots, swap, memo))
        for idx, (tree, slots) in enumerate(support(rel))
        for suffix, swap in _SWAPS[rel.weight]
    ]


@_kept
def build_tot(p: Presentation, omega: ColorSet) -> Presentation:
    """Totally compatible operad: matching relations plus color swaps.

    For a quadratic presentation the swap t(mu,nu) - t(nu,mu), over
    ``standard_slots(t)``, is imposed on every weight-2 tree t and every
    pair of colors mu < nu, named ``swap__a<arity>_<basis index>_<mu>,<nu>``
    after t's place in ``enumerate_basis``.  Once a relation is cubic, every
    relation swaps the colors of its support trees instead, named
    ``<relation>__T_<support index>[a|b]_<mu>,<nu>`` (see ``_swaps``).

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
    extra = []
    for weight, swaps in _tot_swaps(p):
        # A weight-2 swap for (nu,mu) is the negative of the one for (mu,nu);
        # the two weight-3 swaps for (nu,mu) are new relations.
        pairs = itertools.combinations if weight == 2 else itertools.permutations
        for mu, nu in pairs(omega.labels, 2):
            first = (mu, nu) if weight == 2 else (mu, nu, mu)
            extra.extend(template.relation(f"{stem}_{mu},{nu}", (first,)) for stem, template in swaps)
    tot = Presentation(
        f"tot_{p.name}__{'_'.join(omega.labels)}",
        mat.unary,
        mat.binary,
        mat.relations + tuple(extra),
    )
    return _extends(tot, mat, extra)


def _tot_swaps(p: Presentation) -> list[tuple[int, list[tuple[str, _Template]]]]:
    """The swap templates of ``build_tot`` with their name stems, grouped by
    weight: for a quadratic ``p`` one swap per weight-2 tree, arity by arity
    (1, 2, 3) in basis order, else each relation's support swaps.  Compiled
    on first use and kept in ``p``'s compiled state."""
    compiled = _compiled(p)
    if compiled.tot_swaps is None:
        memo = compiled.memo
        if p.is_quadratic:
            compiled.tot_swaps = [(2, [
                (f"swap__a{arity}_{idx}", _swap(tree, standard_slots(tree), _SWAP_12, memo))
                for arity in (1, 2, 3)
                for idx, tree in enumerate(enumerate_basis(p.generators, arity, 2).basis)
            ])]
        else:
            compiled.tot_swaps = [(rel.weight, _swaps(rel, memo)) for rel in p.relations]
    return compiled.tot_swaps


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
    multiset, and k^w matching ones.  The total construction adds its swaps
    (``_tot_swaps``), read off without compiling them: for a quadratic
    ``p``, C(k, 2) per weight-2 tree, counted by ``basis_dimension``; else
    one per support tree, swap of its weight and pair of colors, unordered
    at weight 2 and ordered at weight 3.
    """
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
    the sum of every coloring whose sorted colors it is."""
    omega = ColorSet.of(omega)
    lin = build_lin(p, omega)
    extracted = []
    for rel, template in zip(p.relations, _compiled(p).templates):
        buckets: dict[tuple[str, ...], list[tuple[str, ...]]] = {}
        for colors in itertools.product(omega.labels, repeat=rel.weight):
            buckets.setdefault(tuple(sorted(colors)), []).append(colors)
        extracted.extend(
            template.relation(f"{rel.name}__c_{'.'.join(monomial)}", colorings)
            for monomial, colorings in sorted(buckets.items())
        )
    formal = Presentation(f"formal_{p.name}", lin.unary, lin.binary, tuple(extracted))
    return formal, lin


def verify_lin_encoding(p: Presentation, omega: ColorSet) -> bool:
    """Span of all formal-expansion coefficients == span of the linear relations,
    checked separately in every (arity, weight) component."""
    return presentation_span_equal(*lin_encoding_sides(p, omega))
