"""Finitely presented unary-binary operads with homogeneous relations.

A relation is a rational linear combination of decorated trees of one fixed
(arity, weight), each tree annotated with slot indices.  Slots name the
positional roles of internal vertices inside a relation template so that a
coloring can be applied uniformly across all terms: slot j of every term
receives the same color even when the decorating generators differ from
term to term (as in a commutator).

The module also carries the span machinery used throughout.  Presentations
are compared componentwise by exact row-space equality or containment: the
relations of each grading become sparse integer rows over the trees that
occur in them, reduced by the kernel of ``linalg``.  ``span_components``
is the one routine that walks the gradings: it reports the rank of each
side and, per grading, whether the spans are equal and whether the left one
contains the right one.  Equality and containment checks, ``check-iso`` and
the dimension reports all read it.  ``component_matrix``
gives the dense coefficient rows over the full canonical tree basis; the
program no longer uses it, and the tests keep it as the dense reference.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence

from .linalg import Echelon, RationalMatrix, SparseRow, integer_row
from .trees import Generator, GradedComponent, Tree, enumerate_basis, relabel, tree_key

__all__ = [
    "Term",
    "Relation",
    "Presentation",
    "ColorSet",
    "ValidationReport",
    "validate",
    "replicate",
    "color_term",
    "color_relation",
    "rename_generators",
    "tensor_map",
    "tensor_generators",
    "tensor_atom_name",
    "relation_gradings",
    "component_matrix",
    "SpanComponent",
    "span_components",
    "presentation_span_equal",
    "presentation_span_contains",
    "standard_slots",
]


@dataclass(frozen=True)
class Term:
    """One summand of a relation: coefficient, tree, and per-vertex slots.

    ``slots`` assigns a slot index to each internal vertex, listed in
    preorder; a valid relation of weight w uses exactly the slots 1..w
    once per term.
    """

    coeff: Fraction
    tree: Tree
    slots: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.slots) != self.tree.weight:
            raise ValueError(
                f"term has {self.tree.weight} internal vertices "
                f"but {len(self.slots)} slot annotations"
            )

    def sort_key(self) -> tuple:
        return (tree_key(self.tree), self.slots, self.coeff)


@dataclass(frozen=True)
class Relation:
    """A named linear combination of slotted trees.

    Terms are kept in canonical order (no cancellation or merging happens),
    so structurally equal relations compare equal however they were written.
    """

    name: str
    terms: tuple[Term, ...]

    def __post_init__(self) -> None:
        if not self.terms:
            raise ValueError(f"relation {self.name!r} has no terms")
        ordered = tuple(sorted(self.terms, key=Term.sort_key))
        if ordered != self.terms:
            object.__setattr__(self, "terms", ordered)

    @property
    def arity(self) -> int:
        return self.terms[0].tree.arity

    @property
    def weight(self) -> int:
        return self.terms[0].tree.weight

    def grading(self) -> tuple[int, int]:
        return (self.arity, self.weight)

    def renamed(self, name: str) -> "Relation":
        return dataclasses.replace(self, name=name)


@dataclass(frozen=True)
class Presentation:
    """Generators plus relations, presenting the quotient of a free operad.

    Generators keep declaration order; relations are kept sorted by name so
    that structural equality and serialization agree.
    """

    name: str
    unary: tuple[Generator, ...]
    binary: tuple[Generator, ...]
    relations: tuple[Relation, ...]

    def __post_init__(self) -> None:
        ordered = tuple(sorted(self.relations, key=lambda r: (r.name, r.terms[0].sort_key())))
        if ordered != self.relations:
            object.__setattr__(self, "relations", ordered)

    @property
    def generators(self) -> tuple[Generator, ...]:
        return self.unary + self.binary

    @property
    def is_quadratic(self) -> bool:
        return all(r.weight == 2 for r in self.relations)

    def relation(self, name: str) -> Relation:
        for r in self.relations:
            if r.name == name:
                return r
        raise KeyError(name)


@dataclass(frozen=True)
class ColorSet:
    """An ordered finite set of distinct color labels."""

    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.labels:
            raise ValueError("color set must be nonempty")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("duplicate color labels")

    def __len__(self) -> int:
        return len(self.labels)

    def __iter__(self):
        return iter(self.labels)

    @classmethod
    def of(cls, spec) -> "ColorSet":
        """Accept an int n (labels 1..n), an explicit label sequence, or a ColorSet."""
        if isinstance(spec, ColorSet):
            return spec
        if isinstance(spec, int):
            if spec < 1:
                raise ValueError("color set size must be >= 1")
            return cls(tuple(str(i) for i in range(1, spec + 1)))
        return cls(tuple(str(x) for x in spec))


@dataclass
class ValidationReport:
    problems: list[str]

    @property
    def ok(self) -> bool:
        return not self.problems

    def __str__(self) -> str:
        if self.ok:
            return "valid"
        return "\n".join(self.problems)


def validate(p: Presentation) -> ValidationReport:
    """Check every presentation and relation invariant; never raises."""
    problems: list[str] = []
    seen_triples = set()
    for g in p.unary:
        if g.arity != 1:
            problems.append(f"generator {g.serialized()} listed as unary has arity {g.arity}")
    for g in p.binary:
        if g.arity != 2:
            problems.append(f"generator {g.serialized()} listed as binary has arity {g.arity}")
    for g in p.generators:
        triple = (g.name, g.color, g.dualized)
        if triple in seen_triples:
            problems.append(f"duplicate generator {g.serialized()}")
        seen_triples.add(triple)
    known = set(p.generators)

    for rel in p.relations:
        gradings = {(t.tree.arity, t.tree.weight) for t in rel.terms}
        if len(gradings) > 1:
            problems.append(
                f"relation {rel.name}: non-homogeneous relation, mixes gradings {sorted(gradings)}"
            )
            continue
        arity, weight = rel.grading()
        if weight not in (2, 3):
            problems.append(
                f"relation {rel.name}: weight {weight} not quadratic or cubic"
            )
        if arity not in (1, 2, 3, 4):
            problems.append(f"relation {rel.name}: arity {arity} out of range 1..4")
        slot_arity: dict[int, int] = {}
        for idx, term in enumerate(rel.terms):
            for g in term.tree.internal_generators():
                if g not in known:
                    problems.append(
                        f"relation {rel.name} term {idx}: unknown generator {g.serialized()}"
                    )
            if sorted(term.slots) != list(range(1, weight + 1)):
                problems.append(
                    f"relation {rel.name} term {idx}: slots {term.slots} "
                    f"are not a permutation of 1..{weight}"
                )
                continue
            for g, slot in zip(term.tree.internal_generators(), term.slots):
                prev = slot_arity.setdefault(slot, g.arity)
                if prev != g.arity:
                    problems.append(
                        f"relation {rel.name} term {idx}: slot arity mismatch at slot {slot}"
                    )
    return ValidationReport(problems)


def require_valid(p: Presentation) -> None:
    report = validate(p)
    if not report.ok:
        raise ValueError(f"invalid presentation {p.name}: {report}")


def replicate(p: Presentation, omega: ColorSet) -> list[Generator]:
    """The colored generator family: one copy g#w of every generator per color."""
    for g in p.generators:
        if g.color is not None:
            raise ValueError(
                f"cannot replicate already-colored generator {g.serialized()}"
            )
    return [g.colored(w) for g in p.generators for w in omega]


# The six weight-2 shapes, keyed by ``Tree.shape`` (0 unary, 1 binary,
# 2 leaf): the pairing sign of the Koszul dual (``duality.shape_sign``) and
# the standard slots in preorder (``standard_slots``).
_WEIGHT_TWO_SHAPES: dict[tuple[int, ...], tuple[int, tuple[int, int]]] = {
    (0, 0, 2): (1, (2, 1)),  # unary over unary
    (0, 1, 2, 2): (-1, (1, 2)),  # unary at the root of a binary
    (1, 0, 2, 2): (1, (2, 1)),  # unary on the left input
    (1, 2, 0, 2): (1, (2, 1)),  # unary on the right input
    (1, 1, 2, 2, 2): (1, (2, 1)),  # left comb
    (1, 2, 1, 2, 2): (-1, (1, 2)),  # right comb
}


def standard_slots(tree: Tree) -> tuple[int, ...]:
    """Template slot assignment for a weight-2 tree, in preorder.

    Matches the catalog convention: in the unary chain the inner vertex is
    slot 1; in mixed arity-2 shapes the unary vertex is slot 1; across the
    two combs slot 1 is the operation first touching input x1 (inner in the
    left comb, root in the right comb).
    """
    if tree.weight != 2:
        raise ValueError("standard slots are defined on weight-2 trees")
    return _WEIGHT_TWO_SHAPES[tree.shape][1]


def _colored_tree(
    tree: Tree, slots: tuple[int, ...], colors: Sequence[str], memo: dict
) -> Tree:
    """``tree`` with ``colors[j-1]`` on the vertex at slot j, built once per ``memo``.

    The memo is keyed by the tree and the colors of its vertices in
    preorder, so equal colored trees built through one memo are one object.
    It also holds each colored generator, keyed by (generator, color), so a
    build colors each generator once per color.
    """
    vertex_colors = tuple([colors[slot - 1] for slot in slots])
    key = (tree, vertex_colors)
    colored = memo.get(key)
    if colored is None:
        pairs = zip(tree.internal_generators(), vertex_colors)
        gens = [memo.get(k) or memo.setdefault(k, Generator.colored(*k)) for k in pairs]
        colored = memo[key] = relabel(tree, gens)
    return colored


def _color_term(term: Term, colors: Sequence[str], memo: dict) -> Term:
    return Term(term.coeff, _colored_tree(term.tree, term.slots, colors, memo), term.slots)


def color_term(term: Term, colors: Sequence[str]) -> Term:
    """Apply ``colors[j-1]`` to the generator sitting at slot j of ``term``."""
    return _color_term(term, colors, {})


def _color_relation(
    rel: Relation, colors: Sequence[str], omega: Optional[ColorSet], memo: dict
) -> Relation:
    if len(colors) != rel.weight:
        raise ValueError(
            f"relation {rel.name} has weight {rel.weight}, got {len(colors)} colors"
        )
    if omega is not None:
        for c in colors:
            if c not in omega.labels:
                raise ValueError(f"color label {c!r} not in the ambient color set")
    return Relation(rel.name, tuple(_color_term(term, colors, memo) for term in rel.terms))


def color_relation(
    rel: Relation,
    colors: Sequence[str],
    omega: Optional[ColorSet] = None,
) -> Relation:
    """Apply ``colors[j-1]`` to the generator sitting at slot j of every term."""
    return _color_relation(rel, colors, omega, {})


def rename_generators(
    p: Presentation, mapping: Mapping[Generator, Generator]
) -> Presentation:
    """Structurally identical presentation over renamed generators."""
    for g in p.generators:
        if g not in mapping:
            raise ValueError(f"rename map misses generator {g.serialized()}")
        if mapping[g].arity != g.arity:
            raise ValueError(
                f"rename map changes arity of {g.serialized()} "
                f"({g.arity} -> {mapping[g].arity})"
            )
    images = [mapping[g] for g in p.generators]
    if len(set(images)) != len(images):
        raise ValueError("rename map is not injective on the generator list")

    def rename_term(term: Term) -> Term:
        new_gens = (mapping[g] for g in term.tree.internal_generators())
        return Term(term.coeff, relabel(term.tree, new_gens), term.slots)

    return Presentation(
        p.name,
        tuple(mapping[g] for g in p.unary),
        tuple(mapping[g] for g in p.binary),
        tuple(Relation(r.name, tuple(map(rename_term, r.terms))) for r in p.relations),
    )


def tensor_atom_name(g: Generator) -> str:
    """Name of a generator as it appears inside a tensor-product name.

    The dual marker is spelled with a bare ``*`` here so that tensor names
    stay single unambiguous tokens; ``^*`` is reserved for the dual flag of
    a whole generator.
    """
    out = g.name
    if g.color is not None:
        out += f"#{g.color}"
    if g.dualized:
        out += "*"
    return out


def tensor_map(
    e: Sequence[Generator], f: Sequence[Generator]
) -> dict[tuple[Generator, Generator], Generator]:
    """The binary generator ``e~f`` of every pair, in lexicographic pair order."""
    for g in list(e) + list(f):
        if g.arity != 2:
            raise ValueError(f"unary generator {g.serialized()} in tensor product")
    pairs = sorted(
        ((ge, gf) for ge in e for gf in f),
        key=lambda p: (p[0].sort_key, p[1].sort_key),
    )
    return {
        (ge, gf): Generator(f"{tensor_atom_name(ge)}~{tensor_atom_name(gf)}", 2)
        for ge, gf in pairs
    }


def tensor_generators(
    e: Sequence[Generator], f: Sequence[Generator]
) -> list[Generator]:
    """One binary generator per pair, named ``e~f``, in lexicographic pair order."""
    return list(tensor_map(e, f).values())


# ---------------------------------------------------------------------------
# Span machinery


def relation_gradings(relations: Iterable[Relation]) -> list[tuple[int, int]]:
    return sorted({r.grading() for r in relations})


def _outside_component(rel: Relation) -> ValueError:
    return ValueError(
        f"relation {rel.name} contains a tree outside its graded component"
    )


def component_matrix(
    gens: Sequence[Generator],
    relations: Iterable[Relation],
    arity: int,
    weight: int,
) -> tuple[GradedComponent, RationalMatrix]:
    """Coefficient rows of the relations of one grading over the canonical basis."""
    component = enumerate_basis(gens, arity, weight)
    index = component.index()
    rows = []
    for rel in relations:
        if rel.grading() != (arity, weight):
            continue
        vec = [Fraction(0)] * component.dimension
        for term in rel.terms:
            try:
                vec[index[term.tree]] += term.coeff
            except KeyError:
                raise _outside_component(rel) from None
        rows.append(tuple(vec))
    return component, RationalMatrix(tuple(rows), component.dimension)


def _common_generators(p: Presentation, q: Presentation) -> tuple[Generator, ...]:
    if set(p.generators) != set(q.generators):
        ours = {g.serialized() for g in p.generators}
        theirs = {g.serialized() for g in q.generators}
        raise ValueError(
            "presentations live over different generators: "
            f"{sorted(ours ^ theirs)} not shared"
        )
    return p.generators


class _Columns:
    """Column numbers for the trees that occur in relations, one map per grading.

    Only trees that some relation uses get a column, in order of first
    appearance, so no graded basis is enumerated.  A tree is admitted once,
    when it first appears: it must have its relation's grading and be built
    from the shared generators, which is membership in the graded component.
    """

    def __init__(self, gens: Iterable[Generator]) -> None:
        self.gens = frozenset(gens)
        self.maps: dict[tuple[int, int], dict[Tree, int]] = {}

    def row(self, rel: Relation) -> SparseRow:
        grading = rel.grading()
        cols = self.maps.setdefault(grading, {})
        entries = []
        for term in rel.terms:
            tree = term.tree
            col = cols.get(tree)
            if col is None:
                if (tree.arity, tree.weight) != grading or not self.gens.issuperset(
                    tree.internal_generators()
                ):
                    raise _outside_component(rel)
                col = cols[tree] = len(cols)
            entries.append((col, term.coeff))
        return integer_row(entries)

    def echelon(self, relations: Iterable[Relation], grading: tuple[int, int]) -> Echelon:
        return Echelon(self.row(r) for r in relations if r.grading() == grading)


class SpanComponent(NamedTuple):
    """The comparison of two relation sets in one (arity, weight) grading."""

    arity: int
    weight: int
    left_rank: int
    right_rank: int
    equal: bool
    contains: bool  # every relation of the right side lies in the left span


def span_components(p: Presentation, q: Presentation) -> Iterator[SpanComponent]:
    """Compare the relation spans of ``p`` and ``q``, one grading at a time.

    Yields a record for every grading in which either side has a relation,
    in grading order, so a caller may stop at the first unequal one.
    """
    columns = _Columns(_common_generators(p, q))
    for grading in relation_gradings(list(p.relations) + list(q.relations)):
        # One column map serves both sides, so the canonical bases compare.
        ours = columns.echelon(p.relations, grading)
        theirs = columns.echelon(q.relations, grading)
        equal = ours.rows == theirs.rows
        contains = equal or all(map(ours.contains, theirs.rows.values()))
        yield SpanComponent(*grading, len(ours), len(theirs), equal, contains)


def presentation_span_equal(p: Presentation, q: Presentation) -> bool:
    """Componentwise row-space equality of the two relation sets."""
    return all(c.equal for c in span_components(p, q))


def presentation_span_contains(big: Presentation, small: Presentation) -> bool:
    """True iff every relation of ``small`` lies in the componentwise span of ``big``."""
    return all(c.contains for c in span_components(big, small))
