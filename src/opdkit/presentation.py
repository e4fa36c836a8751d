"""Finitely presented unary-binary operads with homogeneous relations.

A relation is a rational linear combination of decorated trees of one fixed
(arity, weight), each tree annotated with slot indices.  Slots name the
positional roles of internal vertices inside a relation template so that a
coloring can be applied uniformly across all terms: slot j of every term
receives the same color even when the decorating generators differ from
term to term (as in a commutator).  The colorings themselves are made in
``compat``, the one module that compiles and stamps them.

A presentation keeps what is derived from it, made on first use and kept
as long as the presentation lives: its validation report and the
builders' compiled state (``Presentation._compiled``, a
``compat._Compiled``).  Neither is a field: equality, hashing, copying and
pickling see the fields only, and the state goes when the presentation
goes.

The module also carries the span machinery used throughout.  Presentations
are compared componentwise by exact row-space equality or containment: the
relations of each grading become sparse integer rows over the trees that
occur in them, reduced by the kernel of ``linalg``.  A relation's integer
coefficients (its coefficients scaled by one common denominator) are worked
out once; a colored relation takes its template's.  ``span_components``
is the one routine that walks the gradings: it reports the rank of each
side and, per grading, whether the spans are equal and whether the left one
contains the right one.  Equality and containment checks, ``check-iso`` and
the dimension reports all read it.  ``component_matrix``
gives the dense coefficient rows over the full canonical tree basis; the
program no longer uses it, and the tests keep it as the dense reference.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from operator import attrgetter
from typing import Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence

from .linalg import Echelon, RationalMatrix, SparseRow, primitive_row
from .trees import (
    _NAME,
    _NAME_HEAD,
    _NAME_TAIL,
    Generator,
    GradedComponent,
    Tree,
    _is_leaf_name,
    enumerate_basis,
    relabel,
    split_generator_token,
    tree_key,
)

__all__ = [
    "Term",
    "Relation",
    "Presentation",
    "ColorSet",
    "ValidationReport",
    "validate",
    "replicate",
    "rename_generators",
    "tensor_map",
    "tensor_clash",
    "tensor_atom_name",
    "relation_gradings",
    "component_matrix",
    "SpanComponent",
    "span_components",
    "presentation_span_equal",
    "presentation_span_contains",
    "standard_slots",
]


@dataclass(frozen=True, slots=True)
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


# Term.__setattr__ refuses every assignment; _term sets the fields through
# their slot descriptors.
_new_term = Term.__new__
_set_coeff, _set_tree, _set_slots = Term.coeff.__set__, Term.tree.__set__, Term.slots.__set__


def _term(coeff: Fraction, tree: Tree, slots: tuple[int, ...]) -> Term:
    """``Term(coeff, tree, slots)`` without its check, for a caller whose
    slots come from a template of the tree's shape: a compiled coloring
    (``compat``) or a relation line the parser matched to its print template."""
    term = _new_term(Term)
    _set_coeff(term, coeff)
    _set_tree(term, tree)
    _set_slots(term, slots)
    return term


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

    @cached_property
    def _integer_coefficients(self) -> tuple[int, ...]:
        """The coefficients scaled by one common denominator, in term order.

        Worked out on first use; a colored relation gets its template's.
        """
        return tuple(_integers(self.terms))

    def __getstate__(self) -> dict:
        # Pickle the fields only, as before the integer coefficients existed.
        return {"name": self.name, "terms": self.terms}


_new_relation = Relation.__new__
_set = object.__setattr__


def _ordered_relation(name: str, terms: tuple[Term, ...]) -> Relation:
    """``Relation(name, terms)`` without its sort, for terms already in
    canonical order."""
    rel = _new_relation(Relation)
    _set(rel, "name", name)
    _set(rel, "terms", terms)
    return rel


_relation_name = attrgetter("name")


def _integers(terms: Sequence[Term]) -> list[int]:
    """The coefficients of ``terms`` scaled by one common denominator."""
    scale = lcm(*(term.coeff.denominator for term in terms))
    return [term.coeff.numerator * (scale // term.coeff.denominator) for term in terms]


@dataclass(frozen=True)
class Presentation:
    """Generators plus relations, presenting the quotient of a free operad.

    Generators keep declaration order; relations are kept sorted by name so
    that structural equality and serialization agree.  Relations that share
    a name, which only an invalid presentation has, are ordered by their
    first terms.

    The validation report and the builders' compiled state are worked out
    on first use and kept on the object; they are not fields.
    """

    name: str
    unary: tuple[Generator, ...]
    binary: tuple[Generator, ...]
    relations: tuple[Relation, ...]

    def __post_init__(self) -> None:
        ordered = sorted(self.relations, key=_relation_name)
        if len(set(map(_relation_name, ordered))) < len(ordered):
            ordered.sort(key=lambda r: (r.name, r.terms[0].sort_key()))
        ordered = tuple(ordered)
        if ordered != self.relations:
            object.__setattr__(self, "relations", ordered)

    @cached_property
    def _validation(self) -> "ValidationReport":
        """``validate(self)``, worked out on first use."""
        return validate(self)

    @cached_property
    def _compiled(self):
        """The builders' state (see ``compat._Compiled``), made on first use."""
        from .compat import _Compiled

        return _Compiled(self)

    def __getstate__(self) -> dict:
        # Pickle and copy the fields only: the derived state holds functions.
        return {
            "name": self.name,
            "unary": self.unary,
            "binary": self.binary,
            "relations": self.relations,
        }

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


# A relation name as the parser reads it: the tokens between ``relation``
# and the first ``:``, touching, the first of them a name.  Written so that a
# text matches in at most one way: names without their tensor tails
# alternate with runs of integers and punctuation, and a run after a tail
# starts with punctuation other than ``*``, which the tail would take.
_WORD = rf"[A-Za-z_]{_NAME_HEAD}"
_RUN = r"[0-9@(),+\-*/]*"
_RELATION_NAME = re.compile(
    rf"{_WORD}(?:(?:{_NAME_TAIL}[@(),+\-/]|[@(),+\-/*]){_RUN}{_WORD})*"
    rf"(?:{_NAME_TAIL}(?:[@(),+\-/]{_RUN})?|[@(),+\-/*]{_RUN})?"
)


def validate(p: Presentation) -> ValidationReport:
    """Check every presentation and relation invariant; never raises.

    Names are checked too: the DSL must read the serialized text back, so
    the presentation's name is one name token, each generator's text is a
    name token that splits back into its name, color and dual flag and is
    not a leaf ``x1``, ``x2``, ..., and each relation name is what the
    parser reads between ``relation`` and ``:``.
    """
    problems: list[str] = []
    if not _NAME.fullmatch(p.name):
        problems.append(f"presentation name {p.name!r} is not a DSL name")
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
        if _is_leaf_name(g.text):
            problems.append(f"generator {g.text} has the form of a leaf")
        elif not _NAME.fullmatch(g.text) or split_generator_token(g.text) != triple:
            problems.append(f"generator {g.text!r} does not read back as itself")
    known = set(p.generators)
    names: set[str] = set()

    for rel in p.relations:
        if rel.name in names:
            problems.append(f"duplicate relation name {rel.name}")
        names.add(rel.name)
        if not _RELATION_NAME.fullmatch(rel.name):
            problems.append(f"relation name {rel.name!r} is not a DSL relation name")
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
    report = p._validation
    if not report.ok:
        raise ValueError(f"invalid presentation {p.name}: {report}")


def _require_uncolored(p: Presentation) -> None:
    for g in p.generators:
        if g.color is not None:
            raise ValueError(
                f"cannot replicate already-colored generator {g.serialized()}"
            )


def replicate(p: Presentation, omega: ColorSet) -> list[Generator]:
    """The colored generator family: one copy g#w of every generator per color."""
    _require_uncolored(p)
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


def _tensor_name(ge: Generator, gf: Generator) -> str:
    return f"{tensor_atom_name(ge)}~{tensor_atom_name(gf)}"


def tensor_map(
    e: Sequence[Generator], f: Sequence[Generator]
) -> dict[tuple[Generator, Generator], Generator]:
    """The binary generator ``e~f`` of every pair, in lexicographic pair order;
    ``ValueError`` if two pairs give one name (``tensor_clash``)."""
    for g in list(e) + list(f):
        if g.arity != 2:
            raise ValueError(f"unary generator {g.serialized()} in tensor product")
    pairs = sorted(
        ((ge, gf) for ge in e for gf in f),
        key=lambda p: (p[0].sort_key, p[1].sort_key),
    )
    tensors = {(ge, gf): Generator(_tensor_name(ge, gf), 2) for ge, gf in pairs}
    if len(set(tensors.values())) < len(tensors):
        raise ValueError(tensor_clash(e, f))
    return tensors


def tensor_clash(e: Sequence[Generator], f: Sequence[Generator]) -> Optional[str]:
    """Two pairs of ``e`` x ``f`` whose tensors share a name, as a message,
    such as (a, b~c) and (a~b, c), which both give ``a~b~c``; ``None`` if
    each pair's tensor has a name of its own."""
    made: dict[str, tuple[Generator, Generator]] = {}
    for ge in e:
        for gf in f:
            name = _tensor_name(ge, gf)
            first = made.setdefault(name, (ge, gf))
            if first != (ge, gf):
                return (
                    f"tensor generators collide: ({first[0].text}, {first[1].text}) and "
                    f"({ge.text}, {gf.text}) both give {name}"
                )
    return None


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
    """Column numbers for the trees that occur in the relations of one grading.

    Only trees that some relation uses get a column, in order of first
    appearance, so no graded basis is enumerated.  A tree is admitted once,
    when it first appears: it must have the grading and be built from the
    shared generators, which is membership in the graded component.
    """

    def __init__(self, gens: frozenset[Generator], grading: tuple[int, int]) -> None:
        self.gens = gens
        self.grading = grading
        self.cols: dict[Tree, int] = {}

    def row(self, rel: Relation) -> SparseRow:
        cols = self.cols
        row: SparseRow = {}
        for term, value in zip(rel.terms, rel._integer_coefficients):
            tree = term.tree
            col = cols.get(tree)
            if col is None:
                if (tree.arity, tree.weight) != self.grading or not self.gens.issuperset(
                    tree.internal_generators()
                ):
                    raise _outside_component(rel)
                col = cols[tree] = len(cols)
            row[col] = row.get(col, 0) + value
        return primitive_row(row)


def _by_grading(relations: Iterable[Relation]) -> dict[tuple[int, int], list[Relation]]:
    out: dict[tuple[int, int], list[Relation]] = {}
    for rel in relations:
        tree = rel.terms[0].tree
        out.setdefault((tree.arity, tree.weight), []).append(rel)
    return out


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
    gens = frozenset(_common_generators(p, q))
    left, right = _by_grading(p.relations), _by_grading(q.relations)
    for grading in sorted(left.keys() | right.keys()):
        # One column map serves both sides, so the canonical bases compare.
        columns = _Columns(gens, grading)
        ours = Echelon(map(columns.row, left.get(grading, ())))
        theirs = Echelon(map(columns.row, right.get(grading, ())))
        equal = ours.rows == theirs.rows
        contains = equal or all(map(ours.contains, theirs.rows.values()))
        yield SpanComponent(*grading, len(ours), len(theirs), equal, contains)


def presentation_span_equal(p: Presentation, q: Presentation) -> bool:
    """Componentwise row-space equality of the two relation sets."""
    return all(c.equal for c in span_components(p, q))


def presentation_span_contains(big: Presentation, small: Presentation) -> bool:
    """True iff every relation of ``small`` lies in the componentwise span of ``big``."""
    return all(c.contains for c in span_components(big, small))
