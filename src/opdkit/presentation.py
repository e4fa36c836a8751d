"""Finitely presented unary-binary operads with homogeneous relations.

A relation is a rational linear combination of decorated trees of one fixed
(arity, weight), each tree annotated with slot indices.  Slots name the
positional roles of internal vertices inside a relation template so that a
coloring can be applied uniformly across all terms: slot j of every term
receives the same color even when the decorating generators differ from
term to term (as in a commutator).  The colorings themselves are made in
``compat``, the one module that compiles and stamps them.

This module is the data model: presentations, validation, a relation's
support, renaming and the table of the weight-2 shapes.  A relation keeps
two values derived from its terms, each worked out on first use unless its
maker sets it: its coprime integer coefficients (``_integer_coefficients``,
which span rows and the Koszul dual read) and its skeleton (``_skeleton``,
its DSL text with ``{}`` for each generator, which printing reads).  A
colored relation takes both from its template, a relation line the parser
read takes both from its reading, and a renamed relation whose terms keep
their order takes its source's.  A presentation keeps what is derived from
it, made on first use and kept as long as the presentation lives: its
validation report, the builders' compiled state (which ``compat`` makes)
and its side of every span question (its echelon bases, tot's grown from
mat's, see ``spans``).  None of these is a field: equality, hashing,
copying, pickling and ``dataclasses.replace`` see the fields only.  The
span comparison lives in ``spans``, where ``presentation_span_equal`` and
``presentation_span_contains`` are the two verdicts of its one report,
``span_components``; those two and the other two of its names that the
benchmark's tracer and workloads and the acceptance gate look up here are
bound too, though not listed in ``__all__``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import attrgetter
from typing import Mapping, Optional, Sequence

from .spans import (
    component_matrix,
    presentation_span_contains,
    presentation_span_equal,
    relation_gradings,
)
from .trees import (
    _NAME,
    _NAME_HEAD,
    _NAME_TAIL,
    Generator,
    Tree,
    _is_leaf_name,
    _flat_tree,
    _require,
    _text_template,
    color_label_problem,
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
    "generator_text_problem",
    "replicate_problem",
    "rename_problem",
    "rename_generators",
    "standard_slots",
    "support",
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
        """The coefficients as coprime integers, in term order (``_integers``).

        Worked out on first use; a colored relation gets its template's.
        """
        return tuple(_integers(self.terms))

    @cached_property
    def _skeleton(self) -> str:
        """The terms' DSL text with ``{}`` for each generator (``_terms_skeleton``).

        Worked out on first print; a colored relation gets its template's
        and a parsed one the skeleton of the line it was read from.
        """
        return _terms_skeleton(self.terms)

    def __getstate__(self) -> dict:
        # Pickle the fields only, as before the derived values existed.
        return {"name": self.name, "terms": self.terms}


_new_relation = Relation.__new__
_set = object.__setattr__


def _ordered_relation(
    name: str, terms: tuple[Term, ...], integers: tuple[int, ...], skeleton: str
) -> Relation:
    """``Relation(name, terms)`` without its sort, for terms already in
    canonical order, with their integer coefficients and skeleton, which
    its maker knows: a colored relation's template, or the parser's
    reading of the line."""
    rel = _new_relation(Relation)
    _set(rel, "name", name)
    _set(rel, "terms", terms)
    _set(rel, "_integer_coefficients", integers)
    _set(rel, "_skeleton", skeleton)
    return rel


_relation_name = attrgetter("name")


def _terms_skeleton(terms: Sequence[Term]) -> str:
    """The DSL text of a relation's terms with ``{}`` for each generator:
    each slotted tree's format string after its sign and, unless it is 1,
    its coefficient's magnitude."""
    parts = []
    for term in terms:
        num, den = term.coeff.numerator, term.coeff.denominator
        body = _text_template(term.tree.shape, term.slots)
        if den != 1:
            body = f"{abs(num)}/{den}*{body}"
        elif num != 1 and num != -1:
            body = f"{abs(num)}*{body}"
        parts.append(("- " if num < 0 else "+ ") + body)
    text = " ".join(parts)
    # The first term's sign is bare: "-" for a negative one, none otherwise.
    return text[2:] if text[0] == "+" else "-" + text[2:]


def _integers(terms: Sequence[Term]) -> list[int]:
    """The coefficients of ``terms`` as coprime integers on their line: scaled
    by one common denominator, then divided by the gcd, so the list has
    content 1 unless every coefficient is 0 (then it is all zeros)."""
    scale = lcm(*(term.coeff.denominator for term in terms))
    ints = [term.coeff.numerator * (scale // term.coeff.denominator) for term in terms]
    g = gcd(*ints)
    return [v // g for v in ints] if g > 1 else ints


@dataclass(frozen=True)
class Presentation:
    """Generators plus relations, presenting the quotient of a free operad.

    Generators keep declaration order; relations are kept sorted by name so
    that structural equality and serialization agree.  Relations that share
    a name, which only an invalid presentation has, are ordered by their
    first terms.

    The validation report, the builders' compiled state (``compat``'s
    ``_compiled``) and its side of every span question (``spans``'s
    ``_spans``) are worked out on first use and kept in the instance
    dict; they are not fields.
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
    """An ordered finite set of distinct color labels, each a DSL name (``color_label_problem``)."""

    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.labels:
            raise ValueError("color set must be nonempty")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("duplicate color labels")
        for label in self.labels:
            _require(color_label_problem(label))

    def __len__(self) -> int:
        return len(self.labels)

    def __iter__(self):
        return iter(self.labels)

    @classmethod
    def of(cls, spec) -> "ColorSet":
        """Accept an int n (labels 1..n), a sequence of labels or a ColorSet; refuse a str."""
        if isinstance(spec, ColorSet):
            return spec
        if isinstance(spec, str):
            raise ValueError(f"color set {spec!r} is a str: give an int, a sequence of labels or a ColorSet")
        if isinstance(spec, int):
            if spec < 1:
                raise ValueError("color set size must be >= 1")
            return cls(tuple(str(i) for i in range(1, spec + 1)))
        return cls(tuple(str(x) for x in spec))


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


def generator_text_problem(g: Generator) -> Optional[str]:
    """Why ``g``'s DSL text cannot stand for it (see ``validate``), or ``None``."""
    if _is_leaf_name(g.text):
        return f"generator {g.text} has the form of a leaf"
    if not _NAME.fullmatch(g.text) or split_generator_token(g.text) != (g.name, g.color, g.dualized):
        return f"generator {g.text!r} does not read back as itself"
    problem = None if g.color is None else color_label_problem(g.color)
    return f"generator {g.text!r}: {problem}" if problem else None


def validate(p: Presentation) -> ValidationReport:
    """Check every presentation and relation invariant; never raises.

    Names are checked too: the DSL must read the serialized text back, so
    the presentation's name is one name token, each generator's text is a
    name token that splits back into its name, color and dual flag and is
    not a leaf ``x1``, ``x2``, ... nor colored by a non-label, and each
    relation name is what the parser reads between ``relation`` and ``:``.
    A relation whose terms cancel, with an empty ``support``, is refused.
    A colored relation whose terms fall on one tree under two slot maps
    (``cancel__a,a`` of a relation ``t(2,1) - t(1,2)``) keeps a support,
    though its span row is zero, and is not refused.
    """
    problems: list[str] = []
    if not _NAME.fullmatch(p.name):
        problems.append(f"presentation name {p.name!r} is not a DSL name")
    seen_triples = set()
    for g in p.unary:
        if g.arity != 1:
            problems.append(f"generator {g.text} listed as unary has arity {g.arity}")
    for g in p.binary:
        if g.arity != 2:
            problems.append(f"generator {g.text} listed as binary has arity {g.arity}")
    for g in p.generators:
        triple = (g.name, g.color, g.dualized)
        if triple in seen_triples:
            problems.append(f"duplicate generator {g.text}")
        seen_triples.add(triple)
        problem = generator_text_problem(g)
        if problem:
            problems.append(problem)
    known = set(p.generators)
    names: set[str] = set()

    for rel in p.relations:
        if rel.name in names:
            problems.append(f"duplicate relation name {rel.name}")
        names.add(rel.name)
        if not _RELATION_NAME.fullmatch(rel.name):
            problems.append(f"relation name {rel.name!r} is not a DSL relation name")
        # Terms are in canonical order, so terms on one (tree, slots) pair are
        # adjacent: a nonzero first term alone on its pair cannot cancel.
        head = rel.terms[:2]
        alone = len(head) == 1 or (head[0].tree, head[0].slots) != (head[1].tree, head[1].slots)
        if not (head[0].coeff and alone) and not support(rel):
            problems.append(f"relation {rel.name}: its terms cancel to zero")
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
                        f"relation {rel.name} term {idx}: unknown generator {g.text}"
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


def require_valid(*presentations: Presentation) -> None:
    for p in presentations:
        if not p._validation.ok:
            raise ValueError(f"invalid presentation {p.name}: {p._validation}")


def replicate_problem(p: Presentation) -> Optional[str]:
    """Why ``p``'s generators cannot be colored, or ``None``: a colored one,
    or one whose name holds ``~``, whose colored copy ``g~h#w`` would read
    back as an uncolored tensor (``split_generator_token``)."""
    for g in p.generators:
        if g.color is not None:
            return f"cannot replicate already-colored generator {g.text}"
        if "~" in g.name:
            return f"cannot replicate tensor generator {g.text}: color the factors before the product"
    return None


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


def rename_problem(p: Presentation, mapping: Mapping[Generator, Generator]) -> Optional[str]:
    """Why ``mapping`` cannot rename ``p``, or ``None``: it must cover the
    generators, keep their arities and be injective on them."""
    for g in p.generators:
        if g not in mapping:
            return f"rename map misses generator {g.text}"
        if mapping[g].arity != g.arity:
            return f"rename map changes arity of {g.text} ({g.arity} -> {mapping[g].arity})"
    if len({mapping[g] for g in p.generators}) != len(p.generators):
        return "rename map is not injective on the generator list"
    return None


def rename_generators(
    p: Presentation, mapping: Mapping[Generator, Generator]
) -> Presentation:
    """Structurally identical presentation over renamed generators.

    The map is checked once (``rename_problem``), so each renamed tree is
    its source's shape over the images of its generators, made unchecked,
    and each term keeps its coefficient and slots.  A relation whose
    renamed terms keep their order keeps the values its order fixes, its
    integer coefficients and skeleton, where its source has them.
    """
    _require(rename_problem(p, mapping))
    # Only p's generators, whose arities the check compared, are renamed.
    image = {g: mapping[g] for g in p.generators}.__getitem__
    relations = []
    for r in p.relations:
        terms = tuple([
            _term(t.coeff, _flat_tree(t.tree.shape, tuple(map(image, t.tree._gens))), t.slots)
            for t in r.terms
        ])
        rel = Relation(r.name, terms)
        if rel.terms is terms:  # the order is kept, and so are the values it fixes
            for key in ("_integer_coefficients", "_skeleton"):
                if key in vars(r):
                    _set(rel, key, vars(r)[key])
        relations.append(rel)
    return Presentation(
        p.name,
        tuple(map(image, p.unary)),
        tuple(map(image, p.binary)),
        tuple(relations),
    )
