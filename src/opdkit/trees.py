"""Planar rooted trees decorated by unary and binary generators.

Decorated planar rooted trees are the canonical basis elements of free
nonsymmetric operads.  Leaves carry no data (planar position is structural,
inputs are never permuted); every internal vertex carries a generator whose
arity equals its number of children.  The arity of a tree is its leaf count,
its weight is its internal-vertex count.

Everything here is immutable and hashable, so trees can key dictionaries
when linear combinations of trees are turned into coefficient vectors.  A
generator stores its hash, sort key and DSL text when it is built.  A tree
is stored flat, as its shape and its generators in preorder, with its
arity, weight, hash and sort keys derived from them once; ``tree_key``
reads them without a walk.  ``relabel`` (renaming, dualizing, the Manin
products) and coloring (``compat._Template``) build each tree in one step
from a template's shape and new generators; composition splices flat
forms.  ``basis_dimension`` counts a graded basis in closed form, so a
size can be known, and refused, before any tree is built.

A tree's text is one format string per shape, or per (shape, slots) for
the slotted form of the DSL, filled with its generators' stored texts;
the parser prints relation lines from the slotted ones.
The DSL's name token and color label are defined here too, beside
``Generator``: the parser lexes with the one, and ``validate`` and
``build --omega`` check names and labels against them.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Optional, Sequence

__all__ = [
    "Generator",
    "Tree",
    "GradedComponent",
    "leaf",
    "corolla",
    "graft",
    "compose",
    "relabel",
    "tree_key",
    "enumerate_basis",
    "basis_dimension",
    "tree_text",
    "split_generator_token",
    "color_label_problem",
    "grading_problem",
]


# A name of the DSL: a letter or ``_``, then a head of letters, digits and
# ``_`` broken by attached color ``#``s and dual markers ``^*``; then,
# optionally, a tensor tail: a ``~``, or ``*~``, and letters, digits, ``_``,
# ``~`` and ``*`` broken the same way (``m*~prec^*``).  Each repetition starts
# with a character the run before it cannot take, so a text matches in at
# most one way and a failing match backtracks in linear time.  Runs of
# letters and digits are matched whole, which keeps the lexer fast.
_NAME_HEAD = r"[A-Za-z0-9_]*(?:(?:#(?=[A-Za-z0-9_~])|\^\*)[A-Za-z0-9_]*)*"
_NAME_TAIL = r"\*?~[A-Za-z0-9_~*]*(?:(?:#(?=[A-Za-z0-9_~])|\^\*)[A-Za-z0-9_~*]*)*"
_NAME_PATTERN = rf"[A-Za-z_]{_NAME_HEAD}(?:{_NAME_TAIL})?"
_NAME = re.compile(_NAME_PATTERN)
_COLOR_LABEL = re.compile(r"[A-Za-z0-9_]+")


def color_label_problem(label: str) -> Optional[str]:
    """Why ``label`` cannot be a color, whose ``g#label`` must read back, or ``None``."""
    if not _COLOR_LABEL.fullmatch(label):
        return f"color label {label!r} is not a DSL name (letters, digits and _ only)"
    return None


def _require(problem: Optional[str]) -> None:
    """Raise ``ValueError`` with the text of a ``*_problem`` check, if any."""
    if problem:
        raise ValueError(problem)


def _is_leaf_name(token: str) -> bool:
    """Whether ``token`` reads as a leaf ``x1``, ``x2``, ... in the DSL."""
    return token[:1] == "x" and token[1:].isdigit() and token[1:].isascii()


def split_generator_token(token: str) -> tuple[str, Optional[str], bool]:
    """(name, color, dualized) of a generator token.

    A trailing ``^*`` is the dual flag; a ``#`` splits name from color except
    inside tensor names (those contain ``~`` and keep everything as name).
    """
    dualized = token.endswith("^*")
    if dualized:
        token = token[:-2]
    if "~" in token:
        return token, None, dualized
    name, sep, color = token.partition("#")
    return name, (color if sep else None), dualized


@dataclass(frozen=True, slots=True)
class Generator:
    """A named operation of arity 1 or 2, optionally colored and/or dualized.

    ``sort_key``, the hash and ``text``, the DSL token, are computed once,
    when the generator is built: generators key the coloring memo and every
    tree hash, each canonical tree key is made of their sort keys, and every
    printed tree is made of their texts.
    """

    name: str
    arity: int
    color: Optional[str] = None
    dualized: bool = False
    sort_key: tuple[str, str, bool] = field(init=False, repr=False, compare=False)
    _hash: int = field(init=False, repr=False, compare=False)
    text: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.arity not in (1, 2):
            raise ValueError(
                f"generator {self.name!r} must have arity 1 or 2, got {self.arity}"
            )
        object.__setattr__(self, "sort_key", (self.name, self.color or "", self.dualized))
        object.__setattr__(
            self, "_hash", hash((self.name, self.arity, self.color, self.dualized))
        )
        text = self.name if self.color is None else f"{self.name}#{self.color}"
        object.__setattr__(self, "text", text + "^*" if self.dualized else text)

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # String hashes differ between processes: rebuild, never copy _hash.
        return (Generator, (self.name, self.arity, self.color, self.dualized))

    def colored(self, label: str) -> "Generator":
        if self.color is not None:
            raise ValueError(f"generator {self.text} is already colored")
        return Generator(self.name, self.arity, label, self.dualized)

    def uncolored(self) -> "Generator":
        return Generator(self.name, self.arity, None, self.dualized)

    def dual(self) -> "Generator":
        """Dual generator; dualizing twice gives back the original."""
        return Generator(self.name, self.arity, self.color, not self.dualized)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Generator({self.text}/{self.arity})"


# Node-kind codes for the canonical order: internal vertices sort before
# leaves, unary before binary, so e.g. the left comb precedes the right comb
# and m(P(x1),x2) precedes m(x1,P(x2)).  A vertex's kind is its arity - 1.
_KIND_UNARY = 0
_KIND_BINARY = 1
_KIND_LEAF = 2


class Tree:
    """A decorated planar rooted tree: its ``shape`` (the node kinds in
    preorder, leaves included) and its generators in preorder.

    Arity, weight, sort keys and hash are derived once, when the tree is
    built.  ``Tree(gen, children)`` builds from a root and its subtrees,
    ``Tree()`` is a leaf; ``gen`` and ``children`` are read back from the
    flat form, which nothing on the hot path asks for.
    """

    __slots__ = ("shape", "_gens", "arity", "weight", "_keys", "_hash")

    def __new__(cls, gen: Optional[Generator] = None, children: tuple["Tree", ...] = ()):
        if gen is None:
            if children:
                raise ValueError("leaves have no children")
            return _flat_tree((_KIND_LEAF,), ())
        if len(children) != gen.arity:
            raise ValueError(
                f"node {gen.text} needs {gen.arity} children, "
                f"got {len(children)}"
            )
        shape, gens = [gen.arity - 1], [gen]
        for child in children:
            shape += child.shape
            gens += child._gens
        return _flat_tree(tuple(shape), tuple(gens))

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"Tree is immutable: cannot set {name!r}")

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # String hashes differ between processes: rebuild, never copy _hash
        # or the other derived fields.
        return (_flat_tree, (self.shape, self._gens))

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is not Tree:
            return NotImplemented
        # Shape and preorder generators determine the tree.
        return (
            self._hash == other._hash
            and self.shape == other.shape
            and self._gens == other._gens
        )

    @property
    def gen(self) -> Optional[Generator]:
        """The root's generator; ``None`` for a leaf."""
        return self._gens[0] if self._gens else None

    @property
    def children(self) -> tuple["Tree", ...]:
        """The root's subtrees, rebuilt from the flat form."""
        shape, gens = self.shape, self._gens
        if not gens:
            return ()
        # The first subtree ends where its leaves first outnumber its binary vertices.
        depths = itertools.accumulate((0, 1, -1)[kind] for kind in shape[1:])
        end = 2 + next(i for i, depth in enumerate(depths) if depth < 0)
        split = end - shape[:end].count(_KIND_LEAF)
        first = _flat_tree(shape[1:end], gens[1:split])
        if shape[0] == _KIND_UNARY:
            return (first,)
        return (first, _flat_tree(shape[end:], gens[split:]))

    @property
    def is_leaf(self) -> bool:
        return not self._gens

    def internal_generators(self) -> tuple[Generator, ...]:
        """Generators of internal vertices in preorder."""
        return self._gens

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Tree({tree_text(self)})"


_new = object.__new__
# Tree.__setattr__ refuses every assignment; _flat_tree sets the fields
# through their slot descriptors.
_set_shape, _set_gens, _set_keys, _set_hash = (
    Tree.shape.__set__, Tree._gens.__set__, Tree._keys.__set__, Tree._hash.__set__
)
_set_arity, _set_weight = Tree.arity.__set__, Tree.weight.__set__


def _flat_tree(shape: tuple[int, ...], gens: tuple[Generator, ...]) -> Tree:
    """The tree of ``shape`` with ``gens`` on its internal vertices in
    preorder, unchecked.  Every tree is built here, so the hash is one
    function of (shape, generators) however the tree was made."""
    keys = tuple([g.sort_key for g in gens])
    tree = _new(Tree)
    _set_shape(tree, shape)
    _set_gens(tree, gens)
    _set_arity(tree, shape.count(_KIND_LEAF))
    _set_weight(tree, len(gens))
    _set_keys(tree, keys)
    _set_hash(tree, hash((shape, keys)))
    return tree


_LEAF = Tree()


def leaf() -> Tree:
    """The identity tree: a single leaf, arity 1, weight 0."""
    return _LEAF


def corolla(gen: Generator) -> Tree:
    return Tree(gen, (_LEAF,) * gen.arity)


def graft(t: Tree, i: int, s: Tree) -> Tree:
    """Replace the i-th leaf (1-based, left to right) of ``t`` by ``s``."""
    if not 1 <= i <= t.arity:
        raise IndexError(f"leaf index {i} out of range for tree of arity {t.arity}")
    return compose(t, (_LEAF,) * (i - 1) + (s,) + (_LEAF,) * (t.arity - i))


def compose(t: Tree, args: Sequence[Tree]) -> Tree:
    """Operadic composition: graft ``args[i]`` onto the i-th leaf of ``t``,
    splicing the flat form of each argument in place of its leaf."""
    if len(args) != t.arity:
        raise ValueError(f"expected {t.arity} arguments, got {len(args)}")
    shape, gens, own, grafted = [], [], iter(t._gens), iter(args)
    for kind in t.shape:
        if kind == _KIND_LEAF:
            arg = next(grafted)
            shape += arg.shape
            gens += arg._gens
        else:
            shape.append(kind)
            gens.append(next(own))
    return _flat_tree(tuple(shape), tuple(gens))


def relabel(tree: Tree, gens: Iterable[Generator]) -> Tree:
    """``tree`` with its internal vertices decorated by ``gens``, in preorder;
    ``ValueError`` unless there is one generator per vertex, of its arity."""
    gens = tuple(gens)
    if len(gens) != tree.weight:
        raise ValueError(f"tree has {tree.weight} internal vertices but {len(gens)} generators")
    arities = [kind + 1 for kind in tree.shape if kind != _KIND_LEAF]
    for gen, arity in zip(gens, arities):
        if gen.arity != arity:
            raise ValueError(f"node {gen.text} needs {gen.arity} children, got {arity}")
    return _flat_tree(tree.shape, gens) if gens else tree


def tree_key(t: Tree) -> tuple:
    """Canonical sort key: (arity, weight, preorder kinds, preorder generator keys)."""
    return (t.arity, t.weight, t.shape, t._keys)


@dataclass(frozen=True)
class GradedComponent:
    """The ordered canonical basis of all decorated trees of fixed (arity, weight)."""

    arity: int
    weight: int
    basis: tuple[Tree, ...]

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def index(self) -> dict[Tree, int]:
        return {t: i for i, t in enumerate(self.basis)}


def _all_trees(gens: tuple[Generator, ...], arity: int, weight: int, memo: dict) -> tuple[Tree, ...]:
    """The trees of one grading in canonical order, the lower ones kept in ``memo``."""
    if weight == 0:
        return (_LEAF,) if arity == 1 else ()
    found = memo.get((arity, weight))
    if found is not None:
        return found
    out = []
    for g in gens:
        if g.arity == 1:
            for sub in _all_trees(gens, arity, weight - 1, memo):
                out.append(Tree(g, (sub,)))
        else:
            for left_arity in range(1, arity):
                for left_weight in range(weight):
                    lefts = _all_trees(gens, left_arity, left_weight, memo)
                    if not lefts:
                        continue
                    rights = _all_trees(
                        gens, arity - left_arity, weight - 1 - left_weight, memo
                    )
                    for lt in lefts:
                        for rt in rights:
                            out.append(Tree(g, (lt, rt)))
    found = memo[arity, weight] = tuple(sorted(out, key=tree_key))
    return found


@lru_cache(maxsize=256)
def _weight_two_trees(gens: tuple[Generator, ...], arity: int) -> tuple[Tree, ...]:
    """The weight-2 bases that ``koszul_dual`` and ``build_tot`` ask for on
    every call, kept across calls; no other basis outlives its call."""
    return _all_trees(gens, arity, 2, {})


def grading_problem(arity: int, weight: int) -> Optional[str]:
    """Why no graded basis has this arity and weight, or ``None``.  The text
    starts with the coordinate at fault, which ``basis`` names as an option."""
    if arity < 1:
        return "arity must be >= 1"
    if weight < 0:
        return "weight must be >= 0"
    return None


def enumerate_basis(
    gens: Sequence[Generator], arity: int, weight: int
) -> GradedComponent:
    """All decorated trees of the given arity and weight, in canonical order."""
    _require(grading_problem(arity, weight))
    gens = tuple(gens)
    basis = _weight_two_trees(gens, arity) if weight == 2 else _all_trees(gens, arity, weight, {})
    return GradedComponent(arity, weight, basis)


def basis_dimension(gens: Sequence[Generator], arity: int, weight: int) -> int:
    """The number of trees ``enumerate_basis`` lists, counted without them.

    A tree of arity a has b = a - 1 binary vertices and u = weight - b
    unary ones.  Its binary skeleton is one of Catalan(b) planar binary
    trees, with 2b + 1 edges counting the root's, and its unary vertices
    sit in chains on those edges, in C(u + 2b, u) ways; each vertex then
    carries any generator of its arity.
    """
    _require(grading_problem(arity, weight))
    b, u = arity - 1, weight - arity + 1
    if u < 0:
        return 0
    unary = sum(1 for g in gens if g.arity == 1)
    binary = sum(1 for g in gens if g.arity == 2)
    return math.comb(2 * b, b) // (b + 1) * math.comb(u + 2 * b, u) * binary**b * unary**u


@lru_cache(maxsize=4096)
def _text_template(shape: tuple[int, ...], slots: Optional[tuple[int, ...]]) -> str:
    """Format string of ``tree_text`` for one shape and, unless ``None``, one
    slot per internal vertex: a ``{}`` per internal vertex in preorder,
    followed by ``@slot`` when slotted, and leaves numbered x1, x2, ... left
    to right."""
    parts = []
    open_arguments = []  # per open vertex, the children still to write
    leaves = vertices = 0
    for kind in shape:
        if kind != _KIND_LEAF:
            parts.append("{}(" if slots is None else f"{{}}@{slots[vertices]}(")
            vertices += 1
            open_arguments.append(1 if kind == _KIND_UNARY else 2)
            continue
        leaves += 1
        parts.append(f"x{leaves}")
        while open_arguments:
            open_arguments[-1] -= 1
            if open_arguments[-1]:
                parts.append(",")
                break
            open_arguments.pop()
            parts.append(")")
    return "".join(parts)


def tree_text(t: Tree, slots: Optional[Sequence[int]] = None) -> str:
    """Canonical text form, leaves numbered x1, x2, ... left to right.

    When ``slots`` is given (one slot index per internal vertex in preorder),
    each generator is rendered ``name@slot`` as in the presentation DSL.
    """
    if slots is not None:
        slots = tuple(slots)
        if len(slots) != t.weight:
            raise ValueError(
                f"tree has {t.weight} internal vertices "
                f"but {len(slots)} slot annotations"
            )
    return _text_template(t.shape, slots).format(*[g.text for g in t._gens])
