"""Planar rooted trees decorated by unary and binary generators.

Decorated planar rooted trees are the canonical basis elements of free
nonsymmetric operads.  Leaves carry no data (planar position is structural,
inputs are never permuted); every internal vertex carries a generator whose
arity equals its number of children.  The arity of a tree is its leaf count,
its weight is its internal-vertex count.

Everything here is immutable and hashable, so trees can key dictionaries
when linear combinations of trees are turned into coefficient vectors.  A
generator stores its hash and sort key when it is built.  A tree computes
its arity, weight, hash, shape, preorder generators and their sort keys
once, at construction, from its children's; the canonical key ``tree_key``
is read off them without walking the tree.  ``relabel`` rebuilds a tree
with new generators; renaming, dualizing and the Manin products use it,
while coloring walks the tree itself (``presentation._colored_tree``).
"""

from __future__ import annotations

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
    "tree_text",
]


@dataclass(frozen=True, slots=True)
class Generator:
    """A named operation of arity 1 or 2, optionally colored and/or dualized.

    ``sort_key`` and the hash are computed once, when the generator is
    built: generators key the coloring memo and every tree hash, and each
    canonical tree key is made of their sort keys.
    """

    name: str
    arity: int
    color: Optional[str] = None
    dualized: bool = False
    sort_key: tuple[str, str, bool] = field(init=False, repr=False, compare=False)
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.arity not in (1, 2):
            raise ValueError(
                f"generator {self.name!r} must have arity 1 or 2, got {self.arity}"
            )
        object.__setattr__(self, "sort_key", (self.name, self.color or "", self.dualized))
        object.__setattr__(
            self, "_hash", hash((self.name, self.arity, self.color, self.dualized))
        )

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # String hashes differ between processes: rebuild, never copy _hash.
        return (Generator, (self.name, self.arity, self.color, self.dualized))

    def colored(self, label: str) -> "Generator":
        if self.color is not None:
            raise ValueError(f"generator {self.serialized()} is already colored")
        return Generator(self.name, self.arity, label, self.dualized)

    def uncolored(self) -> "Generator":
        return Generator(self.name, self.arity, None, self.dualized)

    def dual(self) -> "Generator":
        """Dual generator; dualizing twice gives back the original."""
        return Generator(self.name, self.arity, self.color, not self.dualized)

    def serialized(self) -> str:
        out = self.name
        if self.color is not None:
            out += f"#{self.color}"
        if self.dualized:
            out += "^*"
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Generator({self.serialized()}/{self.arity})"


# Node-kind codes for the canonical order: internal vertices sort before
# leaves, unary before binary, so e.g. the left comb precedes the right comb
# and m(P(x1),x2) precedes m(x1,P(x2)).
_KIND_UNARY = 0
_KIND_BINARY = 1
_KIND_LEAF = 2
_LEAF_SHAPE = (_KIND_LEAF,)


@dataclass(frozen=True, slots=True)
class Tree:
    """A decorated planar rooted tree; ``gen is None`` marks a leaf.

    Arity, weight, hash, ``shape`` (the node kinds in preorder, leaves
    included), the generators in preorder and their sort keys are computed
    once, from the children's, when the tree is built: trees key every
    column map of the span engine and every canonical sort, and
    recomputing them recursively dominated both.
    """

    gen: Optional[Generator] = None
    children: tuple["Tree", ...] = ()
    arity: int = field(init=False, repr=False, compare=False)
    weight: int = field(init=False, repr=False, compare=False)
    shape: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _gens: tuple[Generator, ...] = field(init=False, repr=False, compare=False)
    _keys: tuple[tuple[str, str, bool], ...] = field(init=False, repr=False, compare=False)
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        gen, children = self.gen, self.children
        if gen is None:
            if children:
                raise ValueError("leaves have no children")
            arity, weight, shape, gens, keys = 1, 0, _LEAF_SHAPE, (), ()
            h = hash((None,))
        elif len(children) != gen.arity:
            raise ValueError(
                f"node {gen.serialized()} needs {gen.arity} children, "
                f"got {len(children)}"
            )
        elif len(children) == 2:
            left, right = children
            arity = left.arity + right.arity
            weight = left.weight + right.weight + 1
            shape = (_KIND_BINARY, *left.shape, *right.shape)
            gens = (gen, *left._gens, *right._gens)
            keys = (gen.sort_key, *left._keys, *right._keys)
            h = hash((gen._hash, left._hash, right._hash))
        else:
            (child,) = children
            arity = child.arity
            weight = child.weight + 1
            shape = (_KIND_UNARY, *child.shape)
            gens = (gen, *child._gens)
            keys = (gen.sort_key, *child._keys)
            h = hash((gen._hash, child._hash))
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "weight", weight)
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "_gens", gens)
        object.__setattr__(self, "_keys", keys)
        object.__setattr__(self, "_hash", h)

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # String hashes differ between processes: rebuild, never copy _hash
        # or the other computed fields.
        return (Tree, (self.gen, self.children))

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is not Tree:
            return NotImplemented
        # Shape and preorder generators determine the tree, so equal trees
        # from separate builds compare without recursion.
        return (
            self._hash == other._hash
            and self.shape == other.shape
            and self._gens == other._gens
        )

    @property
    def is_leaf(self) -> bool:
        return self.gen is None

    def internal_generators(self) -> tuple[Generator, ...]:
        """Generators of internal vertices in preorder."""
        return self._gens

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Tree({tree_text(self)})"


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

    def go(node: Tree, k: int) -> Tree:
        if node.is_leaf:
            return s
        new_children = []
        for child in node.children:
            a = child.arity
            if 1 <= k <= a:
                new_children.append(go(child, k))
            else:
                new_children.append(child)
            k -= a
        return Tree(node.gen, tuple(new_children))

    return go(t, i)


def compose(t: Tree, args: Sequence[Tree]) -> Tree:
    """Operadic composition: graft ``args[i]`` onto the i-th leaf of ``t``.

    Grafting proceeds right to left so earlier leaf positions stay valid.
    """
    if len(args) != t.arity:
        raise ValueError(f"expected {t.arity} arguments, got {len(args)}")
    out = t
    for i in range(len(args), 0, -1):
        out = graft(out, i, args[i - 1])
    return out


def relabel(tree: Tree, gens: Iterable[Generator]) -> Tree:
    """``tree`` with its internal vertices decorated by ``gens``, in preorder."""
    it = iter(gens)

    def go(node: Tree) -> Tree:
        if node.gen is None:
            return node
        return Tree(next(it), tuple(map(go, node.children)))

    return go(tree)


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


@lru_cache(maxsize=None)
def _all_trees(gens: tuple[Generator, ...], arity: int, weight: int) -> tuple[Tree, ...]:
    if weight == 0:
        return (_LEAF,) if arity == 1 else ()
    out = []
    for g in gens:
        if g.arity == 1:
            for sub in _all_trees(gens, arity, weight - 1):
                out.append(Tree(g, (sub,)))
        else:
            for left_arity in range(1, arity):
                for left_weight in range(weight):
                    lefts = _all_trees(gens, left_arity, left_weight)
                    if not lefts:
                        continue
                    rights = _all_trees(
                        gens, arity - left_arity, weight - 1 - left_weight
                    )
                    for lt in lefts:
                        for rt in rights:
                            out.append(Tree(g, (lt, rt)))
    return tuple(sorted(out, key=tree_key))


def enumerate_basis(
    gens: Sequence[Generator], arity: int, weight: int
) -> GradedComponent:
    """All decorated trees of the given arity and weight, in canonical order."""
    if arity < 1:
        raise ValueError("arity must be >= 1")
    if weight < 0:
        raise ValueError("weight must be >= 0")
    basis = _all_trees(tuple(gens), arity, weight)
    return GradedComponent(arity, weight, basis)


@lru_cache(maxsize=None)
def _text_template(shape: tuple[int, ...]) -> str:
    """Format string of ``tree_text`` for one shape: a ``{}`` per internal
    vertex in preorder, leaves numbered x1, x2, ... left to right."""
    parts = []
    open_arguments = []  # per open vertex, the children still to write
    leaves = 0
    for kind in shape:
        if kind != _KIND_LEAF:
            parts.append("{}(")
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
    labels = [g.serialized() for g in t._gens]
    if slots is not None:
        if len(slots) != t.weight:
            raise ValueError(
                f"tree has {t.weight} internal vertices "
                f"but {len(slots)} slot annotations"
            )
        labels = [f"{label}@{slot}" for label, slot in zip(labels, slots)]
    return _text_template(t.shape).format(*labels)
