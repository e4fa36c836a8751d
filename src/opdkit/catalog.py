"""Built-in presentations.

The DSL files in the package's ``data/`` folder are the source of truth:
each entry is parsed from ``data/<key>.opd``, except ``multi_diff(n)``,
parsed from a text template whose output ships for n = 1, 2, 3.

Slot conventions are fixed per relation shape; the guiding rule, applied
uniformly, is that slots are numbered unary vertices first, then by which
input each operation touches first:

* weight-2 unary chain f(g(x)):         inner g = slot 1, outer f = slot 2
* weight-2 mixed (one unary, one binary): unary = slot 1, binary = slot 2
* weight-2 combs: the operation adjacent to inputs x,y = slot 1 in the left
  comb, the root = slot 1 in the right comb, so a coloring (a, b) reads
  (x *_a y) *_b z  and  x *_a (y *_b z)
* weight-3 shapes: the unary vertex (if any) = slot 1; binary vertices in
  order of their leftmost input.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import combinations
from typing import Optional

from .parser import ParseError, parse_presentation
from .presentation import Presentation

__all__ = ["CatalogEntry", "builtin", "entries", "catalog_keys", "default_grid", "data_text"]

# The catalog: each key with its provenance.
_PROVENANCE = {
    "as": "associative product",
    "dend": "dendriform algebra: associativity split into two operations",
    "diff": "associative product with one derivation",
    "multi_diff": "associative product with n commuting derivations",
    "rba0": "Rota-Baxter operator of weight zero on an associative product",
    "nijenhuis": "Nijenhuis operator on an associative product",
    "hom_as": "associativity twisted by a linear map (cubic)",
    "cubic_as": "associativity imposed in arity four only (cubic)",
    "d1d2": "two operators: one derivation, one left-and-right absorbing",
    "p_cubed": "synthetic: one operator with vanishing cube (cubic, arity one)",
}


@dataclass(frozen=True)
class CatalogEntry:
    key: str
    takes_param: bool
    provenance: str


# The package's data folder.  The package ships its .opd files as plain
# files (``package-data`` in pyproject.toml), so they are read with open(),
# which is cheaper than importlib.resources and imports nothing more.
_DATA = os.path.join(os.path.dirname(__file__), "data")


def data_text(name: str) -> str:
    """The text of ``data/<name>.opd`` shipped inside the package."""
    with open(os.path.join(_DATA, f"{name}.opd"), encoding="utf-8") as f:
        return f.read()


def _multi_diff_text(n: int) -> str:
    """The DSL text of n commuting derivations of an associative product."""
    if n < 1:
        raise ValueError("multi_diff needs at least one operator")
    ops = range(1, n + 1)
    lines = [
        f"operad multi_diff_{n}",
        "unary " + " ".join(f"d{i}" for i in ops),
        "binary m",
        "relation assoc: m@2(m@1(x1,x2),x3) - m@1(x1,m@2(x2,x3))",
    ]
    for i, j in combinations(ops, 2):
        lines.append(f"relation comm_{i}_{j}: d{i}@2(d{j}@1(x1)) - d{j}@2(d{i}@1(x1))")
    for i in ops:
        lines.append(f"relation leibniz_{i}: d{i}@1(m@2(x1,x2)) - m@2(d{i}@1(x1),x2) - m@2(x1,d{i}@1(x2))")
    return "\n".join(lines) + "\n"


def catalog_keys() -> list[str]:
    return sorted(_PROVENANCE)


def builtin(key: str, param: Optional[int] = None) -> Presentation:
    """A validated built-in presentation; ``multi_diff`` takes the operator count.

    A catalog text that does not parse or validate is a bug in opdkit, and
    raises ``RuntimeError``.
    """
    if key not in _PROVENANCE:
        raise KeyError(f"unknown catalog key {key!r}; known: {', '.join(catalog_keys())}")
    if key == "multi_diff":
        if param is None:
            raise ValueError(f"catalog entry {key!r} needs an integer parameter")
        text = _multi_diff_text(param)
    else:
        if param is not None:
            raise ValueError(f"catalog entry {key!r} takes no parameter")
        text = data_text(key)
    try:
        p = parse_presentation(text)
    except ParseError as exc:
        raise RuntimeError(f"catalog entry {key} does not parse: {exc}") from exc
    report = p._validation
    if not report.ok:
        raise RuntimeError(f"catalog entry {key} failed validation:\n{report}")
    return p


def entries() -> list[CatalogEntry]:
    return [CatalogEntry(k, k == "multi_diff", _PROVENANCE[k]) for k in catalog_keys()]


def default_grid() -> list[tuple[str, Presentation]]:
    """The documented presentation grid used by the verification harness."""
    grid = []
    for key in catalog_keys():
        if key == "multi_diff":
            grid.append(("multi_diff(2)", builtin(key, 2)))
        else:
            grid.append((key, builtin(key)))
    return grid
