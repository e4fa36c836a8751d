"""Built-in presentations.

Slot conventions are fixed per relation shape and documented inline; the
guiding rule, applied uniformly, is that slots are numbered unary vertices
first, then by which input each operation touches first:

* weight-2 unary chain f(g(x)):         inner g = slot 1, outer f = slot 2
* weight-2 mixed (one unary, one binary): unary = slot 1, binary = slot 2
* weight-2 combs: the operation adjacent to inputs x,y = slot 1 in the left
  comb, the root = slot 1 in the right comb, so a coloring (a, b) reads
  (x *_a y) *_b z  and  x *_a (y *_b z)
* weight-3 shapes: the unary vertex (if any) = slot 1; binary vertices in
  order of their leftmost input.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from .presentation import Presentation, Relation, Term
from .trees import Generator, Tree, leaf

__all__ = ["CatalogEntry", "builtin", "entries", "catalog_keys", "default_grid"]

_ONE = Fraction(1)
_X = leaf()


def _t(coeff, tree: Tree, slots) -> Term:
    return Term(Fraction(coeff), tree, tuple(slots))


def _u(g: Generator, child: Tree) -> Tree:
    return Tree(g, (child,))


def _b(g: Generator, left: Tree, right: Tree) -> Tree:
    return Tree(g, (left, right))


def _assoc(m: Generator, name: str = "assoc") -> Relation:
    # left comb: inner m = slot 1, root = slot 2; right comb: root = slot 1.
    left = _b(m, _b(m, _X, _X), _X)
    right = _b(m, _X, _b(m, _X, _X))
    return Relation(name, (_t(1, left, (2, 1)), _t(-1, right, (1, 2))))


def _leibniz(d: Generator, m: Generator, name: str) -> Relation:
    # d(x*y) - d(x)*y - x*d(y); unary vertex is slot 1 in every term.
    return Relation(
        name,
        (
            _t(1, _u(d, _b(m, _X, _X)), (1, 2)),
            _t(-1, _b(m, _u(d, _X), _X), (2, 1)),
            _t(-1, _b(m, _X, _u(d, _X)), (2, 1)),
        ),
    )


def _rota_baxter_terms(p: Generator, m: Generator) -> list[Term]:
    # P(x)*P(y) - P(P(x)*y) - P(x*P(y)); left operator = slot 1, right = slot 2.
    return [
        _t(1, _b(m, _u(p, _X), _u(p, _X)), (3, 1, 2)),
        _t(-1, _u(p, _b(m, _u(p, _X), _X)), (2, 3, 1)),
        _t(-1, _u(p, _b(m, _X, _u(p, _X))), (1, 3, 2)),
    ]


def _as() -> Presentation:
    m = Generator("m", 2)
    return Presentation("as", (), (m,), (_assoc(m),))


def _dend() -> Presentation:
    prec = Generator("prec", 2)
    succ = Generator("succ", 2)
    lc = lambda a, b: _b(b, _b(a, _X, _X), _X)  # (x a y) b z
    rc = lambda a, b: _b(a, _X, _b(b, _X, _X))  # x a (y b z)
    rels = (
        Relation(
            "dleft",
            (
                _t(1, lc(prec, prec), (2, 1)),
                _t(-1, rc(prec, prec), (1, 2)),
                _t(-1, rc(prec, succ), (1, 2)),
            ),
        ),
        Relation(
            "dmid",
            (
                _t(1, lc(succ, prec), (2, 1)),
                _t(-1, rc(succ, prec), (1, 2)),
            ),
        ),
        Relation(
            "dright",
            (
                _t(1, lc(prec, succ), (2, 1)),
                _t(1, lc(succ, succ), (2, 1)),
                _t(-1, rc(succ, succ), (1, 2)),
            ),
        ),
    )
    return Presentation("dend", (), (prec, succ), rels)


def _diff() -> Presentation:
    d = Generator("d", 1)
    m = Generator("m", 2)
    return Presentation("diff", (d,), (m,), (_leibniz(d, m, "leibniz"), _assoc(m)))


def _multi_diff(n: int) -> Presentation:
    if n < 1:
        raise ValueError("multi_diff needs at least one operator")
    ds = tuple(Generator(f"d{i}", 1) for i in range(1, n + 1))
    m = Generator("m", 2)
    rels = []
    # Commutators d_i d_j = d_j d_i, one per unordered pair.  In each term the
    # inner operator is slot 1, the outer slot 2.
    for i in range(n):
        for j in range(i + 1, n):
            rels.append(
                Relation(
                    f"comm_{i + 1}_{j + 1}",
                    (
                        _t(1, _u(ds[i], _u(ds[j], _X)), (2, 1)),
                        _t(-1, _u(ds[j], _u(ds[i], _X)), (2, 1)),
                    ),
                )
            )
    for i, d in enumerate(ds):
        rels.append(_leibniz(d, m, f"leibniz_{i + 1}"))
    rels.append(_assoc(m))
    return Presentation(f"multi_diff_{n}", ds, (m,), tuple(rels))


def _rba0() -> Presentation:
    p = Generator("P", 1)
    m = Generator("m", 2)
    rb = Relation("rb", tuple(_rota_baxter_terms(p, m)))
    return Presentation("rba0", (p,), (m,), (rb, _assoc(m)))


def _nijenhuis() -> Presentation:
    p = Generator("P", 1)
    m = Generator("m", 2)
    terms = _rota_baxter_terms(p, m)
    # extra square-on-output term +P(P(x*y)); inner operator = slot 1.
    terms.append(_t(1, _u(p, _u(p, _b(m, _X, _X))), (2, 1, 3)))
    nij = Relation("nij", tuple(terms))
    return Presentation("nijenhuis", (p,), (m,), (nij, _assoc(m)))


def _hom_as() -> Presentation:
    a = Generator("a", 1)
    m = Generator("m", 2)
    # (x * y) * a(z) - a(x) * (y * z); the twisting map is slot 1.
    rel = Relation(
        "hom_assoc",
        (
            _t(1, _b(m, _b(m, _X, _X), _u(a, _X)), (3, 2, 1)),
            _t(-1, _b(m, _u(a, _X), _b(m, _X, _X)), (2, 1, 3)),
        ),
    )
    return Presentation("hom_as", (a,), (m,), (rel,))


def _cubic_as() -> Presentation:
    m = Generator("m", 2)
    # Arity-4 weight-3 comb shapes with slots numbered by leftmost input:
    s1 = _t(1, _b(m, _b(m, _b(m, _X, _X), _X), _X), (3, 2, 1))  # ((xy)z)w
    shapes = [
        (_b(m, _b(m, _X, _b(m, _X, _X)), _X), (3, 1, 2)),  # (x(yz))w
        (_b(m, _b(m, _X, _X), _b(m, _X, _X)), (2, 1, 3)),  # (xy)(zw)
        (_b(m, _X, _b(m, _b(m, _X, _X), _X)), (1, 3, 2)),  # x((yz)w)
        (_b(m, _X, _b(m, _X, _b(m, _X, _X))), (1, 2, 3)),  # x(y(zw))
    ]
    rels = tuple(
        Relation(f"c{i + 1}", (s1, _t(-1, tree, slots)))
        for i, (tree, slots) in enumerate(shapes)
    )
    return Presentation("cubic_as", (), (m,), rels)


def _d1d2() -> Presentation:
    d1 = Generator("d1", 1)
    d2 = Generator("d2", 1)
    m = Generator("m", 2)
    rels = (
        Relation("dd_a", (_t(1, _u(d1, _u(d1, _X)), (2, 1)),)),
        Relation("dd_b", (_t(1, _u(d1, _u(d2, _X)), (2, 1)),)),
        _leibniz(d1, m, "leib1"),
        Relation(
            "leib2_left",
            (
                _t(1, _u(d2, _b(m, _X, _X)), (1, 2)),
                _t(-1, _b(m, _u(d2, _X), _X), (2, 1)),
            ),
        ),
        Relation(
            "leib2_right",
            (
                _t(1, _u(d2, _b(m, _X, _X)), (1, 2)),
                _t(-1, _b(m, _X, _u(d2, _X)), (2, 1)),
            ),
        ),
        _assoc(m),
    )
    return Presentation("d1d2", (d1, d2), (m,), rels)


def _p_cubed() -> Presentation:
    p = Generator("P", 1)
    rel = Relation("ppp", (_t(1, _u(p, _u(p, _u(p, _X))), (3, 2, 1)),))
    return Presentation("p_cubed", (p,), (), (rel,))


@dataclass(frozen=True)
class CatalogEntry:
    key: str
    builder: Callable[..., Presentation]
    takes_param: bool
    provenance: str


_ENTRIES: dict[str, CatalogEntry] = {
    e.key: e
    for e in [
        CatalogEntry("as", _as, False, "associative product"),
        CatalogEntry("dend", _dend, False, "dendriform algebra: associativity split into two operations"),
        CatalogEntry("diff", _diff, False, "associative product with one derivation"),
        CatalogEntry("multi_diff", _multi_diff, True, "associative product with n commuting derivations"),
        CatalogEntry("rba0", _rba0, False, "Rota-Baxter operator of weight zero on an associative product"),
        CatalogEntry("nijenhuis", _nijenhuis, False, "Nijenhuis operator on an associative product"),
        CatalogEntry("hom_as", _hom_as, False, "associativity twisted by a linear map (cubic)"),
        CatalogEntry("cubic_as", _cubic_as, False, "associativity imposed in arity four only (cubic)"),
        CatalogEntry("d1d2", _d1d2, False, "two operators: one derivation, one left-and-right absorbing"),
        CatalogEntry("p_cubed", _p_cubed, False, "synthetic: one operator with vanishing cube (cubic, arity one)"),
    ]
}


def catalog_keys() -> list[str]:
    return sorted(_ENTRIES)


def builtin(key: str, param: Optional[int] = None) -> Presentation:
    """A validated built-in presentation; ``multi_diff`` takes the operator count."""
    try:
        entry = _ENTRIES[key]
    except KeyError:
        raise KeyError(f"unknown catalog key {key!r}; known: {', '.join(catalog_keys())}") from None
    if entry.takes_param:
        if param is None:
            raise ValueError(f"catalog entry {key!r} needs an integer parameter")
        p = entry.builder(param)
    else:
        if param is not None:
            raise ValueError(f"catalog entry {key!r} takes no parameter")
        p = entry.builder()
    report = p._validation
    assert report.ok, f"catalog entry {key} failed validation: {report}"
    return p


def entries() -> list[CatalogEntry]:
    return [_ENTRIES[k] for k in catalog_keys()]


def default_grid() -> list[tuple[str, Presentation]]:
    """The documented presentation grid used by the verification harness."""
    grid = []
    for key in catalog_keys():
        if key == "multi_diff":
            grid.append(("multi_diff(2)", builtin(key, 2)))
        else:
            grid.append((key, builtin(key)))
    return grid
