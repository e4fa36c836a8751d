"""The claims ``opdkit verify`` checks, each a list of pairs of presentations.

A claim is a function of the ``verify`` options it reads (its keyword
parameters) that yields checks: a label, a ``Pair`` of presentations and
what the check states about the pair's ``span_components`` report (spans
equal, left contains right, or a rank fact).  ``evaluate`` alone turns a
check into a verdict; a pair is compared once, when it is made, however many
checks read it.  Sides are built as checks are yielded, with the builders
looked up when called, so a tracer that rebinds module attributes sees every
call.  A claim writes nothing: it yields checks, and ``cli`` alone prints
verdicts and writes files.
"""

from __future__ import annotations

import functools
import inspect
from dataclasses import dataclass
from itertools import combinations_with_replacement
from typing import Callable, Iterator, NamedTuple, Optional

from .catalog import builtin, data_text, default_grid
from .compat import KINDS, build_compatible, build_lin, build_mat, build_tot, lin_encoding_sides
from .duality import dual_identity_sides, koszul_dual, self_duality
from .manin import black_square, colorize_tensor_map, white_square
from .parser import parse_presentation
from .presentation import ColorSet, Presentation, rename_generators
from .spans import SpanComponent, contains, equal, span_components

__all__ = ["Claim", "Check", "Pair", "CommandError", "CLAIMS", "evaluate", "run_claim",
           "load_golden", "expected_multi_diff_dual"]


class CommandError(Exception):
    """A precondition failure of an ``opdkit`` command, which exits with status 2."""


class Pair:
    """Two presentations and the one span report comparing them, made here unless given."""

    def __init__(self, left: Presentation, right: Presentation,
                 report: Optional[list[SpanComponent]] = None) -> None:
        self.left, self.right = left, right
        self.report: list[SpanComponent] = list(span_components(left, right)) if report is None else report


class Check(NamedTuple):
    label: str
    pair: Pair
    states: Callable[[list[SpanComponent]], bool]


def evaluate(check: Check) -> bool:
    return check.states(check.pair.report)


@dataclass(frozen=True)
class Claim:
    key: str
    description: str
    checks: Callable[..., Iterator[Check]]

    @functools.cached_property
    def options(self) -> tuple[str, ...]:
        """The ``verify`` options the claim reads: its keyword parameters."""
        return tuple(inspect.signature(self.checks).parameters)


def _quadratic_grid():
    return [("as", builtin("as")), ("multi_diff(1)", builtin("multi_diff", 1)),
            ("multi_diff(2)", builtin("multi_diff", 2)), ("d1d2", builtin("d1d2"))]


def _grid(grid, *statements):
    """A claim stating ``states`` of ``sides(p, colors)`` for each grid entry, color count and statement."""

    def checks(omega=None):
        for label, p in grid():
            for n in (2, 3) if omega is None else (omega,):
                for suffix, sides, states in statements:
                    yield Check(f"{label} |colors|={n}{suffix}", Pair(*sides(p, ColorSet.of(n))), states)

    return checks


def _products(kind, products):
    """A claim that kind(as) times a factor, renamed, spans kind of the factor."""

    def checks(omega=None):
        multiply = {"black": black_square, "white": white_square}
        for n in (2, 3) if omega is None else (omega,):
            colors = ColorSet.of(n)
            left = build_compatible(KINDS[kind], builtin("as"), colors)
            for label, q in (("as", builtin("as")), ("dend", builtin("dend"))):
                target = build_compatible(KINDS[kind], q, colors)
                rename = colorize_tensor_map(left.binary, q.binary)
                for product in products:
                    square = rename_generators(multiply[product](left, q), rename)
                    yield Check(f"{kind}(as) {product} {label}, |colors|={n}", Pair(square, target), equal)

    return checks


def _cor_undual():
    two = ColorSet.of(2)
    for label, p in [("d1d2", builtin("d1d2")), ("mat(d1d2, 2 colors)", build_mat(builtin("d1d2"), two)),
                     ("mat(as, 2 colors)", build_mat(builtin("as"), two))]:
        # The search's match and report are reused; with none, the identity renaming shows the failure.
        dual, report = self_duality(p) or (rename_generators(koszul_dual(p), {g.dual(): g for g in p.generators}), None)
        yield Check(f"{label} self-dual", Pair(dual, p, report), equal)


def expected_multi_diff_dual(n: int) -> Presentation:
    """The expected dual presentation of n commuting derivations, transcribed."""
    ops = range(1, n + 1)
    lines = [
        f"operad expected_dual_multi_diff_{n}",
        "unary " + " ".join(f"d{i}^*" for i in ops),
        "binary m^*",
        "relation assoc: m^*@2(m^*@1(x1,x2),x3) - m^*@1(x1,m^*@2(x2,x3))",
    ]
    for i, j in combinations_with_replacement(ops, 2):
        if i < j:
            terms = f"d{i}^*@2(d{j}^*@1(x1)) + d{j}^*@2(d{i}^*@1(x1))"
        else:  # the two terms are one tree
            terms = f"2*d{i}^*@2(d{i}^*@1(x1))"
        lines.append(f"relation sym_{i}_{j}: {terms}")
    for i in ops:
        lines.append(f"relation half_left_{i}: d{i}^*@1(m^*@2(x1,x2)) - m^*@2(d{i}^*@1(x1),x2)")
        lines.append(f"relation half_right_{i}: d{i}^*@1(m^*@2(x1,x2)) - m^*@2(x1,d{i}^*@1(x2))")
    return parse_presentation("\n".join(lines) + "\n")


def _prop_kdualdda(delta=None):
    for n in (1, 2, 3) if delta is None else (delta,):
        pair = Pair(koszul_dual(builtin("multi_diff", n)), expected_multi_diff_dual(n))
        want = (n * (n + 1) // 2, 2 * n, 1)
        yield Check(f"|operators|={n} dims {want}", pair, lambda report, want=want: tuple(
            map({c.arity: c.left_rank for c in report}.get, (1, 2, 3), (0, 0, 0))) == want)
        yield Check(f"|operators|={n} span vs transcribed families", pair, equal)


def load_golden(name: str) -> Presentation:
    """One of the golden relation sets shipped inside the package."""
    return parse_presentation(data_text(name))


def _golden(kind, key, golden_name, *statements):
    """A claim stating ``(verb, states)`` statements of kind(key) at 2 colors against a golden set."""

    def checks():
        pair = Pair(build_compatible(KINDS[kind], builtin(key), ColorSet.of(2)), load_golden(golden_name))
        for verb, states in statements:
            yield Check(f"{kind}({key}, 2 colors) {verb} golden file", pair, states)

    return checks


CLAIMS: dict[str, Claim] = {c.key: c for c in [
    Claim("thm-comp", "formal-expansion span equals the linear-construction span",
          _grid(default_grid, ("", lambda p, w: lin_encoding_sides(p, w), equal))),
    Claim("thm-mdul", "dual of matching equals matching of dual",
          _grid(_quadratic_grid, ("", lambda p, w: dual_identity_sides("matching", p, w), equal))),
    Claim("thm-dul", "dual of linear/total equals total/linear of dual", _grid(
        _quadratic_grid, (" dual(lin)==tot(dual)", lambda p, w: dual_identity_sides("linear", p, w), equal),
        (" dual(tot)==lin(dual)", lambda p, w: dual_identity_sides("total", p, w), equal))),
    Claim("prop-maninbl", "black product with the replicated associative operad gives the linear construction",
          _products("lin", ("black",))),
    Claim("prop-maninbll", "black and white products with the matching associative operad give the matching construction",
          _products("mat", ("black", "white"))),
    Claim("cor-totalwhite", "white product with the totally compatible associative operad gives the total construction",
          _products("tot", ("white",))),
    Claim("cor-undual", "the two-operator presentation and its matching constructions are self-dual", _cor_undual),
    Claim("prop-kdualdda", "dual of n commuting derivations: dimensions and relation families", _prop_kdualdda),
    Claim("prop-matlin", "linear relations lie inside the matching span",
          _grid(default_grid, ("", lambda p, w: (build_mat(p, w), build_lin(p, w)), contains))),
    Claim("prop-totmat", "matching relations lie inside the total span",
          _grid(default_grid, ("", lambda p, w: (build_tot(p, w), build_mat(p, w)), contains))),
    Claim("ex-rbcom", "linearly compatible Rota-Baxter relations match the golden file",
          _golden("lin", "rba0", "golden_rbcom", ("vs", equal))),
    Claim("ex-rbmat-dend", "matching dendriform relations match the golden file",
          _golden("mat", "dend", "golden_rbmat_dend", ("vs", equal))),
    Claim("ex-rbtot", "totally compatible Rota-Baxter relations match the golden file",
          _golden("tot", "rba0", "golden_rbtot", ("contains", contains), ("equals", equal))),
]}


def run_claim(key: str, **options) -> Iterator[tuple[str, bool, list[SpanComponent]]]:
    """The label, verdict and report of each check of claim ``key`` under ``options``."""
    if key not in CLAIMS:
        raise CommandError(f"unknown claim {key!r}; see 'list-claims' for the registry")
    for option in options:
        if option not in CLAIMS[key].options:
            raise CommandError(f"claim {key} does not take --{option}")
    return ((c.label, evaluate(c), c.pair.report) for c in CLAIMS[key].checks(**options))
