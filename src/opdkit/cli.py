"""Command-line surface: build, dualize, multiply, compare, verify.

Exit codes are uniform across subcommands: 0 success (or all checks
verified), 1 a span/identity check failed, 2 usage, parse, validation, or
precondition errors.  Only ``ParseError`` and ``CommandError`` become exit
2; any other exception is a bug in opdkit and propagates.  Output is
deterministic for identical inputs.

The argument parser is built on the first call of ``main`` and reused for
the rest of the process: ``parse_args`` keeps no state on the parser.
"""

from __future__ import annotations

import argparse
import functools
import re
import sys
from dataclasses import dataclass
from itertools import combinations_with_replacement
from pathlib import Path
from typing import Callable, Iterator, Optional

from .catalog import builtin, data_text, default_grid
from .compat import build_compatible, build_lin, build_mat, build_tot, verify_lin_encoding
from .duality import check_dual_identity, is_self_dual, koszul_dual
from .manin import (
    black_square,
    colorize_tensor_map,
    compare_white_readings,
    white_square,
)
from .parser import ParseError, parse_presentation, serialize, split_generator_token
from .presentation import (
    ColorSet,
    Presentation,
    presentation_span_contains,
    presentation_span_equal,
    rename_generators,
    span_components,
    tensor_clash,
)
from .trees import Generator, basis_dimension, enumerate_basis, tree_text

__all__ = ["main", "CLAIMS", "run_claim", "load_golden"]


class CommandError(Exception):
    """Raised for precondition failures that map to exit status 2."""


def _read_presentation(path: str) -> Presentation:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise CommandError(f"cannot read {path}: {exc}") from exc
    p = parse_presentation(text)
    # The report stays on p, so the builds that follow do not validate again.
    report = p._validation
    if not report.ok:
        raise CommandError(f"{path}: invalid presentation:\n{report}")
    return p


_COLOR_LABEL = re.compile(r"[A-Za-z0-9_]+")


def _omega(spec: str) -> ColorSet:
    labels = [label.strip() for label in spec.split(",") if label.strip()]
    for label in labels:
        # Built presentations spell colors as g#label, which the DSL must read back.
        if not _COLOR_LABEL.fullmatch(label):
            raise CommandError(
                f"color label {label!r} is not a DSL name (letters, digits and _ only)"
            )
    try:
        return ColorSet.of(int(spec) if spec.isdigit() else labels)
    except ValueError as exc:
        raise CommandError(f"--omega {spec!r}: {exc}") from None


def _emit(text: str, output: Optional[str]) -> None:
    if output:
        try:
            Path(output).write_text(text)
        except OSError as exc:
            raise CommandError(f"cannot write {output}: {exc}") from exc
    else:
        sys.stdout.write(text)


def load_golden(name: str) -> Presentation:
    """One of the golden relation sets shipped inside the package."""
    return parse_presentation(data_text(name))


# ---------------------------------------------------------------------------
# plain subcommands: each checks its preconditions itself, with the library's
# messages, so that a ValueError from the library stays a bug


def cmd_build(args) -> int:
    p = _read_presentation(args.input)
    omega = _omega(args.omega)
    for g in p.generators:
        if g.color is not None:
            raise CommandError(f"cannot replicate already-colored generator {g.serialized()}")
    built = build_compatible(
        {"lin": "linear", "mat": "matching", "tot": "total"}[args.kind], p, omega
    )
    _emit(serialize(built, args.format), args.output)
    return 0


def cmd_dual(args) -> int:
    p = _read_presentation(args.input)
    for rel in p.relations:
        if rel.weight != 2:
            raise CommandError("Koszul dual undefined for non-quadratic presentation: "
                               f"relation {rel.name} has weight {rel.weight}")
    _emit(serialize(koszul_dual(p), args.format), args.output)
    return 0


def cmd_product(args) -> int:
    left = _read_presentation(args.left)
    right = _read_presentation(args.right)
    for p in (left, right):
        if p.unary:
            raise CommandError(f"presentation {p.name} has unary generators")
        for rel in p.relations:
            if rel.weight != 2:
                raise CommandError(f"presentation {p.name} has the cubic relation {rel.name}")
    kind = args.kind.replace("-", "_")
    factors = [(left.binary, right.binary)]
    if kind == "white_dual":
        # The dual route also multiplies the Koszul duals, whose tensor names
        # spell each dual marker as '*'.
        factors.append(([g.dual() for g in left.binary], [g.dual() for g in right.binary]))
    for e, f in factors:
        clash = tensor_clash(e, f)
        if clash:
            raise CommandError(clash)
    product = black_square(left, right) if kind == "black" else white_square(left, right, kind)
    _emit(serialize(product, args.format), args.output)
    return 0


def _parse_rename_spec(spec: str, p: Presentation) -> dict[Generator, Generator]:
    if spec == "tensor-colors":
        mapping = {}
        for g in p.generators:
            left_atom, _, right_atom = g.name.partition("~")
            if not right_atom or "#" not in left_atom:
                raise CommandError(
                    f"generator {g.serialized()} is not a colored tensor; "
                    "cannot apply the tensor-colors map"
                )
            color = left_atom.rpartition("#")[2]
            dual = right_atom.endswith("*")
            base = right_atom[:-1] if dual else right_atom
            name, inner_color, inner_dual = split_generator_token(base)
            if inner_color is not None:
                raise CommandError(f"tensor factor {right_atom} already colored")
            mapping[g] = Generator(name, g.arity, color, dual or inner_dual or g.dualized)
        return mapping
    by_token = {g.serialized(): g for g in p.generators}
    mapping = {}
    for pair in spec.split(","):
        old, sep, new = pair.partition("=")
        if not sep:
            raise CommandError(f"bad rename pair {pair!r}; expected old=new")
        old, new = old.strip(), new.strip()
        if old not in by_token:
            raise CommandError(f"unknown generator {old!r} in rename map")
        g = by_token[old]
        if g in mapping:
            raise CommandError(f"generator {old!r} renamed twice in rename map")
        name, color, dual = split_generator_token(new)
        mapping[g] = Generator(name, g.arity, color, dual)
    for g in p.generators:
        mapping.setdefault(g, g)
    return mapping


def cmd_check_iso(args) -> int:
    a = _read_presentation(args.a)
    b = _read_presentation(args.b)
    if args.map:
        # Every image keeps its source's arity; it must also be injective.
        mapping = _parse_rename_spec(args.map, a)
        if len(set(mapping.values())) != len(mapping):
            raise CommandError("rename map is not injective on the generator list")
        a = rename_generators(a, mapping)
    if set(a.generators) != set(b.generators):
        raise CommandError(
            "generator sets differ after renaming; supply --map to identify them"
        )
    equal = True
    for c in span_components(a, b):
        equal &= c.equal
        if not args.quiet:
            ambient = basis_dimension(a.generators, c.arity, c.weight)
            print(
                f"component (arity {c.arity}, weight {c.weight}): "
                f"dims {c.left_rank} vs {c.right_rank} of ambient {ambient} -> "
                f"{'equal' if c.equal else 'DIFFER'}"
            )
    print("span-equal" if equal else "span mismatch")
    return 0 if equal else 1


# The most trees ``basis`` lists; a larger basis is refused before any tree
# is built, since listing it would outlast any user.
BASIS_BUDGET = 100_000


def cmd_basis(args) -> int:
    p = _read_presentation(args.input)
    if args.arity < 1:
        raise CommandError(f"--arity {args.arity}: arity must be >= 1")
    if args.weight < 0:
        raise CommandError(f"--weight {args.weight}: weight must be >= 0")
    size = basis_dimension(p.generators, args.arity, args.weight)
    if size > BASIS_BUDGET:
        raise CommandError(
            f"--arity {args.arity} --weight {args.weight}: the basis has {size} trees, "
            f"above the budget of {BASIS_BUDGET}"
        )
    component = enumerate_basis(p.generators, args.arity, args.weight)
    lines = [tree_text(t) for t in component.basis]
    _emit("\n".join(lines) + ("\n" if lines else ""), args.output)
    if not args.quiet:
        print(f"# dimension {component.dimension}", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# the verification harness


@dataclass(frozen=True)
class Claim:
    key: str
    description: str
    runner: Callable[[argparse.Namespace], Iterator[tuple[str, bool, str]]]
    options: tuple[str, ...] = ()  # the verify options the runner reads


# The options of ``verify`` that only some claims read, and those of the
# claims that check a grid of color counts.
_CLAIM_OPTIONS = ("omega", "delta", "output")
_OMEGA = ("omega",)


def _quadratic_grid():
    return [
        ("as", builtin("as")),
        ("multi_diff(1)", builtin("multi_diff", 1)),
        ("multi_diff(2)", builtin("multi_diff", 2)),
        ("d1d2", builtin("d1d2")),
    ]


def _count_at_least_one(what: str) -> Callable[[str], int]:
    """An argparse type for a count of at least 1, refused as ``not <what> >= 1``."""

    def parse(spec: str) -> int:
        if not spec.isdigit() or int(spec) < 1:
            raise argparse.ArgumentTypeError(f"not {what} >= 1: {spec!r}")
        return int(spec)

    return parse


_color_count = _count_at_least_one("a color count")
_operator_count = _count_at_least_one("an operator count")


def _omega_sizes(args) -> list[int]:
    if getattr(args, "omega", None):
        return [args.omega]
    return [2, 3]


def _grid_claim(grid, check, detail):
    """A claim checking ``check(p, colors)`` on every grid entry and color count.

    ``check`` looks its functions up when called, so a tracer that rebinds
    module attributes sees the calls of every claim.
    """

    def run(args):
        for label, p in grid():
            for n in _omega_sizes(args):
                yield f"{label} |colors|={n}", check(p, ColorSet.of(n)), detail

    return run


def _claim_thm_dul(args):
    for label, p in _quadratic_grid():
        for n in _omega_sizes(args):
            ok1 = check_dual_identity("linear", p, ColorSet.of(n))
            yield f"{label} |colors|={n} dual(lin)==tot(dual)", ok1, ""
            ok2 = check_dual_identity("total", p, ColorSet.of(n))
            yield f"{label} |colors|={n} dual(tot)==lin(dual)", ok2, ""


def _manin_grid():
    return [("as", builtin("as")), ("dend", builtin("dend"))]


def _product_claim(kind, products, detail):
    """A claim that kind(as) times a factor, renamed, spans kind of the factor."""

    def run(args):
        build = {"lin": build_lin, "mat": build_mat, "tot": build_tot}[kind]
        multiply = {"black": black_square, "white": white_square}
        for n in _omega_sizes(args):
            omega = ColorSet.of(n)
            left = build(builtin("as"), omega)
            for label, q in _manin_grid():
                target = build(q, omega)
                rename = colorize_tensor_map(left.binary, q.binary)
                for product in products:
                    square = rename_generators(multiply[product](left, q), rename)
                    ok = presentation_span_equal(square, target)
                    yield f"{kind}(as) {product} {label}, |colors|={n}", ok, detail

    return run


def _claim_cor_undual(args):
    two = ColorSet.of(2)
    yield "d1d2 self-dual", is_self_dual(builtin("d1d2")), ""
    yield "mat(d1d2, 2 colors) self-dual", is_self_dual(build_mat(builtin("d1d2"), two)), ""
    yield "mat(as, 2 colors) self-dual", is_self_dual(build_mat(builtin("as"), two)), ""


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


def _claim_prop_kdualdda(args):
    sizes = [1, 2, 3] if args.delta is None else [args.delta]
    for n in sizes:
        dual = koszul_dual(builtin("multi_diff", n))
        report = list(span_components(dual, expected_multi_diff_dual(n)))
        dims = {c.arity: c.left_rank for c in report}
        want = (n * (n + 1) // 2, 2 * n, 1)
        got = tuple(dims.get(arity, 0) for arity in (1, 2, 3))
        yield f"|operators|={n} dims {got}", got == want, f"expected {want}"
        ok = all(c.equal for c in report)
        yield f"|operators|={n} span vs transcribed families", ok, ""


def _golden_claim(kind, key, golden_name, verbs):
    """A claim comparing kind(key) at 2 colors with a golden relation set."""

    def run(args):
        build = {"lin": build_lin, "mat": build_mat, "tot": build_tot}[kind]
        built = build(builtin(key), ColorSet.of(2))
        golden = load_golden(golden_name)
        for verb in verbs:
            test = presentation_span_contains if verb == "contains" else presentation_span_equal
            yield f"{kind}({key}, 2 colors) {verb} golden file", test(built, golden), ""

    return run


def white_readings_report() -> list[str]:
    """The archived comparison of the two white-product readings."""
    lines = [
        "# White product: literal reading vs dual route",
        "",
        "The literal one-relation-per-source-relation reading of the white",
        "product and the dual route dual(black(dual, dual)) are compared by",
        "exact span on the grid below.  The dual route is the one used by",
        "every verified isomorphism; the literal reading differs already for",
        "the associative operad against itself.",
        "",
    ]
    for n in (2, 3):
        omega = ColorSet.of(n)
        mat_as = build_mat(builtin("as"), omega)
        for label, q in _manin_grid():
            comparison = compare_white_readings(mat_as, q)
            lines.extend(comparison.lines())
    for left_label, right_label in [("as", "as"), ("dend", "as")]:
        comparison = compare_white_readings(builtin(left_label), builtin(right_label))
        lines.extend(comparison.lines())
    return lines


def _claim_white_report(args):
    lines = white_readings_report()
    output = getattr(args, "output", None)
    _emit("\n".join(lines) + "\n", output)
    yield "white-product comparison report emitted", True, output or "stdout"


CLAIMS: dict[str, Claim] = {
    c.key: c
    for c in [
        Claim("thm-comp", "formal-expansion span equals the linear-construction span",
              _grid_claim(default_grid, lambda p, omega: verify_lin_encoding(p, omega),
                          "expansion span == linear span"), _OMEGA),
        Claim("thm-mdul", "dual of matching equals matching of dual",
              _grid_claim(_quadratic_grid, lambda p, omega: check_dual_identity("matching", p, omega),
                          "dual(mat) == mat(dual)"), _OMEGA),
        Claim("thm-dul", "dual of linear/total equals total/linear of dual", _claim_thm_dul, _OMEGA),
        Claim("prop-maninbl", "black product with the replicated associative operad gives the linear construction",
              _product_claim("lin", ("black",), "== lin of the factor"), _OMEGA),
        Claim("prop-maninbll", "black and white products with the matching associative operad give the matching construction",
              _product_claim("mat", ("black", "white"), ""), _OMEGA),
        Claim("cor-totalwhite", "white product with the totally compatible associative operad gives the total construction",
              _product_claim("tot", ("white",), "== tot of the factor"), _OMEGA),
        Claim("cor-undual", "the two-operator presentation and its matching constructions are self-dual", _claim_cor_undual),
        Claim("prop-kdualdda", "dual of n commuting derivations: dimensions and relation families",
              _claim_prop_kdualdda, ("delta",)),
        Claim("prop-matlin", "linear relations lie inside the matching span",
              _grid_claim(default_grid, lambda p, omega: presentation_span_contains(
                  build_mat(p, omega), build_lin(p, omega)), "lin span inside mat span"), _OMEGA),
        Claim("prop-totmat", "matching relations lie inside the total span",
              _grid_claim(default_grid, lambda p, omega: presentation_span_contains(
                  build_tot(p, omega), build_mat(p, omega)), "mat span inside tot span"), _OMEGA),
        Claim("ex-rbcom", "linearly compatible Rota-Baxter relations match the golden file",
              _golden_claim("lin", "rba0", "golden_rbcom", ("vs",))),
        Claim("ex-rbmat-dend", "matching dendriform relations match the golden file",
              _golden_claim("mat", "dend", "golden_rbmat_dend", ("vs",))),
        Claim("ex-rbtot", "totally compatible Rota-Baxter relations match the golden file",
              _golden_claim("tot", "rba0", "golden_rbtot", ("contains", "equals"))),
        Claim("white-report", "emit the literal-vs-dual white product comparison",
              _claim_white_report, ("output",)),
    ]
}


def run_claim(key: str, args=None) -> list[tuple[str, bool, str]]:
    if args is None:
        args = argparse.Namespace(omega=None, delta=None, output=None)
    return list(CLAIMS[key].runner(args))


def cmd_verify(args) -> int:
    if args.claim not in CLAIMS:
        raise CommandError(
            f"unknown claim {args.claim!r}; see 'list-claims' for the registry"
        )
    claim = CLAIMS[args.claim]
    for option in _CLAIM_OPTIONS:
        if getattr(args, option) is not None and option not in claim.options:
            raise CommandError(f"claim {claim.key} does not take --{option}")
    all_ok = True
    for label, ok, detail in claim.runner(args):
        all_ok &= ok
        if ok and args.quiet:
            continue
        suffix = f"  ({detail})" if detail and not ok else ""
        print(f"{'PASS' if ok else 'FAIL'}  {args.claim}: {label}{suffix}")
    return 0 if all_ok else 1


def cmd_list_claims(args) -> int:
    for key in sorted(CLAIMS):
        print(f"{key:16} {CLAIMS[key].description}")
    return 0


# ---------------------------------------------------------------------------


def _add_presentation_output(sub) -> None:
    """The options of a subcommand that writes a presentation."""
    sub.add_argument("--format", choices=("dsl", "json"), default="dsl")
    sub.add_argument("--output", metavar="PATH")


@functools.cache
def _arg_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared by every later
    call in the process, so nothing may modify it after it is built."""
    top = argparse.ArgumentParser(
        prog="opdkit",
        description="workbench for finitely presented unary-binary operads",
    )
    subs = top.add_subparsers(dest="command", required=True)

    build = subs.add_parser("build", help="construct a compatible operad")
    build.add_argument("kind", choices=("lin", "mat", "tot"))
    build.add_argument("input")
    build.add_argument("--omega", required=True, help="color count or comma list of labels")
    _add_presentation_output(build)
    build.set_defaults(func=cmd_build)

    dual = subs.add_parser("dual", help="Koszul dual of a quadratic presentation")
    dual.add_argument("input")
    _add_presentation_output(dual)
    dual.set_defaults(func=cmd_dual)

    product = subs.add_parser("product", help="Manin square products")
    product.add_argument("kind", choices=("black", "white-literal", "white-dual"))
    product.add_argument("left")
    product.add_argument("right")
    _add_presentation_output(product)
    product.set_defaults(func=cmd_product)

    check = subs.add_parser("check-iso", help="componentwise span comparison")
    check.add_argument("a")
    check.add_argument("b")
    check.add_argument("--map", help="'tensor-colors' or comma list old=new")
    check.add_argument("--quiet", action="store_true", help="print only the verdict")
    check.set_defaults(func=cmd_check_iso)

    basis = subs.add_parser("basis", help="dump a graded tree basis")
    basis.add_argument("input")
    basis.add_argument("--arity", type=int, required=True)
    basis.add_argument("--weight", type=int, required=True)
    basis.add_argument("--output", metavar="PATH")
    basis.add_argument("--quiet", action="store_true", help="omit the dimension line on stderr")
    basis.set_defaults(func=cmd_basis)

    verify = subs.add_parser("verify", help="run a verification claim")
    verify.add_argument("claim")
    verify.add_argument("--omega", type=_color_count, help="restrict to one color count")
    verify.add_argument("--delta", type=_operator_count, help="operator count for prop-kdualdda")
    verify.add_argument("--output", metavar="PATH", help="where white-report writes its report")
    verify.add_argument("--quiet", action="store_true", help="print only failing checks")
    verify.set_defaults(func=cmd_verify)

    claims = subs.add_parser("list-claims", help="list the claim registry")
    claims.set_defaults(func=cmd_list_claims)

    return top


def main(argv=None) -> int:
    args = _arg_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, CommandError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
