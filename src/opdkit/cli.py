"""Command-line surface: build, dualize, multiply, compare, verify.

Exit codes are uniform across subcommands: 0 success (or all checks
verified), 1 a span/identity check failed, 2 usage, parse, validation, or
precondition errors.  Only ``ParseError`` and ``CommandError`` (defined in
``claims``, whose ``verify`` refusals raise it too) become exit 2; any other
exception is a bug in opdkit and propagates.  Output is deterministic for
identical inputs.  Refusals of bad input come from the library's
``*_problem`` functions, asked about the parsed inputs before any
computation; this module states only the rules of its own text (argument
splitting, ``--map`` pairs, files, ``BASIS_BUDGET`` and ``BUILD_BUDGET``).

The argument parser is built on the first call of ``main`` and reused for
the rest of the process: ``parse_args`` keeps no state on the parser.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path
from typing import Optional

from .claims import CLAIMS, CommandError, run_claim
from .compat import KINDS, build_compatible, relation_count
from .duality import dual_problem, koszul_dual
from .manin import black_square, product_problem, tensor_colors, tensor_colors_problem, white_square
from .parser import ParseError, parse_presentation, serialize
from .presentation import (
    ColorSet,
    Presentation,
    generator_text_problem,
    rename_generators,
    rename_problem,
    replicate_problem,
)
from .spans import equal, shared_generators_problem, span_components
from .trees import (Generator, basis_dimension, color_label_problem, enumerate_basis, grading_problem,
                    split_generator_token, tree_text)

__all__ = ["main"]


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


def _emit(text: str, output: Optional[str]) -> None:
    """Write ``text`` to the file ``output``, or to stdout if there is none."""
    if not output:
        sys.stdout.write(text)
        return
    try:
        Path(output).write_text(text)
    except OSError as exc:
        raise CommandError(f"cannot write {output}: {exc}") from exc


def _refuse(problem: Optional[str], prefix: str = "") -> None:
    """Exit 2 with ``problem``, a library ``*_problem`` answer, unless it is ``None``."""
    if problem:
        raise CommandError(prefix + problem)


def _omega(spec: str) -> int | list[str]:
    """What ``--omega`` gives ``ColorSet.of``: a count, or labels each checked."""
    if spec.isascii() and spec.isdigit():
        return int(spec)
    labels = [label.strip() for label in spec.split(",") if label.strip()]
    for label in labels:
        _refuse(color_label_problem(label))
    return labels


# The most relations ``build`` makes; a larger construction is refused from
# its closed-form count before any color label is made.
BUILD_BUDGET = 100_000


# ---------------------------------------------------------------------------
# plain subcommands: each asks the library's *_problem checks about its inputs
# before it computes, so that a ValueError from the computation stays a bug


def cmd_build(args) -> int:
    p = _read_presentation(args.input)
    spec = _omega(args.omega)
    _refuse(replicate_problem(p))
    kind = KINDS[args.kind]
    size = relation_count(kind, p, spec if isinstance(spec, int) else len(spec))
    if size > BUILD_BUDGET:
        raise CommandError(
            f"--omega {args.omega}: {args.kind} of {p.name} has {size} relations, "
            f"above the budget of {BUILD_BUDGET}"
        )
    try:
        omega = ColorSet.of(spec)
    except ValueError as exc:
        raise CommandError(f"--omega {args.omega!r}: {exc}") from None
    _emit(serialize(build_compatible(kind, p, omega), args.format), args.output)
    return 0


def cmd_dual(args) -> int:
    p = _read_presentation(args.input)
    _refuse(dual_problem(p))
    _emit(serialize(koszul_dual(p), args.format), args.output)
    return 0


def cmd_product(args) -> int:
    left = _read_presentation(args.left)
    right = _read_presentation(args.right)
    kind = args.kind.replace("-", "_")
    _refuse(product_problem(left, right, kind))
    product = black_square(left, right) if kind == "black" else white_square(left, right, kind)
    _emit(serialize(product, args.format), args.output)
    return 0


def _parse_rename_spec(spec: str, p: Presentation) -> dict[Generator, Generator]:
    if spec == "tensor-colors":
        _refuse(tensor_colors_problem(p.generators))
        return tensor_colors(p.generators)
    by_token = {g.text: g for g in p.generators}
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
        _refuse(generator_text_problem(mapping[g]), f"bad rename pair {pair!r}: ")
    for g in p.generators:
        mapping.setdefault(g, g)
    return mapping


def cmd_check_iso(args) -> int:
    a = _read_presentation(args.a)
    b = _read_presentation(args.b)
    if args.map:
        mapping = _parse_rename_spec(args.map, a)
        _refuse(rename_problem(a, mapping))
        a = rename_generators(a, mapping)
    unshared = shared_generators_problem(a, b)
    if unshared:
        raise CommandError(f"generator sets differ after renaming ({unshared}); supply --map")
    report = list(span_components(a, b))
    if not args.quiet:
        for c in report:
            ambient = basis_dimension(a.generators, c.arity, c.weight)
            print(
                f"component (arity {c.arity}, weight {c.weight}): "
                f"dims {c.left_rank} vs {c.right_rank} of ambient {ambient} -> "
                f"{'equal' if c.equal else 'DIFFER'}"
            )
    holds = equal(report)
    print("span-equal" if holds else "span mismatch")
    return 0 if holds else 1


# The most trees ``basis`` lists; a larger basis is refused before any tree
# is built, since listing it would outlast any user.
BASIS_BUDGET = 100_000


def cmd_basis(args) -> int:
    p = _read_presentation(args.input)
    problem = grading_problem(args.arity, args.weight)
    if problem:
        option = problem.partition(" ")[0]  # the coordinate at fault
        raise CommandError(f"--{option} {getattr(args, option)}: {problem}")
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
# the verification harness: the claims and their evaluator live in claims.py


def _count(spec: str) -> int:
    """The argparse type of ``verify --omega`` and ``--delta``: a count of at least 1."""
    if not (spec.isascii() and spec.isdigit()) or int(spec) < 1:
        raise argparse.ArgumentTypeError(f"not a count >= 1: {spec!r}")
    return int(spec)


def cmd_verify(args) -> int:
    options = {o: getattr(args, o) for o in ("omega", "delta") if getattr(args, o) is not None}
    all_ok = True
    for label, ok, _ in run_claim(args.claim, **options):
        all_ok &= ok
        if not (ok and args.quiet):
            print(f"{'PASS' if ok else 'FAIL'}  {args.claim}: {label}")
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
    build.add_argument("kind", choices=tuple(KINDS))
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
    verify.add_argument("--omega", type=_count, help="restrict to one color count")
    verify.add_argument("--delta", type=_count, help="operator count for prop-kdualdda")
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
