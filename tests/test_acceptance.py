"""Acceptance gate: one test per criterion, exact spans throughout.

Every check is exact rational arithmetic, so the tolerance everywhere is
strict equality of spans and dimensions.  Each test prints one PASS/FAIL
line (run with ``pytest -s`` to see them on success).

Criterion 5 holds because, for a quadratic presentation, the total
construction swaps colors on every weight-2 tree, including trees that lie
in no relation's support (one derivation: d1(d1(x1))).  Swapping only on
support trees made the dual of the total construction strictly larger than
the linear construction of the dual (one derivation, two colors: arity-1
dimensions 4 vs 3).
"""

import random
from pathlib import Path

from opdkit.catalog import builtin, default_grid
from opdkit.claims import expected_multi_diff_dual, load_golden, run_claim
from opdkit.compat import build_compatible, build_lin, build_mat, build_tot, verify_lin_encoding
from opdkit.duality import check_dual_identity, is_self_dual, koszul_dual
from opdkit.linalg import (
    DiagonalForm,
    RationalMatrix,
    nullspace,
    orthogonal_complement,
    rank,
    span_equal,
)
from opdkit.manin import black_square, colorize_tensor_map, white_square
from opdkit.parser import ParseError, parse_presentation, serialize
from opdkit.presentation import (
    ColorSet,
    component_matrix,
    presentation_span_contains,
    presentation_span_equal,
    rename_generators,
)
from opdkit.trees import Generator, basis_dimension, corolla, enumerate_basis, graft, leaf

ROOT = Path(__file__).resolve().parent.parent
TWO = ColorSet.of(2)
THREE = ColorSet.of(3)
QUADRATIC_GRID = [
    ("as", builtin("as")),
    ("multi_diff(1)", builtin("multi_diff", 1)),
    ("multi_diff(2)", builtin("multi_diff", 2)),
    ("d1d2", builtin("d1d2")),
]


def _report(criterion: str, ok: bool, detail: str = "") -> None:
    print(f"{'PASS' if ok else 'FAIL'}: {criterion}" + (f" [{detail}]" if detail else ""))
    assert ok, f"{criterion} {detail}"


def test_criterion_01_dual_of_commuting_derivations():
    ok = True
    details = []
    for n in (1, 2, 3):
        dual = koszul_dual(builtin("multi_diff", n))
        dims = tuple(
            rank(component_matrix(dual.generators, dual.relations, arity, 2)[1])
            for arity in (1, 2, 3)
        )
        want = (n * (n + 1) // 2, 2 * n, 1)
        spans = presentation_span_equal(dual, expected_multi_diff_dual(n))
        ok &= dims == want and spans
        details.append(f"n={n} dims={dims}")
    _report("criterion 1: dual of n commuting derivations", ok, "; ".join(details))


def test_criterion_02_linear_encoding_identity():
    failures = [
        f"{label}/{n}"
        for label, pres in default_grid()
        for n in (2, 3)
        if not verify_lin_encoding(pres, ColorSet.of(n))
    ]
    _report(
        "criterion 2: expansion span equals linear span on the full grid",
        not failures,
        ", ".join(failures),
    )


def test_criterion_03_linearly_compatible_rota_baxter_golden():
    built = build_lin(builtin("rba0"), TWO)
    ok = presentation_span_equal(built, load_golden("golden_rbcom"))
    _report("criterion 3: linear Rota-Baxter relations match the golden file", ok)


def test_criterion_04_matching_duality():
    failures = [
        f"{label}/{n}"
        for label, pres in QUADRATIC_GRID
        for n in (2, 3)
        if not check_dual_identity("matching", pres, ColorSet.of(n))
    ]
    _report("criterion 4: dual(matching) == matching(dual)", not failures, ", ".join(failures))


def test_criterion_05_linear_total_duality():
    failures = []
    for label, pres in QUADRATIC_GRID:
        for n in (2, 3):
            omega = ColorSet.of(n)
            if not check_dual_identity("linear", pres, omega):
                failures.append(f"dual(lin)!=tot(dual) for {label}/{n}")
            if not check_dual_identity("total", pres, omega):
                failures.append(f"dual(tot)!=lin(dual) for {label}/{n}")
    _report(
        "criterion 5: dual(linear) == total(dual) and dual(total) == linear(dual)",
        not failures,
        "total must swap colors on every weight-2 tree, not only support trees: "
        + ", ".join(failures),
    )


def test_criterion_06_black_product_gives_linear():
    ok = True
    for n in (2, 3):
        omega = ColorSet.of(n)
        lin_as = build_lin(builtin("as"), omega)
        for key in ("as", "dend"):
            q = builtin(key)
            renamed = rename_generators(
                black_square(lin_as, q), colorize_tensor_map(lin_as.binary, q.binary)
            )
            ok &= presentation_span_equal(renamed, build_lin(q, omega))
    _report("criterion 6: black product with replicated assoc gives linear", ok)


def test_criterion_07_matching_products():
    ok = True
    for n in (2, 3):
        omega = ColorSet.of(n)
        mat_as = build_mat(builtin("as"), omega)
        for key in ("as", "dend"):
            q = builtin(key)
            target = build_mat(q, omega)
            rename = colorize_tensor_map(mat_as.binary, q.binary)
            ok &= presentation_span_equal(
                rename_generators(black_square(mat_as, q), rename), target
            )
            ok &= presentation_span_equal(
                rename_generators(white_square(mat_as, q, "white_dual"), rename), target
            )
    _report("criterion 7: matching products (black and white) give matching", ok)


def test_criterion_08_total_white_product():
    ok = True
    tot_as = build_tot(builtin("as"), TWO)
    for key in ("as", "dend"):
        q = builtin(key)
        renamed = rename_generators(
            white_square(tot_as, q, "white_dual"),
            colorize_tensor_map(tot_as.binary, q.binary),
        )
        ok &= presentation_span_equal(renamed, build_tot(q, TWO))
    _report("criterion 8: white product with total assoc gives total", ok)


def test_criterion_09_self_duality():
    checks = {
        "d1d2": is_self_dual(builtin("d1d2")),
        "mat(d1d2,2)": is_self_dual(build_mat(builtin("d1d2"), TWO)),
        "mat(as,2)": is_self_dual(build_mat(builtin("as"), TWO)),
    }
    _report(
        "criterion 9: self-duality of d1d2 and the matching constructions",
        all(checks.values()),
        ", ".join(k for k, v in checks.items() if not v),
    )


def test_criterion_10_epimorphism_chain():
    failures = []
    for label, pres in default_grid():
        for n in (2, 3):
            omega = ColorSet.of(n)
            lin = build_lin(pres, omega)
            mat = build_mat(pres, omega)
            tot = build_tot(pres, omega)
            if not presentation_span_contains(mat, lin):
                failures.append(f"lin !<= mat for {label}/{n}")
            if not presentation_span_contains(tot, mat):
                failures.append(f"mat !<= tot for {label}/{n}")
    _report("criterion 10: linear <= matching <= total spans", not failures, ", ".join(failures))


def test_criterion_11_singleton_collapse():
    one = ColorSet.of(1)
    failures = []
    for label, pres in default_grid():
        for kind in ("linear", "matching", "total"):
            built = build_compatible(kind, pres, one)
            back = rename_generators(built, {g: g.uncolored() for g in built.generators})
            if not presentation_span_equal(back, pres):
                failures.append(f"{kind}({label})")
    _report("criterion 11: one-color collapse onto the base presentation", not failures, ", ".join(failures))


def _criterion_12_rank_nullity() -> bool:
    rng = random.Random(99)
    for rows, cols in [(5, 8), (17, 11), (40, 40)]:
        m = RationalMatrix.from_rows(
            [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)], cols
        )
        if rank(m) + nullspace(m).nrows != cols:
            return False
    return True


def _criterion_12_double_complement() -> bool:
    rng = random.Random(100)
    for _ in range(20):
        cols = rng.randint(1, 7)
        m = RationalMatrix.from_rows(
            [[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rng.randint(1, 5))],
            cols,
        )
        form = DiagonalForm(tuple(rng.choice((1, -1)) for _ in range(cols)))
        if not span_equal(orthogonal_complement(orthogonal_complement(m, form), form), m):
            return False
    return True


def _criterion_12_graft_associativity() -> bool:
    rng = random.Random(101)
    gens = [Generator("P", 1), Generator("m", 2)]

    def grow(max_steps):
        tree = leaf()
        for _ in range(rng.randint(0, max_steps)):
            tree = graft(tree, rng.randint(1, tree.arity), corolla(rng.choice(gens)))
        return tree

    for _ in range(200):
        outer, mid, inner = grow(4), grow(4), grow(4)
        i = rng.randint(1, outer.arity)
        j = rng.randint(1, mid.arity)
        if graft(outer, i, graft(mid, j, inner)) != graft(graft(outer, i, mid), i + j - 1, inner):
            return False
    return True


def _criterion_12_parser_roundtrip() -> bool:
    # The catalog files are canonical; the golden files carry comments.
    catalog = [p for p in (ROOT / "src" / "opdkit" / "data").glob("*.opd")
               if not p.name.startswith("golden_")]
    if len(catalog) != 12:
        return False
    for path in sorted(catalog):
        text = path.read_text()
        if serialize(parse_presentation(text)) != text:
            return False
    malformed = sorted((ROOT / "tests" / "malformed").glob("*.opd"))
    if len(malformed) != 23:
        return False
    for path in malformed:
        text = path.read_text()
        try:
            parse_presentation(text)
            return False
        except ParseError as exc:
            line = text.split("\n")[exc.span.line - 1]
            if not (1 <= exc.span.column <= len(line) + 1):
                return False
    return True


def _criterion_12_basis_counts() -> bool:
    for t in (1, 2, 3):
        for s in (1, 2, 3):
            gens = [Generator(f"u{i}", 1) for i in range(t)] + [
                Generator(f"b{i}", 2) for i in range(s)
            ]
            expected = {
                (1, 2): t * t,
                (2, 2): 3 * t * s,
                (3, 2): 2 * s * s,
                (2, 3): 6 * t * t * s,
                (3, 3): 10 * t * s * s,
                (4, 3): 5 * s ** 3,
            }
            for (arity, weight), count in expected.items():
                if enumerate_basis(gens, arity, weight).dimension != count:
                    return False
                if basis_dimension(gens, arity, weight) != count:
                    return False
    return True


def test_criterion_12_property_suites():
    checks = {
        "rank-nullity": _criterion_12_rank_nullity(),
        "double-complement": _criterion_12_double_complement(),
        "graft-associativity": _criterion_12_graft_associativity(),
        "parser-roundtrip-and-rejections": _criterion_12_parser_roundtrip(),
        "basis-closed-forms": _criterion_12_basis_counts(),
    }
    _report(
        "criterion 12: property suites",
        all(checks.values()),
        ", ".join(k for k, v in checks.items() if not v),
    )


def test_claim_registry_matches_acceptance():
    # every claim the CLI exposes runs and is fully green
    failing = {}
    for key in ("thm-comp", "thm-mdul", "thm-dul", "prop-maninbl", "prop-maninbll",
                "cor-totalwhite", "cor-undual", "prop-kdualdda", "prop-matlin",
                "prop-totmat", "ex-rbcom", "ex-rbmat-dend", "ex-rbtot"):
        results = run_claim(key)
        bad = [label for label, ok, _ in results if not ok]
        if bad:
            failing[key] = bad
    _report("claim registry: every claim fully green", not failing, str(failing))
