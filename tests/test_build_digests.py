"""Golden digests of the compatible builds, the Koszul duals and the Manin products.

For every ``default_grid()`` entry, every construction (lin, mat, tot) and
1-3 colors, the sha256 of the DSL and of the JSON serialization must match
``tests/golden/build_digests.json``.  A change meant to leave the builds
byte-identical (a speedup, a refactor) must pass this test unchanged.

``tests/golden/dual_product_digests.json`` pins the same two digests of the
Koszul dual of every quadratic ``default_grid()`` entry and of its lin, mat
and tot at 1-3 colors, and of the black, white-dual and white-literal
products of every ordered pair over {as, dend}.

To rewrite the files after an intended change of the output, run
``PYTHONPATH=src python tests/test_build_digests.py``.
"""

import hashlib
import json
from pathlib import Path

from opdkit.catalog import builtin, default_grid
from opdkit.compat import build_lin, build_mat, build_tot
from opdkit.duality import koszul_dual
from opdkit.manin import black_square, white_square
from opdkit.parser import serialize

GOLDEN = Path(__file__).parent / "golden" / "build_digests.json"
DUAL_PRODUCT_GOLDEN = Path(__file__).parent / "golden" / "dual_product_digests.json"
BUILDERS = {"lin": build_lin, "mat": build_mat, "tot": build_tot}
PRODUCTS = {
    "black": black_square,
    "white-dual": lambda p, q: white_square(p, q, "white_dual"),
    "white-literal": lambda p, q: white_square(p, q, "white_literal"),
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _digests(p) -> dict[str, str]:
    """The sha256 of ``p``'s DSL and of its JSON text."""
    return {"dsl": _sha256(serialize(p, "dsl")), "json": _sha256(serialize(p, "json"))}


def build_digests() -> dict[str, dict[str, str]]:
    """``"<entry>/<kind>/<colors>"`` -> sha256 of the DSL and of the JSON text."""
    out = {}
    for label, pres in default_grid():
        for kind, build in BUILDERS.items():
            for n in (1, 2, 3):
                out[f"{label}/{kind}/{n}"] = _digests(build(pres, n))
    return out


def dual_product_digests() -> dict[str, dict[str, str]]:
    """``"dual/<entry>"``, ``"dual/<entry>/<kind>/<colors>"`` and
    ``"<product>/<left>/<right>"`` -> sha256 of the DSL and of the JSON text."""
    out = {}
    for label, pres in default_grid():
        if not pres.is_quadratic:
            continue
        out[f"dual/{label}"] = _digests(koszul_dual(pres))
        for kind, build in BUILDERS.items():
            for n in (1, 2, 3):
                out[f"dual/{label}/{kind}/{n}"] = _digests(koszul_dual(build(pres, n)))
    for kind, product in PRODUCTS.items():
        for left in ("as", "dend"):
            for right in ("as", "dend"):
                out[f"{kind}/{left}/{right}"] = _digests(product(builtin(left), builtin(right)))
    return out


def _assert_golden(path: Path, got: dict[str, dict[str, str]], what: str) -> None:
    golden = json.loads(path.read_text(encoding="utf-8"))
    assert sorted(got) == sorted(golden)
    changed = [key for key in golden if got[key] != golden[key]]
    assert not changed, f"{what} differ from the golden digests: {changed}"


def test_builds_match_their_golden_digests():
    _assert_golden(GOLDEN, build_digests(), "builds")


def test_duals_and_products_match_their_golden_digests():
    _assert_golden(DUAL_PRODUCT_GOLDEN, dual_product_digests(), "duals and products")


if __name__ == "__main__":
    for path, digests in ((GOLDEN, build_digests), (DUAL_PRODUCT_GOLDEN, dual_product_digests)):
        path.write_text(json.dumps(digests(), indent=2, sort_keys=True) + "\n", encoding="utf-8")
