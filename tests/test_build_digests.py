"""Golden digests of the compatible builds.

For every ``default_grid()`` entry, every construction (lin, mat, tot) and
1-3 colors, the sha256 of the DSL and of the JSON serialization must match
``tests/golden/build_digests.json``.  A change meant to leave the builds
byte-identical (a speedup, a refactor) must pass this test unchanged.

To rewrite the file after an intended change of the output, run
``PYTHONPATH=src python tests/test_build_digests.py``.
"""

import hashlib
import json
from pathlib import Path

from opdkit.catalog import default_grid
from opdkit.compat import build_lin, build_mat, build_tot
from opdkit.parser import serialize

GOLDEN = Path(__file__).parent / "golden" / "build_digests.json"
BUILDERS = {"lin": build_lin, "mat": build_mat, "tot": build_tot}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def build_digests() -> dict[str, dict[str, str]]:
    """``"<entry>/<kind>/<colors>"`` -> sha256 of the DSL and of the JSON text."""
    out = {}
    for label, pres in default_grid():
        for kind, build in BUILDERS.items():
            for n in (1, 2, 3):
                built = build(pres, n)
                out[f"{label}/{kind}/{n}"] = {
                    "dsl": _sha256(serialize(built, "dsl")),
                    "json": _sha256(serialize(built, "json")),
                }
    return out


def test_builds_match_their_golden_digests():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = build_digests()
    assert sorted(got) == sorted(golden)
    changed = [key for key in golden if got[key] != golden[key]]
    assert not changed, f"builds differ from the golden digests: {changed}"


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(build_digests(), indent=2, sort_keys=True) + "\n", encoding="utf-8")
