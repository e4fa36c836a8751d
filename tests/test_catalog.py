"""Catalog entries: shapes, counts, the DSL files they are read from."""

from pathlib import Path

import pytest

from opdkit import catalog
from opdkit.catalog import builtin, catalog_keys, default_grid, entries
from opdkit.compat import build_lin, build_mat, build_tot
from opdkit.duality import koszul_dual
from opdkit.parser import parse_presentation, serialize
from opdkit.presentation import ColorSet, validate
from opdkit.spans import presentation_span_equal

DATA = Path(__file__).resolve().parent.parent / "src" / "opdkit" / "data"
TWO = ColorSet.of(2)


def test_keys():
    assert catalog_keys() == sorted(
        ["as", "dend", "diff", "multi_diff", "rba0", "nijenhuis", "hom_as",
         "cubic_as", "d1d2", "p_cubed"]
    )
    with pytest.raises(KeyError):
        builtin("nope")
    with pytest.raises(ValueError):
        builtin("multi_diff")
    with pytest.raises(ValueError):
        builtin("multi_diff", 0)
    with pytest.raises(ValueError):
        builtin("as", 3)


def test_every_entry_validates_with_provenance():
    for entry in entries():
        assert entry.provenance
    for label, pres in default_grid():
        assert validate(pres).ok, label


def test_rba0_shape():
    pres = builtin("rba0")
    assert len(pres.unary) == 1 and len(pres.binary) == 1
    rb = pres.relation("rb")
    assert rb.grading() == (2, 3) and len(rb.terms) == 3
    assert pres.relation("assoc").grading() == (3, 2)


def test_nijenhuis_shape():
    nij = builtin("nijenhuis").relation("nij")
    assert nij.grading() == (2, 3) and len(nij.terms) == 4
    # the extra term stacks the operator twice below the product
    from opdkit.trees import tree_text

    assert "P(P(m(x1,x2)))" in {tree_text(t.tree) for t in nij.terms}


def test_multi_diff_counts():
    pres = builtin("multi_diff", 2)
    assert len(pres.unary) == 2
    names = {r.name for r in pres.relations}
    assert names == {"comm_1_2", "leibniz_1", "leibniz_2", "assoc"}
    assert len([r for r in builtin("multi_diff", 3).relations if r.name.startswith("comm")]) == 3


def test_p_cubed_is_cubic_arity_one():
    rel = builtin("p_cubed").relation("ppp")
    assert rel.grading() == (1, 3)


def test_cubic_entries_flow_through_builders_but_not_dual():
    for key in ("hom_as", "cubic_as", "p_cubed", "rba0", "nijenhuis"):
        pres = builtin(key)
        assert not pres.is_quadratic
        with pytest.raises(ValueError):
            koszul_dual(pres)
        for build in (build_lin, build_mat, build_tot):
            assert validate(build(pres, TWO)).ok, (key, build.__name__)


def test_quadratic_entries_double_dual():
    for key, param in [("as", None), ("dend", None), ("diff", None),
                       ("multi_diff", 2), ("d1d2", None)]:
        pres = builtin(key, param) if param else builtin(key)
        assert presentation_span_equal(koszul_dual(koszul_dual(pres)), pres)


def test_shipped_files_byte_identical():
    # Every catalog file is canonical and reads back as its entry; the
    # multi_diff template prints exactly the shipped examples.
    for key in catalog_keys():
        if key == "multi_diff":
            for n in (1, 2, 3):
                text = (DATA / f"multi_diff_{n}.opd").read_text()
                assert catalog._multi_diff_text(n) == text
                assert serialize(builtin(key, n)) == text
        else:
            text = (DATA / f"{key}.opd").read_text()
            assert catalog.data_text(key) == text
            assert serialize(parse_presentation(text)) == text
            assert serialize(builtin(key)) == text


@pytest.mark.parametrize("text, message", [
    ("operad as\nbinary m\nrelation assoc: m@2(m@1(x1,x2),x3) - m@1(x1,m@2(x2,x3)\n",
     "catalog entry as does not parse"),
    ("operad as\nbinary m\nrelation assoc: m@1(x1,x2) - m@2(m@1(x1,x2),x3)\n",
     "catalog entry as failed validation"),
], ids=["unparsable", "invalid"])
def test_broken_catalog_text_is_an_internal_error(monkeypatch, text, message):
    # Neither a ParseError nor a CommandError: the cli would report those as
    # a user's error, and python -O strips an assert.
    monkeypatch.setattr(catalog, "data_text", lambda name: text)
    with pytest.raises(RuntimeError, match=message):
        builtin("as")
