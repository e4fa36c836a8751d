"""Exit-code contract and output determinism of the command-line surface."""

import json
from pathlib import Path

import pytest

from opdkit.cli import CLAIMS, main
from opdkit.parser import parse_presentation

ROOT = Path(__file__).resolve().parent.parent
PRES = ROOT / "presentations"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_build_mat_as(capsys, tmp_path):
    out_path = tmp_path / "mat_as.opd"
    code, out, _ = run(capsys, "build", "mat", str(PRES / "as.opd"), "--omega", "2",
                       "--output", str(out_path))
    assert code == 0
    text = out_path.read_text()
    assert text.count("relation") == 4
    # deterministic: a second run produces identical bytes
    code, _, _ = run(capsys, "build", "mat", str(PRES / "as.opd"), "--omega", "2",
                     "--output", str(out_path))
    assert out_path.read_text() == text


def test_build_with_label_list(capsys):
    code, out, _ = run(capsys, "build", "tot", str(PRES / "as.opd"), "--omega", "a,b")
    assert code == 0
    assert "m#a" in out and "m#b" in out


def test_build_rejects_color_labels_the_dsl_cannot_read(capsys):
    for spec, label in (("a b,c", "'a b'"), ("x(1),y", "'x(1)'"), ("a,-", "'-'")):
        code, out, err = run(capsys, "build", "mat", str(PRES / "as.opd"), f"--omega={spec}")
        assert code == 2 and out == "", spec
        assert err.startswith("error: color label") and label in err, spec
    code, out, _ = run(capsys, "build", "mat", str(PRES / "as.opd"), "--omega", "a_1,B2")
    assert code == 0
    assert {g.color for g in parse_presentation(out).binary} == {"a_1", "B2"}


def test_build_json_format(capsys):
    code, out, _ = run(capsys, "build", "lin", str(PRES / "rba0.opd"),
                       "--omega", "2", "--format", "json")
    assert code == 0
    document = json.loads(out)
    assert document["unary"] == ["P#1", "P#2"]


def test_build_rejects_bad_input(capsys, tmp_path):
    bad = tmp_path / "bad.opd"
    bad.write_text("operad x\nbinary m\nrelation r: m@1(x2,x1)\n")
    code, _, err = run(capsys, "build", "mat", str(bad), "--omega", "2")
    assert code == 2
    assert "leaf-order violation" in err


def test_build_missing_file(capsys):
    code, _, err = run(capsys, "build", "mat", "no_such_file.opd", "--omega", "2")
    assert code == 2
    assert "cannot read" in err


def test_dual_quadratic_and_cubic(capsys):
    code, out, _ = run(capsys, "dual", str(PRES / "multi_diff_2.opd"))
    assert code == 0 and "d1^*" in out and "m^*" in out
    code, _, err = run(capsys, "dual", str(PRES / "hom_as.opd"))
    assert code == 2
    assert "non-quadratic" in err


def test_product_and_check_iso_pipeline(capsys, tmp_path):
    lin_as = tmp_path / "lin_as.opd"
    lin_dend = tmp_path / "lin_dend.opd"
    product = tmp_path / "product.opd"
    assert run(capsys, "build", "lin", str(PRES / "as.opd"), "--omega", "2",
               "--output", str(lin_as))[0] == 0
    assert run(capsys, "build", "lin", str(PRES / "dend.opd"), "--omega", "2",
               "--output", str(lin_dend))[0] == 0
    assert run(capsys, "product", "black", str(lin_as), str(PRES / "dend.opd"),
               "--output", str(product))[0] == 0
    code, out, _ = run(capsys, "check-iso", str(product), str(lin_dend),
                       "--map", "tensor-colors")
    assert code == 0
    assert out.splitlines() == [
        "component (arity 3, weight 2): dims 9 vs 9 of ambient 32 -> equal",
        "span-equal",
    ]


def test_product_precondition_error(capsys):
    code, _, err = run(capsys, "product", "black", str(PRES / "rba0.opd"),
                       str(PRES / "as.opd"))
    assert code == 2
    assert "unary" in err


def test_check_iso_mismatch_and_usage(capsys, tmp_path):
    mat_as = tmp_path / "mat_as.opd"
    tot_as = tmp_path / "tot_as.opd"
    run(capsys, "build", "mat", str(PRES / "as.opd"), "--omega", "2",
        "--output", str(mat_as))
    run(capsys, "build", "tot", str(PRES / "as.opd"), "--omega", "2",
        "--output", str(tot_as))
    code, out, _ = run(capsys, "check-iso", str(mat_as), str(tot_as))
    assert code == 1
    assert out.splitlines() == [
        "component (arity 3, weight 2): dims 4 vs 5 of ambient 8 -> DIFFER",
        "span mismatch",
    ]
    code, _, err = run(capsys, "check-iso", str(PRES / "as.opd"), str(PRES / "dend.opd"))
    assert code == 2
    assert "generator sets differ" in err


@pytest.mark.parametrize("argv", [
    ["check-iso", str(PRES / "as.opd"), str(PRES / "as.opd"), "--format", "json"],
    ["check-iso", str(PRES / "as.opd"), str(PRES / "as.opd"), "--output", "out.opd"],
    ["build", "lin", str(PRES / "as.opd"), "--omega", "2", "--quiet"],
    ["verify", "ex-rbcom", "--format", "json"],
    ["list-claims", "--quiet"],
], ids=["check-iso --format", "check-iso --output", "build --quiet", "verify --format",
        "list-claims --quiet"])
def test_options_a_subcommand_ignores_are_refused(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_explicit_rename_map(capsys, tmp_path):
    renamed = tmp_path / "renamed.opd"
    renamed.write_text(
        "operad t\nbinary n\nrelation assoc: n@2(n@1(x1,x2),x3) - n@1(x1,n@2(x2,x3))\n"
    )
    code, out, _ = run(capsys, "check-iso", str(renamed), str(PRES / "as.opd"),
                       "--map", "n=m")
    assert code == 0


def test_basis_dump(capsys):
    code, out, _ = run(capsys, "basis", str(PRES / "rba0.opd"),
                       "--arity", "3", "--weight", "2")
    assert code == 0
    assert out.splitlines() == ["m(m(x1,x2),x3)", "m(x1,m(x2,x3))"]


def test_list_claims(capsys):
    code, out, _ = run(capsys, "list-claims")
    assert code == 0
    for key in ("thm-comp", "thm-mdul", "thm-dul", "prop-maninbl", "prop-maninbll",
                "cor-totalwhite", "cor-undual", "prop-kdualdda", "prop-matlin",
                "prop-totmat", "ex-rbcom", "ex-rbmat-dend", "ex-rbtot"):
        assert key in out


def test_verify_unknown_claim(capsys):
    code, _, err = run(capsys, "verify", "no-such-claim")
    assert code == 2
    assert "unknown claim" in err


def test_verify_passing_claim(capsys):
    code, out, _ = run(capsys, "verify", "ex-rbcom")
    assert code == 0
    assert out.startswith("PASS")


def test_verify_kdualdda_delta_flag(capsys):
    code, out, _ = run(capsys, "verify", "prop-kdualdda", "--delta", "3")
    assert code == 0
    assert "(6, 6, 1)" in out


def test_verify_quiet_suppresses_passes(capsys):
    code, out, _ = run(capsys, "verify", "ex-rbmat-dend", "--quiet")
    assert code == 0
    assert out == ""


def test_verify_thm_dul_reports_known_failures(capsys):
    # The instances once reported as failures (sparse supports) now pass.
    code, out, _ = run(capsys, "verify", "thm-dul", "--omega", "2")
    assert code == 0
    lines = out.splitlines()
    assert not any(line.startswith("FAIL") for line in lines)
    assert any(line.startswith("PASS") and "as " in line for line in lines)
    for label in ("multi_diff(1)", "d1d2"):
        for direction in ("dual(lin)==tot(dual)", "dual(tot)==lin(dual)"):
            assert any(
                line.startswith("PASS") and label in line and direction in line
                for line in lines
            ), (label, direction)


def test_white_report_matches_archived_copy(capsys, tmp_path):
    out_path = tmp_path / "report.md"
    code, _, _ = run(capsys, "verify", "white-report", "--output", str(out_path))
    assert code == 0
    archived = (ROOT / "reports" / "white_product_comparison.md").read_text()
    assert out_path.read_text() == archived


def test_verify_transcript_matches_archived_copy(capsys):
    # white-report is pinned by test_white_report_matches_archived_copy.
    parts = []
    for claim in sorted(CLAIMS):
        if claim == "white-report":
            continue
        code, out, _ = run(capsys, "verify", claim, "--omega", "2")
        parts.append(f"$ opdkit verify {claim} --omega 2  # exit {code}\n{out}")
    archived = (ROOT / "tests" / "golden" / "verify_omega2.txt").read_text()
    assert "".join(parts) == archived


def test_black_product_of_two_total_builds(capsys, tmp_path):
    paths = []
    for key in ("as", "dend"):
        path = tmp_path / f"tot_{key}.opd"
        code, _, _ = run(capsys, "build", "tot", str(PRES / f"{key}.opd"), "--omega", "2",
                         "--output", str(path))
        assert code == 0
        paths.append(str(path))
    code, out, err = run(capsys, "product", "black", *paths)
    assert (code, err) == (0, "")
    assert "relation assoc__T_0_1,2__x__dleft__T_0_1,2:" in out


@pytest.mark.parametrize("spec", ["a", "0"])
def test_verify_omega_must_be_a_color_count(capsys, spec):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "thm-comp", "--omega", spec])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --omega" in err and repr(spec) in err


@pytest.mark.parametrize("spec", ["0", "-1", "a"])
def test_verify_delta_must_be_an_operator_count(capsys, spec):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "prop-kdualdda", "--delta", spec])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --delta" in err and repr(spec) in err
