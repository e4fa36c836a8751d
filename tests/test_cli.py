"""Exit-code contract and output determinism of the command-line surface."""

import collections
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from opdkit import cli, duality, manin
from opdkit.catalog import builtin, entries
from opdkit.claims import CLAIMS, Check, Claim, Pair
from opdkit.cli import main
from opdkit.compat import build_lin, build_mat, relation_count
from opdkit.duality import koszul_dual
from opdkit.parser import parse_presentation, serialize
from opdkit.presentation import ColorSet, rename_generators
from opdkit.spans import equal

ROOT = Path(__file__).resolve().parent.parent
PRES = ROOT / "src" / "opdkit" / "data"


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
    # Digits outside ASCII are no count: '²' and '٣' are refused as labels.
    # ``ColorSet`` refuses the label; the message names the --omega spec.
    specs = (("a b,c", "'a b'"), ("x(1),y", "'x(1)'"), ("a,-", "'-'"), ("²", "'²'"), ("٣", "'٣'"))
    for spec, label in specs:
        code, out, err = run(capsys, "build", "mat", str(PRES / "as.opd"), f"--omega={spec}")
        assert code == 2 and out == "", spec
        assert err == (f"error: --omega {spec!r}: color label {label} is not a DSL name "
                       "(letters, digits and _ only)\n"), spec
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


def test_build_rejects_a_duplicate_relation_name(capsys, tmp_path):
    bad = tmp_path / "bad.opd"
    bad.write_text(
        "operad x\nbinary m\n"
        "relation ab: m@2(m@1(x1,x2),x3)\nrelation ab: m@1(x1,m@2(x2,x3))\n"
    )
    code, out, err = run(capsys, "build", "mat", str(bad), "--omega", "2")
    assert code == 2 and out == ""
    assert "duplicate relation name ab" in err


def test_build_rejects_a_relation_whose_terms_cancel(capsys, tmp_path):
    bad = tmp_path / "bad.opd"
    bad.write_text("operad x\nbinary m\nrelation r: m@2(m@1(x1,x2),x3) - m@2(m@1(x1,x2),x3)\n")
    for kind in ("lin", "tot"):
        code, out, err = run(capsys, "build", kind, str(bad), "--omega", "2")
        assert code == 2 and out == "", kind
        assert err.startswith("error:") and "relation r: its terms cancel to zero" in err, kind


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


def test_tensor_colors_map_agrees_with_the_library(capsys, tmp_path):
    # The left factors are dualized: m#1^* gives the tensor m#1*~prec, which
    # the map sends to prec#1 as colorize_tensor_map does.
    left, dend = koszul_dual(build_lin(builtin("as"), ColorSet.of(2))), builtin("dend")
    product = manin.black_square(left, dend)
    renamed = rename_generators(product, manin.colorize_tensor_map(left.binary, dend.binary))
    paths = [tmp_path / "product.opd", tmp_path / "renamed.opd"]
    for path, p in zip(paths, (product, renamed)):
        path.write_text(serialize(p))
    code, out, err = run(capsys, "check-iso", *map(str, paths), "--map", "tensor-colors", "--quiet")
    assert (code, out, err) == (0, "span-equal\n", "")


def test_tensor_colors_map_refuses_a_tensor_of_a_tensor(capsys, tmp_path):
    lin = build_lin(builtin("as"), ColorSet.of(2))
    path = tmp_path / "product.opd"
    path.write_text(serialize(manin.black_square(lin, manin.black_square(builtin("dend"), lin))))
    code, out, err = run(capsys, "check-iso", str(path), str(path), "--map", "tensor-colors")
    assert (code, out) == (2, "")
    assert err == "error: generator m#1~prec~m#1 is a tensor of a tensor; cannot apply the tensor-colors map\n"


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
    ["verify", "ex-rbcom", "--output", "x"],
    ["list-claims", "--quiet"],
], ids=["check-iso --format", "check-iso --output", "build --quiet", "verify --format",
        "verify --output", "list-claims --quiet"])
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
    assert [line.split()[0] for line in out.splitlines()] == sorted([
        "thm-comp", "thm-mdul", "thm-dul", "prop-maninbl", "prop-maninbll",
        "cor-totalwhite", "cor-undual", "prop-kdualdda", "prop-matlin",
        "prop-totmat", "ex-rbcom", "ex-rbmat-dend", "ex-rbtot"])


def test_verify_unknown_claim(capsys):
    code, _, err = run(capsys, "verify", "no-such-claim")
    assert code == 2
    assert "unknown claim" in err


def test_verify_white_report_is_an_unknown_claim(capsys):
    # The literal white reading is compared with the dual route in test_manin.
    code, out, err = run(capsys, "verify", "white-report")
    assert (code, out) == (2, "")
    assert err == "error: unknown claim 'white-report'; see 'list-claims' for the registry\n"


def test_verify_passing_claim(capsys):
    code, out, _ = run(capsys, "verify", "ex-rbcom")
    assert code == 0
    assert out.startswith("PASS")


def test_verify_kdualdda_delta_flag(capsys):
    # 4 and 5 run both generated families beyond the shipped multi_diff files.
    for delta, dims in [(3, "(6, 6, 1)"), (4, "(10, 8, 1)"), (5, "(15, 10, 1)")]:
        code, out, _ = run(capsys, "verify", "prop-kdualdda", "--delta", str(delta))
        assert code == 0, delta
        assert dims in out


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


def test_verify_transcript_matches_archived_copy(capsys):
    parts = []
    for claim in sorted(CLAIMS):
        argv = ["verify", claim] + (["--omega", "2"] if "omega" in CLAIMS[claim].options else [])
        code, out, _ = run(capsys, *argv)
        parts.append(f"$ opdkit {' '.join(argv)}  # exit {code}\n{out}")
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


@pytest.mark.parametrize("argv", [
    ["ex-rbtot", "--omega", "8"],
    ["ex-rbcom", "--omega", "2"],
    ["ex-rbmat-dend", "--omega", "3"],
    ["cor-undual", "--omega", "2"],
    ["prop-kdualdda", "--omega", "2"],
    ["thm-comp", "--delta", "2"],
    ["prop-maninbl", "--omega", "2", "--delta", "2"],
], ids=" ".join)
def test_verify_refuses_options_the_claim_does_not_read(capsys, argv):
    code, out, err = run(capsys, "verify", *argv)
    assert (code, out) == (2, "")
    assert err == f"error: claim {argv[0]} does not take {argv[-2]}\n"


def test_verify_claims_read_the_options_they_declare():
    omega = {key for key, claim in CLAIMS.items() if "omega" in claim.options}
    assert omega == {"thm-comp", "thm-mdul", "thm-dul", "prop-maninbl", "prop-maninbll",
                     "cor-totalwhite", "prop-matlin", "prop-totmat"}
    assert [key for key, claim in CLAIMS.items() if "delta" in claim.options] == ["prop-kdualdda"]
    assert {option for claim in CLAIMS.values() for option in claim.options} == {"omega", "delta"}


@pytest.mark.parametrize("spec", ["a", "0", "²", "٣"])
def test_verify_omega_must_be_a_color_count(capsys, spec):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "thm-comp", "--omega", spec])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --omega" in err and repr(spec) in err


@pytest.mark.parametrize("spec", ["0", "-1", "a", "²"])
def test_verify_delta_must_be_an_operator_count(capsys, spec):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "prop-kdualdda", "--delta", spec])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --delta" in err and repr(spec) in err


@pytest.mark.parametrize("argv, message", [
    (["build", "mat", str(PRES / "as.opd"), "--omega", "a,a"], "--omega 'a,a': duplicate color labels"),
    (["build", "lin", str(PRES / "as.opd"), "--omega", "0"], "--omega '0': color set size must be >= 1"),
    (["build", "lin", str(PRES / "as.opd"), "--omega", ","], "--omega ',': color set must be nonempty"),
    (["basis", str(PRES / "as.opd"), "--arity", "0", "--weight", "2"], "--arity 0: arity must be >= 1"),
    (["basis", str(PRES / "as.opd"), "--arity", "3", "--weight", "-1"], "--weight -1: weight must be >= 0"),
    # Refused from the closed-form count, before any of its trees is built.
    (["basis", str(PRES / "d1d2.opd"), "--arity", "8", "--weight", "20"],
     "--arity 8 --weight 20: the basis has 70492247654400 trees, above the budget of 100000"),
    # Refused from the closed-form relation count, before any color is made.
    (["build", "mat", str(PRES / "as.opd"), "--omega", "3000"],
     "--omega 3000: mat of as has 9000000 relations, above the budget of 100000"),
    (["build", "tot", str(PRES / "rba0.opd"), "--omega", "100"],
     "--omega 100: tot of rba0 has 1079300 relations, above the budget of 100000"),
    (["build", "lin", str(PRES / "rba0.opd"), "--omega", "100"],
     "--omega 100: lin of rba0 has 176750 relations, above the budget of 100000"),
], ids=["build --omega a,a", "build --omega 0", "build --omega ,", "basis --arity 0", "basis --weight -1",
        "basis over budget", "build mat over budget", "build tot over budget",
        "build lin over budget"])
def test_bad_sizes_exit_2_naming_the_option(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_catalog_builds_at_8_colors_are_within_the_build_budget():
    for entry in entries():
        for n in ((1, 2, 3) if entry.takes_param else (None,)):
            p = builtin(entry.key) if n is None else builtin(entry.key, n)
            for kind in ("linear", "matching", "total"):
                assert relation_count(kind, p, 8) <= cli.BUILD_BUDGET, (entry.key, n, kind)


def test_build_refuses_a_colored_presentation(capsys, tmp_path):
    mat_as = tmp_path / "mat_as.opd"
    mat_as.write_text(serialize(build_mat(builtin("as"), ColorSet.of(2))))
    code, out, err = run(capsys, "build", "lin", str(mat_as), "--omega", "2")
    assert (code, out) == (2, "")
    assert err == "error: cannot replicate already-colored generator m#1\n"


# A colored copy m~prec#1 of a tensor generator reads back as an uncolored
# generator named m~prec#1, so builds refuse tensor generators: the product
# file, and the file that coloring it once wrote.
@pytest.mark.parametrize("kind", ["lin", "mat", "tot"])
def test_build_refuses_a_tensor_generator(capsys, tmp_path, kind):
    product = tmp_path / "bl.opd"
    code, _, _ = run(capsys, "product", "black", str(PRES / "as.opd"), str(PRES / "dend.opd"),
                     "--output", str(product))
    assert code == 0
    colored = tmp_path / "lin_bl.opd"
    colored.write_text("operad lin_bl\nbinary m~prec#1 m~prec#2\n"
                       "relation r: m~prec#1@2(m~prec#1@1(x1,x2),x3) - m~prec#1@1(x1,m~prec#2@2(x2,x3))\n")
    for path, generator in ((product, "m~prec"), (colored, "m~prec#1")):
        code, out, err = run(capsys, "build", kind, str(path), "--omega", "2")
        assert (code, out, err) == (2, "", f"error: cannot replicate tensor generator {generator}: "
                                           "color the factors before the product\n")


def test_internal_value_error_is_not_a_usage_error(monkeypatch):
    def broken(*args):
        raise ValueError("internal")

    monkeypatch.setattr(cli, "build_compatible", broken)
    with pytest.raises(ValueError, match="internal"):
        main(["build", "lin", str(PRES / "as.opd"), "--omega", "2"])


@pytest.mark.parametrize("module, name, argv", [
    (duality, "shape_sign", ["dual", str(PRES / "as.opd")]),
    (duality, "shape_sign", ["product", "white-dual", str(PRES / "as.opd"), str(PRES / "dend.opd")]),
    (manin, "_product", ["product", "black", str(PRES / "as.opd"), str(PRES / "dend.opd")]),
    (cli, "rename_generators", ["check-iso", str(PRES / "as.opd"), str(PRES / "as.opd"), "--map", "m=m"]),
    (manin, "tensor_factors", ["check-iso", str(PRES / "as.opd"), str(PRES / "as.opd"), "--map", "tensor-colors"]),
    (cli, "enumerate_basis", ["basis", str(PRES / "as.opd"), "--arity", "3", "--weight", "2"]),
], ids=["dual", "product white-dual", "product black", "check-iso --map", "check-iso --map tensor-colors",
        "basis"])
def test_internal_value_error_in_dual_product_and_check_iso_raises(monkeypatch, module, name, argv):
    def broken(*args):
        raise ValueError("internal")

    monkeypatch.setattr(module, name, broken)
    with pytest.raises(ValueError, match="internal"):
        main(argv)


def test_a_rename_map_that_is_not_injective_exits_2(capsys, tmp_path):
    two = tmp_path / "two.opd"
    two.write_text(
        "operad t\nbinary m n\n"
        "relation r: m@2(m@1(x1,x2),x3) - n@1(x1,n@2(x2,x3))\n"
    )
    code, out, err = run(capsys, "check-iso", str(two), str(two), "--map", "n=m")
    assert (code, out) == (2, "")
    assert err == "error: rename map is not injective on the generator list\n"


def test_an_unwritable_output_exits_2(capsys, tmp_path):
    target = tmp_path / "missing" / "x.opd"
    code, out, err = run(capsys, "build", "mat", str(PRES / "as.opd"), "--omega", "2",
                         "--output", str(target))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot write {target}: ") and "Traceback" not in err
    assert not target.exists()


# --- one parser per process ---


def test_parser_is_built_once():
    cli._arg_parser.cache_clear()
    for _ in range(3):
        assert main(["list-claims"]) == 0
    info = cli._arg_parser.cache_info()
    assert (info.misses, info.hits) == (1, 2)


def test_options_do_not_carry_over_between_calls(capsys, monkeypatch):
    seen = []
    p = builtin("as")

    def checks(omega=None, delta=None):
        seen.append((omega, delta))
        yield Check("probe", Pair(p, p), equal)

    monkeypatch.setitem(CLAIMS, "probe", Claim("probe", "records its options", checks))
    quiet = run(capsys, "verify", "probe", "--omega", "2", "--delta", "3", "--quiet")
    loud = run(capsys, "verify", "probe")
    assert seen == [(2, 3), (None, None)]
    assert (quiet, loud) == ((0, "", ""), (0, "PASS  probe: probe\n", ""))


def test_build_format_does_not_carry_over(capsys):
    argv = ["build", "mat", str(PRES / "as.opd"), "--omega", "2"]
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0 and json.loads(out)["binary"] == ["m#1", "m#2"]
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out == serialize(build_mat(builtin("as"), ColorSet.of(2)))


def test_a_refused_call_leaves_the_next_one_as_in_a_fresh_process(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "ex-rbcom", "--format", "json"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    code, out, err = run(capsys, "verify", "ex-rbcom")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    fresh = subprocess.run(
        [sys.executable, "-m", "opdkit.cli", "verify", "ex-rbcom"],
        capture_output=True, text=True, env=env, check=False,
    )
    assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr)
    assert code == 0 and out.startswith("PASS")


@pytest.mark.parametrize("left, right, kind, message", [
    ("a a~b", "b~c c", "black", "(a, b~c) and (a~b, c) both give a~b~c"),
    ("a a~b", "b~c c", "white-dual", "(a, b~c) and (a~b, c) both give a~b~c"),
    ("a a*~x", "x*~y y", "white-dual", "(a^*, x*~y^*) and (a*~x^*, y^*) both give a*~x*~y*"),
], ids=["black", "white-dual", "white-dual, duals only"])
def test_a_product_with_colliding_tensor_names_exits_2(capsys, tmp_path, left, right, kind, message):
    paths = []
    for name, binary in (("l", left), ("r", right)):
        g = binary.split()[0]
        paths.append(tmp_path / f"{name}.opd")
        paths[-1].write_text(f"operad {name}\nbinary {binary}\n"
                             f"relation r: {g}@2({g}@1(x1,x2),x3) - {g}@1(x1,{g}@2(x2,x3))\n")
    target = tmp_path / "product.opd"
    code, out, err = run(capsys, "product", kind, *map(str, paths), "--output", str(target))
    assert (code, out) == (2, "")
    assert err == f"error: tensor generators collide: {message}\n"
    assert not target.exists()


def test_a_rename_map_that_names_a_generator_twice_exits_2(capsys, tmp_path):
    # With the last pair kept, m -> p, the two would be span-equal.
    texts = {}
    for g in "mp":
        texts[g] = tmp_path / f"{g}.opd"
        texts[g].write_text(f"operad t\nbinary {g}\n"
                            f"relation r: {g}@2({g}@1(x1,x2),x3) - {g}@1(x1,{g}@2(x2,x3))\n")
    code, out, err = run(capsys, "check-iso", str(texts["m"]), str(texts["p"]), "--map", "m=q,m=p")
    assert (code, out) == (2, "")
    assert err == "error: generator 'm' renamed twice in rename map\n"
    code, out, _ = run(capsys, "check-iso", str(texts["m"]), str(texts["p"]), "--map", "m=p", "--quiet")
    assert (code, out) == (0, "span-equal\n")


@pytest.mark.parametrize("spec, message", [
    ("m=", "bad rename pair 'm=': generator '' does not read back as itself"),
    ("m=a b", "bad rename pair 'm=a b': generator 'a b' does not read back as itself"),
    ("m=x1", "bad rename pair 'm=x1': generator x1 has the form of a leaf"),
    # m#1#2 reads back as m colored 1#2, a label build --omega refuses.
    ("m=m#1#2", "bad rename pair 'm=m#1#2': generator 'm#1#2': "
                "color label '1#2' is not a DSL name (letters, digits and _ only)"),
], ids=["empty", "blank inside", "leaf", "colored twice"])
def test_a_rename_map_with_a_bad_new_name_exits_2_naming_it(capsys, spec, message):
    code, out, err = run(capsys, "check-iso", str(PRES / "as.opd"), str(PRES / "as.opd"), "--map", spec)
    assert (code, out, err) == (2, "", f"error: {message}\n")


# --- the claims compare and build no more than they need ---


def _count_calls(monkeypatch, targets):
    """Count the calls of each (module, function) at every opdkit binding of it."""
    counts = collections.Counter()
    modules = [m for name, m in sorted(sys.modules.items()) if name.split(".")[0] == "opdkit"]
    for module_name, name in targets:
        original = getattr(sys.modules[module_name], name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    return counts


# The claims used to make 2, 3, 2 and 39 span comparisons, with the same
# builds; cor-undual also made 6 Koszul duals.  Its 36 comparisons are the
# self-duality searches, whose last reports it reuses.  A claim that names
# its construction by kind builds through build_compatible.
@pytest.mark.parametrize("argv, want", [
    (["ex-rbtot"], {"span_components": 1, "build_compatible": 1, "build_tot": 1, "build_mat": 1}),
    (["prop-kdualdda"], {"span_components": 3, "koszul_dual": 3}),
    (["prop-maninbl", "--omega", "2"],
     {"span_components": 2, "build_compatible": 3, "build_lin": 3, "black_square": 2}),
    (["cor-undual"], {"span_components": 36, "koszul_dual": 3, "build_mat": 2}),
], ids=["ex-rbtot", "prop-kdualdda", "prop-maninbl --omega 2", "cor-undual"])
def test_verify_compares_each_pair_once(capsys, monkeypatch, argv, want):
    counts = _count_calls(monkeypatch, [
        ("opdkit.spans", "span_components"),
        ("opdkit.compat", "build_lin"), ("opdkit.compat", "build_mat"), ("opdkit.compat", "build_tot"),
        ("opdkit.compat", "build_compatible"), ("opdkit.duality", "koszul_dual"),
        ("opdkit.manin", "black_square"), ("opdkit.manin", "white_square"),
    ])
    code, _, _ = run(capsys, "verify", *argv)
    assert code == 0
    assert counts == want
