import json
import os

import pytest

from reglab.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_mahler_smith_example(capsys):
    code, out, _ = run(capsys, "mahler", "--poly", "1+x+y", "--prec", "20", "--level", "8")
    assert code == 0
    doc = json.loads(out)
    assert abs(float(doc["value"]) - 0.3230659472) < 1e-8
    assert "error_estimate" in doc and "prec" in doc
    assert doc["manifest"]["command"] == "mahler"


def test_dilog_example(capsys):
    code, out, _ = run(capsys, "dilog", "--z", "i", "--prec", "15")
    assert code == 0
    doc = json.loads(out)
    assert abs(float(doc["value"]) - 0.9159655942) < 1e-9


def test_k3_example(capsys):
    code, out, _ = run(
        capsys, "k3", "--curve", "1+t-t^2,t^2-t^3,t^2-t^3,0,0", "--torsion", "7"
    )
    assert code == 0
    doc = json.loads(out)
    assert (doc["rho"], doc["detT"], doc["level"]) == (20, 7, 7)


def test_decomp_check(capsys):
    code, out, _ = run(capsys, "decomp-check", "--n", "4")
    assert code == 0
    assert json.loads(out)["holds"] is True


def test_residues_all_trivial(capsys):
    code, out, _ = run(capsys, "residues")
    assert code == 0
    doc = json.loads(out)
    assert doc["overall"] == "trivial"
    assert len(doc["divisors"]) == 48


def test_zeta_prime(capsys):
    code, out, _ = run(capsys, "zeta-prime-minus2", "--prec", "20")
    assert code == 0
    assert abs(float(json.loads(out)["value"]) + 0.030448457058393271) < 1e-15


def test_lprime_minus1(capsys):
    code, out, _ = run(capsys, "lprime-minus1", "--prec", "20")
    assert code == 0
    assert abs(float(json.loads(out)["value"]) + 0.0658960685455824) < 1e-13


def test_lvalue_custom_eta_syntax(capsys):
    code, out, _ = run(
        capsys,
        "lvalue",
        "--newform",
        "eta:1^3,7^3",
        "--level",
        "7",
        "--weight",
        "3",
        "--s",
        "2",
        "--prec",
        "20",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["level"] == 7 and doc["weight"] == 3


def test_dirichlet(capsys):
    code, out, _ = run(capsys, "dirichlet", "--d", "-3", "--deriv-neg1", "--prec", "18")
    assert code == 0
    assert abs(float(json.loads(out)["value"]) - 0.3230659472194505) < 1e-12


def test_detect_from_file(tmp_path, capsys):
    f = tmp_path / "vals.json"
    f.write_text(json.dumps(["3.14159265358979323846264338328", "1.04719755119659774615421446109"]))
    code, out, _ = run(capsys, "detect", "--values", str(f), "--height", "10", "--prec", "25")
    assert code == 0
    doc = json.loads(out)
    assert doc["relation"]["coefficients"] == [1, -3]


def test_unknown_subcommand_exits_2():
    assert main(["frobnicate"]) == 2


def test_bad_poly_exits_2(capsys):
    code, _, err = run(capsys, "mahler", "--poly", "1 + * x")
    assert code == 2
    assert "input error" in err


def test_boundary_integral_n3(capsys):
    code, out, _ = run(capsys, "boundary-integral", "--n", "3", "--level", "32", "--prec", "12")
    assert code == 0
    assert abs(float(json.loads(out)["value"]) - 0.48399797347859) < 1e-6


def test_stdout_determinism(capsys):
    # the result document is byte-identical across runs; wall time is on stderr
    for args in (
        ["mahler", "--poly", "1+x", "--prec", "18"],
        ["boundary-integral", "--n", "3", "--level", "16"],
        ["dilog", "--z", "0.5+i"],
    ):
        _, out1, err1 = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2
        assert "wall_time" not in out1
        assert "wall time:" in err1


def test_verify_main_skip_boundary(capsys):
    code, out, err = run(
        capsys, "verify-main", "--skip-boundary", "--level", "32", "--prec", "12"
    )
    doc = json.loads(out)
    assert "boundary_integral" not in doc["stages"]
    assert doc["stages"]["decomposition"]["holds"] is True
    assert doc["stages"]["residual"]["within_budget"] is True
    assert code == 0
