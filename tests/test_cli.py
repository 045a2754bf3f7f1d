import argparse
import json
import math
import os

import pytest

from reglab import cli
from reglab.cli import main
from reglab.lattice import RelationReport
from reglab.numerics import HPReal


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def strict_loads(text):
    """json.loads that rejects NaN and +-Infinity, which strict JSON parsers refuse."""

    def refuse(constant):
        raise ValueError(f"non-finite constant {constant} in the document")

    return json.loads(text, parse_constant=refuse)


def test_mahler_smith_example(capsys):
    code, out, _ = run(capsys, "mahler", "--poly", "1+x+y", "--prec", "20", "--level", "8")
    assert code == 0
    doc = json.loads(out)
    assert abs(float(doc["value"]) - 0.3230659472) < 1e-8
    assert "error_estimate" in doc and "prec" in doc
    assert doc["manifest"]["command"] == "mahler"


def test_deninger_check_smith_example(capsys):
    code, out, _ = run(
        capsys, "deninger-check", "--poly", "1+x+y", "--rule", "adaptive_gk", "--prec", "8"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["consistent"] is True
    # m(1 + x + y) = L'(chi_-3, -1) (Smith)
    direct = doc["direct"]
    assert abs(float(direct["value"]) - 0.3230659472194505) <= float(direct["error_estimate"])


def test_deninger_check_refuses_perturbed_chain_value(capsys, monkeypatch):
    # a chain value moved by 1e-7, far beyond the budget at 12 digits
    check = cli.deninger_gamma_check

    def bent(P, cfg):
        res = check(P, cfg)
        res.value = HPReal(float(res.value) + 1e-7, cfg.prec)
        return res

    monkeypatch.setattr(cli, "deninger_gamma_check", bent)
    code, out, _ = run(
        capsys, "deninger-check", "--poly", "1+x+y", "--rule", "adaptive_gk", "--prec", "12"
    )
    assert json.loads(out)["consistent"] is False
    assert code == 3


def test_dilog_example(capsys):
    code, out, _ = run(capsys, "dilog", "--z", "i", "--prec", "15")
    assert code == 0
    doc = json.loads(out)
    assert abs(float(doc["value"]) - 0.9159655942) < 1e-9
    # Li2(i) = -pi^2/48 + i G, G Catalan's constant
    assert abs(float(doc["li2_re"]) + math.pi**2 / 48) < 1e-14
    assert abs(float(doc["li2_im"]) - 0.915965594177219015) < 1e-14


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


def test_verify_main_level40_finds_relation(capsys):
    code, out, _ = run(capsys, "verify-main", "--level", "40")
    doc = json.loads(out)
    stages = doc["stages"]
    assert abs(float(stages["direct_measure"]["value"]) - 0.604165831102476807) < 1e-14
    assert stages["residual"]["within_budget"] is True
    assert stages["relation"]["coefficients"] == [7, 42, 48]
    assert doc["verdict"] == "consistent"
    assert code == 0


def test_verify_main_refuses_perturbed_direct_value(capsys, monkeypatch):
    # a direct value moved by 1e-9, far beyond its reported error
    measure = cli.mahler_measure

    def bent(P, cfg):
        res = measure(P, cfg)
        res.value = HPReal(float(res.value) + 1e-9, cfg.prec)
        return res

    monkeypatch.setattr(cli, "mahler_measure", bent)
    code, out, _ = run(capsys, "verify-main", "--level", "40")
    doc = json.loads(out)
    assert doc["stages"]["residual"]["within_budget"] is False
    assert doc["stages"]["relation"] == "no relation"  # the finder ran and found none
    assert doc["verdict"] == "inconsistent"
    assert code == 3


def _corrupt_decomposition(monkeypatch):
    load = cli.load_decomposition

    def corrupted(path):
        with open(path) as fh:
            raw = json.load(fh)
        raw["terms"][0][0] = 2  # corrupt one coefficient
        return load(raw)

    monkeypatch.setattr(cli, "load_decomposition", corrupted)


def test_verify_main_aborts_on_corrupted_decomposition(capsys, monkeypatch):
    _corrupt_decomposition(monkeypatch)
    code, out, _ = run(capsys, "verify-main", "--level", "40")
    assert json.loads(out)["verdict"] == "abort: decomposition"
    assert code == 2


FAST_ARGS = {
    "mahler": ["--poly", "1+x+y", "--prec", "12"],
    "deninger-check": ["--poly", "1+x+y", "--rule", "adaptive_gk", "--prec", "8"],
    "boundary-integral": ["--n", "3", "--level", "16"],
    "decomp-check": ["--n", "3"],
    "residues": [],
    "dilog": ["--z", "0.5+i"],
    "lvalue": ["--s", "2"],
    "lprime-minus1": [],
    "zeta-prime-minus2": [],
    "dirichlet": ["--d", "-4", "--s", "3"],
    "detect": ["--values", "vals.json", "--height", "10", "--prec", "30"],
    "k3": [],
    "verify-main": ["--skip-boundary", "--level", "32", "--prec", "12"],
}


def test_fast_args_cover_every_subcommand():
    (sub,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    commands = sub.choices
    assert sorted(FAST_ARGS) == sorted(commands)


@pytest.mark.parametrize("command", sorted(FAST_ARGS))
def test_every_subcommand_writes_one_strict_document(command, capsys, tmp_path, monkeypatch):
    # detect on an exact relation: its residual is 0 and its confidence must stay finite
    (tmp_path / "vals.json").write_text(json.dumps(["1", "2", "3"]))
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(capsys, command, *FAST_ARGS[command])
    assert code == 0
    doc = strict_loads(out)
    assert doc["manifest"]["command"] == command
    assert out.count("\n") == 1  # one document, one line


def test_non_finite_number_is_a_numeric_failure(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(
        cli, "find_integer_relation", lambda *a: RelationReport([1, -1], 0.0, math.inf)
    )
    f = tmp_path / "vals.json"
    f.write_text(json.dumps(["1", "1"]))
    code, out, err = run(capsys, "detect", "--values", str(f))
    assert code == 3
    assert out == ""
    assert "numeric failure" in err and "input error" not in err


def _refuse_residues(monkeypatch):
    certify = cli.certify_all_residues

    def nontrivial(xi, divisors):
        report = certify(xi, divisors)
        report["overall"] = "nontrivial"
        return report

    monkeypatch.setattr(cli, "certify_all_residues", nontrivial)


@pytest.mark.parametrize(
    "corrupt, verdict, inputs",
    [
        (_corrupt_decomposition, "abort: decomposition", ["decomposition_n4.json"]),
        (_refuse_residues, "abort: residues", ["decomposition_n4.json", "divisors_n4.json"]),
    ],
)
def test_verify_main_abort_documents_carry_manifest(capsys, monkeypatch, corrupt, verdict, inputs):
    corrupt(monkeypatch)
    code, out, _ = run(capsys, "verify-main", "--level", "40")
    doc = strict_loads(out)
    assert doc["verdict"] == verdict
    assert doc["manifest"]["command"] == "verify-main"
    assert sorted(doc["manifest"]["input_hashes"]) == inputs
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["mahler", "--poly", "1/0"],
        ["dirichlet", "--d", "0"],
        ["lvalue", "--newform", "eta:0^24", "--s", "2"],
        ["k3", "--curve", "0,0,0,t,1", "--torsion", "0"],
        ["k3", "--curve", "0,0,0,t,1", "--rank", "-3"],
        ["dilog", "--z", "1e400i"],
    ],
)
def test_bad_input_exits_2_without_a_document(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "input error" in err
