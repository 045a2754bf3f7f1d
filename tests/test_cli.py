import argparse
import io
import json
import math
import os
import pathlib
import shlex

import mpmath
import pytest

from reglab import cli
from reglab.cli import main
from reglab.lattice import RelationReport
from reglab.numerics import HPReal
from reglab.symbolic import algebra


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


def _multiplicative(place, n, degree=1):
    """The document entry of an I_n fiber at a place of the given degree."""
    return {
        "degree": degree,
        "kodaira": f"I{n}",
        "m": n,
        "m_simple": n,
        "place": place,
        "v_c4": 0,
        "v_c6": 0,
        "v_delta": n,
    }


def test_k3_document_of_the_shipped_curve(capsys):
    code, out, _ = run(capsys, "k3")
    assert code == 0
    doc = json.loads(out)
    del doc["manifest"]
    assert doc == {
        "d": 7,
        "d_K": -7,
        "delta": "(t - 1)^7*t^7*(t^3 - 8*t^2 + 5*t + 1)",
        "detT": 7,
        "exact": True,
        "fibers": [
            _multiplicative("t - 1", 7),
            _multiplicative("t", 7),
            _multiplicative("t^3 - 8*t^2 + 5*t + 1", 1, degree=3),
            _multiplicative("t = oo", 7),
        ],
        "level": 7,
        "mw_rank": 0,
        "rho": 20,
        "sum_v_delta": 24,
        "torsion_order": 7,
    }


def test_k3_document_of_an_even_discriminant(capsys):
    code, out, _ = run(capsys, "k3", "--curve", "t,t^2+1,0,t^3,t", "--no-k3")
    assert code == 0
    doc = json.loads(out)
    del doc["manifest"]
    nonic = (
        "25*t^9 - 64*t^8 + 40*t^7 - 125*t^6 + 376*t^5 - 300*t^4 + 288*t^3"
        " - 240*t^2 - 432*t - 64"
    )
    assert doc == {
        "d": 2,
        "d_K": -8,
        "delta": f"t*({nonic})",
        "detT": 2,
        "exact": True,
        "fibers": [
            _multiplicative("t", 1),
            _multiplicative(nonic, 1, degree=9),
            _multiplicative("t = oo", 2),
        ],
        "level": 8,  # the CM form of Q(sqrt(-2)) has level |d_K| = 8
        "mw_rank": 0,
        "rho": 3,
        "sum_v_delta": 12,
        "torsion_order": 1,
    }
    # d_K = -4 has no newform level, but --no-k3 still gives the fiber data
    code, out, _ = run(capsys, "k3", "--curve", "0,0,0,1,1", "--no-k3")
    assert code == 0
    doc = json.loads(out)
    assert (doc["fibers"], doc["rho"], doc["detT"], doc["d"], doc["d_K"]) == ([], 2, 1, 1, -4)
    assert doc["level"] is None
    code, out, _ = run(capsys, "k3", "--curve", "0,0,0,t,0", "--no-k3")
    assert code == 0
    doc = json.loads(out)
    assert [(f["place"], f["kodaira"]) for f in doc["fibers"]] == [("t", "III"), ("t = oo", "III*")]
    assert (doc["rho"], doc["detT"], doc["d"], doc["d_K"], doc["level"]) == (10, 4, 1, -4, None)


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


def test_detect_from_stdin_matches_file(tmp_path, capsys, monkeypatch):
    values = ["3.14159265358979323846264338328", "1.04719755119659774615421446109"]
    f = tmp_path / "vals.json"
    f.write_text(json.dumps(values))
    args = ("--height", "10", "--prec", "25")
    _, from_file, _ = run(capsys, "detect", "--values", str(f), *args)
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(values)))
    code, from_stdin, _ = run(capsys, "detect", *args)
    assert code == 0
    file_doc, stdin_doc = json.loads(from_file), json.loads(from_stdin)
    # the manifests differ only in the file they name and hash
    file_manifest, stdin_manifest = file_doc.pop("manifest"), stdin_doc.pop("manifest")
    assert stdin_doc == file_doc
    assert (stdin_manifest["config"]["values"], stdin_manifest["input_hashes"]) == (None, {})
    assert file_manifest["input_hashes"].keys() == {"vals.json"}
    for manifest in (file_manifest, stdin_manifest):
        del manifest["config"]["values"], manifest["input_hashes"]
    assert stdin_manifest == file_manifest


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


def test_verify_main_at_a_low_level_finds_no_relation_and_stays_consistent(capsys):
    # at level 16 the direct value carries too few digits for the relation search
    code, out, _ = run(capsys, "verify-main", "--skip-boundary", "--level", "16")
    doc = json.loads(out)
    assert doc["stages"]["relation"] == "insufficient precision"
    assert doc["verdict"] == "consistent"
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


def test_verify_main_accepts_only_the_normalised_relation(capsys, monkeypatch):
    # find_integer_relation makes the first nonzero coefficient positive, so the
    # negated relation can only come from a broken finder
    find = cli.find_integer_relation

    def negated(values, max_height, prec):
        rep = find(values, max_height=max_height, prec=prec)
        rep.coefficients = [-c for c in rep.coefficients]
        return rep

    monkeypatch.setattr(cli, "find_integer_relation", negated)
    code, out, _ = run(capsys, "verify-main", "--skip-boundary", "--level", "32", "--prec", "12")
    doc = json.loads(out)
    assert doc["stages"]["residual"]["within_budget"] is True
    assert doc["stages"]["relation"]["coefficients"] == [-7, -42, -48]
    assert doc["verdict"] == "inconsistent"
    assert code != 0


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


@pytest.mark.parametrize("command", ["residues", "boundary-integral"])
def test_corrupted_decomposition_file_exits_2_without_a_document(capsys, tmp_path, command):
    with open(os.path.join(cli.data_dir(), "decomposition_n4.json")) as fh:
        raw = json.load(fh)
    raw["terms"][0][0] = 2  # corrupt one coefficient
    path = tmp_path / "corrupted.json"
    path.write_text(json.dumps(raw))
    code, out, err = run(capsys, command, "--file", str(path))
    assert code == 2
    assert out == ""
    assert "decomposition does not hold" in err


def test_verify_main_factors_the_decomposition_terms_once(capsys, monkeypatch):
    # stage 1 checks the decomposition and stage 2 builds xi from the same factored terms
    docs, calls = [], []
    load, factor = cli.load_decomposition, algebra.factor_over_basis

    def loading(path):
        docs.append(load(path))
        return docs[-1]

    def counting(f, basis):
        calls.append(f)
        return factor(f, basis)

    monkeypatch.setattr(cli, "load_decomposition", loading)
    monkeypatch.setattr(algebra, "factor_over_basis", counting)
    code, _, _ = run(capsys, "verify-main", "--skip-boundary", "--level", "32", "--prec", "12")
    assert code == 0
    (doc,) = docs
    polys = [p for _, f, gs in doc.terms for p in [f, *gs]]
    assert [sum(call is p for call in calls) for p in polys] == [1] * len(polys)


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


def test_root_finding_failure_is_a_numeric_failure(capsys, monkeypatch):
    def diverge(P, cfg):
        raise cli.RootFindingError("root iteration did not converge: forced")

    monkeypatch.setattr(cli, "mahler_measure", diverge)
    code, out, err = run(capsys, "mahler", "--poly", "1+x+y")
    assert code == 3
    assert out == ""
    assert "numeric non-convergence" in err and "input error" not in err


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
        ["lvalue", "--newform", "eta:24^1", "--s", "2"],
        ["k3", "--curve", "0,0,0,t,1", "--torsion", "0"],
        ["k3", "--curve", "0,0,0,t,1", "--rank", "-3"],
        ["dilog", "--z", "1e400i"],
        ["dirichlet", "--d", "3"],
        # without --no-k3 a surface must be a singular K3: Euler number 24, rho = 20
        ["k3", "--curve", "0,0,0,1,1"],  # no singular fiber
        ["lvalue", "--newform", "f7", "--weight", "3", "--s", "2"],
        ["lvalue", "--newform", "eta:1^3,7^3", "--s", "2"],  # a newform is a preset name
        ["k3", "--curve", "0,0,0,t,1"],  # not a singular K3: rational, rho = 9
        ["k3", "--curve", "0,0,0,0,t^7+1"],  # not a singular K3: a K3 with rho = 10
    ],
)
def test_bad_input_exits_2_without_a_document(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "input error" in err


def _readme_cli_examples():
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    return [line.strip() for line in section.splitlines() if line.startswith("    reglab ")]


@pytest.mark.parametrize("line", _readme_cli_examples())
def test_readme_cli_example_runs(capsys, monkeypatch, tmp_path, line):
    monkeypatch.chdir(tmp_path)
    with mpmath.workdps(40):
        phi = (1 + mpmath.sqrt(5)) / 2  # phi^2 - phi - 1 = 0
        (tmp_path / "vals.json").write_text(json.dumps([str(phi**2), str(phi), "1"]))
    code, out, _ = run(capsys, *shlex.split(line)[1:])
    assert code == 0
    strict_loads(out)
