"""Golden CLI documents: each command below is run through ``cli.main`` and its
exit code and document must equal the file ``tests/golden/<name>.json``.

The documents are compared with ``manifest.versions`` removed, so an upgrade of
numpy, sympy or mpmath alone does not move them. A change that moves an output
regenerates the files with

    python3 -m pytest tests/test_golden.py --regen-golden

and the diff of ``tests/golden/`` shows each document that moved.
"""

import argparse
import json
import pathlib

import pytest

from reglab import cli

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"

# name of the golden file -> argv; ``detect`` reads (1, phi, phi^2) from GOLDEN
COMMANDS = {
    "verify-main_level40": ["verify-main", "--level", "40"],
    "verify-main_level32_prec12": ["verify-main", "--level", "32", "--prec", "12"],
    "residues": ["residues"],
    "residues_trace": ["residues", "--trace"],
    "decomp-check_n3": ["decomp-check", "--n", "3"],
    "decomp-check_n4": ["decomp-check", "--n", "4"],
    "k3": ["k3"],
    "k3_torsion7": ["k3", "--curve", "1+t-t^2,t^2-t^3,t^2-t^3,0,0", "--torsion", "7"],
    "boundary-integral_n3_level24": ["boundary-integral", "--n", "3", "--level", "24"],
    "boundary-integral_n4_level40": ["boundary-integral", "--n", "4", "--level", "40"],
    "deninger-check": ["deninger-check", "--poly", "1+x+y"],
    "mahler": ["mahler", "--poly", "1+x+y+z", "--prec", "6"],
    "mahler_4var_level9": ["mahler", "--poly", "1+x+y+z+t", "--level", "9"],
    "detect": ["detect", "--values", "phi_values.json", "--prec", "30"],
    "dilog": ["dilog", "--z", "i", "--prec", "60"],
    "lprime-minus1": ["lprime-minus1", "--prec", "30"],
    "lvalue": ["lvalue", "--newform", "f7", "--s", "2"],
    "zeta-prime-minus2": ["zeta-prime-minus2"],
    "dirichlet": ["dirichlet", "--d", "-3", "--deriv-neg1"],
}


def _run(argv, capsys):
    """(exit code, document without manifest.versions, or None for empty stdout)."""
    code = cli.main(argv)
    out = capsys.readouterr().out
    if not out:
        return code, None
    doc = json.loads(out)
    del doc["manifest"]["versions"]
    return code, doc


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_golden_document(name, capsys, monkeypatch, request):
    monkeypatch.chdir(GOLDEN)
    argv = COMMANDS[name]
    code, doc = _run(argv, capsys)
    path = GOLDEN / f"{name}.json"
    got = {"argv": argv, "exit_code": code, "document": doc}
    if request.config.getoption("--regen-golden"):
        path.write_text(json.dumps(got, indent=1, sort_keys=True) + "\n")
    want = json.loads(path.read_text())
    assert got == want, f"{path.name} differs from the output of: reglab {' '.join(argv)}"


def test_golden_commands_cover_every_subcommand():
    (sub,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert sorted({argv[0] for argv in COMMANDS.values()}) == sorted(sub.choices)
