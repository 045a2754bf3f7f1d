"""Command-line interface.

Each subcommand computes its result document and returns it with the input
files it read and its exit code; ``main`` alone adds the manifest, serializes
the document and writes it to stdout. Every run that reaches a verdict,
an abort of ``verify-main`` included, writes exactly one JSON document with its
manifest (command, config, library versions, input hashes), so outputs
are reproducible byte-for-byte from the manifest alone. Non-finite numbers are
never written. Diagnostics and the wall time go to stderr.

Exit codes: 0 success; 2 input error, a ``ValueError`` (nothing on stdout), a
failed exact check (``decomp-check``, ``residues``) or an aborted
``verify-main``; 3 numeric failure, a ``NumericalFailure`` or a non-finite
number in the document (nothing on stdout), or an inconsistent verdict from
``verify-main`` or ``deninger-check``.
"""

from __future__ import annotations

import argparse
import cmath
import hashlib
import json
import math
import os
import re
import sys
import time

import mpmath
import numpy as np
import sympy

from . import __version__
from .k3 import WeierstrassCurveQt, data_dir, load_curve, surface_invariants
from .lattice import find_integer_relation
from .lfunctions import (
    DirichletChar,
    PRESETS,
    completed_lambda,
    dirichlet_L,
    dirichlet_Lprime_neg,
    lprime_minus1,
    lvalue,
    zeta_prime_minus2,
)
from .numerics import HPReal, NumericalFailure, _bits, bloch_wigner
from .quadrature import (
    QuadratureConfig,
    deninger_gamma_check,
    mahler_measure,
    regulator_boundary_integral,
)
from .residues import certify_all_residues, load_divisors
from .symbolic import build_xi, check_decomposition, format_factored, load_decomposition, parse_poly

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERIC = 3

# verify-main searches for the relation of the paper's identity
# 7 m(P) + 42 L'(f7, -1) + 48 zeta'(-2) = 0, with coefficients up to this height
MAIN_RELATION = [7, 42, 48]
RELATION_HEIGHT = 64


def _hash_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()[:16]


def _manifest(args, inputs):
    return {
        "command": args.command,
        "config": {
            k: v
            for k, v in sorted(vars(args).items())
            if k != "command" and not callable(v)
        },
        "versions": {
            "reglab": __version__,
            "numpy": np.__version__,
            "sympy": sympy.__version__,
            "mpmath": mpmath.__version__,
        },
        "input_hashes": {os.path.basename(p): _hash_file(p) for p in inputs},
    }


def _torus_config(args, variables) -> QuadratureConfig:
    """The config of a Mahler measure of P in ``variables``, its rule recorded in args.

    The inner Jensen integrand has kinks where root moduli cross 1, so 2 and
    3 variables take adaptive Gauss-Kronrod; 4 take tensor Gauss-Legendre at
    the command's ``--level`` and ``--depth``, or the config's defaults. One
    variable takes the roots (``univariate_mahler``), runs no rule and
    records none.
    """
    grid = {k: v for k, v in vars(args).items() if k in ("level", "depth")}
    if len(variables) > 1:
        args.rule = "adaptive_gk" if len(variables) <= 3 else "gauss_legendre_tensor"
        grid["rule"] = args.rule
    return QuadratureConfig(prec=args.prec, **grid)


def _infer_vars(text: str):
    seen = []
    for name in re.findall(r"[A-Za-z_][A-Za-z_0-9]*", text):
        if name not in seen:
            seen.append(name)
    return seen


def _parse_poly(args):
    variables = args.vars.split(",") if args.vars else _infer_vars(args.poly)
    return variables, parse_poly(args.poly, variables)


def _parse_complex(text: str) -> complex:
    z = complex(text.replace("i", "j").replace(" ", ""))
    if not cmath.isfinite(z):
        raise ValueError(f"z = {text} is not finite")
    return z


def _num(value: HPReal, error: HPReal) -> dict:
    """The value as printed at its precision and an error estimate that bounds the
    printed value: half a unit of its last printed digit is added to ``error``."""
    text = value.to_decimal()
    exponent = int(text.rsplit("e", 1)[1]) - value.prec
    with mpmath.workdps(error.prec + 5):
        error = HPReal(error.mpf() + 5 * mpmath.mpf(10) ** exponent, error.prec)
    return {"value": text, "prec": value.prec, "error_estimate": error.to_decimal()}


# -- subcommands ----------------------------------------------------------------------
# Each returns (document, input files read, exit code); ``main`` writes the document.


def cmd_mahler(args):
    variables, P = _parse_poly(args)
    res = mahler_measure(P, _torus_config(args, variables))
    return {
        "poly": args.poly,
        "variables": variables,
        **_num(res.value, res.error_estimate),
        "evaluations": res.evaluations,
    }, [], EXIT_OK


def cmd_deninger_check(args):
    variables, P = _parse_poly(args)
    cfg = _torus_config(args, variables)
    direct = mahler_measure(P, cfg)
    chain = deninger_gamma_check(P, cfg)
    delta = abs(float(direct.value) - float(chain.value))
    budget = float(direct.error_estimate) + float(chain.error_estimate) + 10 ** (2 - args.prec)
    consistent = delta <= budget
    return {
        "poly": args.poly,
        "direct": _num(direct.value, direct.error_estimate),
        "chain": _num(chain.value, chain.error_estimate),
        "difference": delta,
        "consistent": consistent,
    }, [], EXIT_OK if consistent else EXIT_NUMERIC


def _load_xi(args):
    path = args.file or os.path.join(data_dir(), f"decomposition_n{args.n}.json")
    return load_decomposition(path), path


def cmd_boundary_integral(args):
    doc, path = _load_xi(args)
    xi, xi_star, lam = build_xi(doc)
    res = regulator_boundary_integral(lam, QuadratureConfig(level=args.level, prec=args.prec))
    return {
        "n": doc.n,
        **_num(res.value, res.error_estimate),
        "evaluations": res.evaluations,
    }, [path], EXIT_OK


def cmd_decomp_check(args):
    doc, path = _load_xi(args)
    equal, diff = check_decomposition(doc)
    return {
        "n": doc.n,
        "exact": True,
        "holds": equal,
        "difference": str(diff) if not equal else "0",
    }, [path], EXIT_OK if equal else EXIT_INPUT


def cmd_residues(args):
    dpath = args.file or os.path.join(data_dir(), "decomposition_n4.json")
    xi, _, _ = build_xi(load_decomposition(dpath))
    div_path = args.divisors or os.path.join(data_dir(), "divisors_n4.json")
    report = certify_all_residues(xi, load_divisors(div_path))
    if not args.trace:
        for cert in report["divisors"]:
            cert.pop("terms", None)
    return report, [dpath, div_path], EXIT_OK if report["overall"] == "trivial" else EXIT_INPUT


def cmd_dilog(args):
    z = _parse_complex(args.z)
    D = bloch_wigner(complex(z), args.prec)
    with mpmath.mp.workprec(_bits(args.prec) + 10):
        L = mpmath.polylog(2, mpmath.mpc(z))
    return {
        "z": args.z,
        **_num(D, HPReal(f"1e{2 - args.prec}", args.prec)),
        "li2_re": HPReal(L.real, args.prec).to_decimal(),
        "li2_im": HPReal(L.imag, args.prec).to_decimal(),
    }, [], EXIT_OK


def cmd_lvalue(args):
    f = PRESETS[args.newform]
    lam = completed_lambda(f, args.s, args.prec)
    L = lvalue(f, args.s, args.prec)
    return {
        "newform": args.newform,
        "level": f.level,
        "weight": f.weight,
        "eps": f.eps,
        "s": args.s,
        **_num(L, HPReal(f"1e{5 - args.prec}", args.prec)),
        "completed_lambda": lam.to_decimal(),
    }, [], EXIT_OK


def cmd_lprime_minus1(args):
    f = PRESETS[args.newform]
    val = lprime_minus1(f, args.prec)
    return {
        "newform": args.newform,
        "level": f.level,
        "weight": f.weight,
        **_num(val, HPReal(f"1e{5 - args.prec}", args.prec)),
    }, [], EXIT_OK


def cmd_zeta_prime_minus2(args):
    val = zeta_prime_minus2(args.prec)
    return _num(val, HPReal(f"1e{2 - args.prec}", args.prec)), [], EXIT_OK


def cmd_dirichlet(args):
    chi = DirichletChar(args.d)
    payload = {"d": args.d, "modulus": chi.modulus, "parity": chi.parity}
    if args.deriv_neg1:
        val = dirichlet_Lprime_neg(chi, args.prec)
        payload["quantity"] = "L'(chi, -1)"
    else:
        val = dirichlet_L(chi, args.s, args.prec)
        payload["quantity"] = f"L(chi, {args.s})"
    payload.update(_num(val, HPReal(f"1e{2 - args.prec}", args.prec)))
    return payload, [], EXIT_OK


def cmd_detect(args):
    inputs = []
    if args.values:
        with open(args.values) as fh:
            raw = json.load(fh)
        inputs.append(args.values)
    else:
        raw = json.loads(sys.stdin.read())
    # keep the raw strings; they are parsed at working precision downstream
    values = [str(v) for v in raw]
    rep = find_integer_relation(values, args.height, args.prec)
    return {
        "n_values": len(values),
        "height": args.height,
        "prec": args.prec,
        "relation": rep.to_dict() if rep else None,
        "note": "numerical evidence only, not a proof" if rep else "no relation found",
    }, inputs, EXIT_OK


def cmd_k3(args):
    inputs = []
    if args.curve:
        curve = WeierstrassCurveQt.from_string(args.curve)
        rank, torsion = args.rank, args.torsion
    else:
        path = os.path.join(data_dir(), "k3_curve.json")
        curve, rank, torsion = load_curve(path)
        inputs.append(path)
    inv = surface_invariants(curve, rank, torsion)
    payload = inv.to_dict()
    payload["delta"] = format_factored(curve.discriminant()[0])
    payload["exact"] = True
    return payload, inputs, EXIT_OK


def cmd_verify_main(args):
    diag = lambda *a: print(*a, file=sys.stderr)
    report = {"stages": {}}

    # stage 1: exact symbolic decomposition
    dpath = os.path.join(data_dir(), "decomposition_n4.json")
    inputs = [dpath]
    doc = load_decomposition(dpath)
    equal, diff = check_decomposition(doc)
    if not equal:
        diag(f"stage 1 (decomposition) FAILED; difference = {diff}")
        report["stages"]["decomposition"] = {"holds": False, "difference": str(diff)}
        report["verdict"] = "abort: decomposition"
        return report, inputs, EXIT_INPUT
    report["stages"]["decomposition"] = {"holds": True, "exact": True}
    diag("stage 1: decomposition holds exactly")

    # stage 2: residue certificates
    xi, xi_star, lam = build_xi(doc)
    vpath = os.path.join(data_dir(), "divisors_n4.json")
    inputs.append(vpath)
    cert = certify_all_residues(xi, load_divisors(vpath))
    report["stages"]["residues"] = {"overall": cert["overall"], "divisors": len(cert["divisors"])}
    if cert["overall"] != "trivial":
        diag(f"stage 2 (residues) FAILED: {cert['overall']}")
        report["verdict"] = "abort: residues"
        return report, inputs, EXIT_INPUT
    diag(f"stage 2: all {len(cert['divisors'])} residue certificates trivial")

    # stage 3: direct Mahler measure (the kink chart for this P)
    cfg = QuadratureConfig(level=args.level, seed=args.seed, prec=args.prec)
    P = parse_poly("(1+x)*(1+y)*(1+z)+t", ["x", "y", "z", "t"])
    direct = mahler_measure(P, cfg)
    report["stages"]["direct_measure"] = _num(direct.value, direct.error_estimate)
    diag(f"stage 3: m(P) = {float(direct.value):.10f} (direct)")

    # stage 4: boundary regulator integral
    boundary = regulator_boundary_integral(lam, cfg)
    report["stages"]["boundary_integral"] = _num(boundary.value, boundary.error_estimate)
    diag(f"stage 4: boundary integral = {float(boundary.value):.10f}")

    # stage 5: L-values
    Lp = lprime_minus1(PRESETS["f7"], max(args.prec, 20))
    zp = zeta_prime_minus2(max(args.prec, 20))
    report["stages"]["lvalues"] = {
        "lprime_f7_minus1": Lp.to_decimal(),
        "zeta_prime_minus2": zp.to_decimal(),
    }
    diag(f"stage 5: L'(f7,-1) = {float(Lp):.12f}, zeta'(-2) = {float(zp):.12f}")

    # stage 6: residual of the conjectured identity
    predicted = -6.0 * float(Lp) - 48.0 / 7.0 * float(zp)
    residual = abs(float(direct.value) - predicted)
    budget = float(direct.error_estimate) + 10 ** (2 - args.prec)
    report["stages"]["residual"] = {
        "predicted": predicted,
        "residual": residual,
        "budget": budget,
        "within_budget": residual <= budget,
    }
    diag(f"stage 6: residual = {residual:.3e}")
    pairing_delta = abs(float(direct.value) - float(boundary.value))
    report["stages"]["pairing_delta"] = pairing_delta
    diag(f"          |direct - boundary| = {pairing_delta:.3e}")

    # stage 7: relation detection at the precision of the oracle with the
    # smallest reported error
    name, best = min(
        [("direct", direct), ("boundary", boundary)], key=lambda o: float(o[1].error_estimate)
    )
    value = float(best.value)
    err = max(float(best.error_estimate), np.finfo(float).eps * abs(value))
    achieved = math.floor(-math.log10(err))
    try:
        rep = find_integer_relation(
            [mpmath.mpf(value), Lp.mpf(), zp.mpf()],
            max_height=RELATION_HEIGHT,
            prec=achieved,
        )
    except ValueError:
        rep, relation = None, "insufficient precision"
    else:
        relation = rep.to_dict() if rep else "no relation"
    report["stages"]["relation"] = relation
    if rep:
        diag(
            f"stage 7: relation {rep.coefficients} (confidence {rep.confidence:.1f}; "
            f"{name} value at {achieved} digits)"
        )
    else:
        diag(f"stage 7: {relation} ({name} value, {achieved} digits)")

    ok = report["stages"]["residual"]["within_budget"] and (
        rep is None or rep.coefficients == MAIN_RELATION
    )
    report["verdict"] = "consistent" if ok else "inconsistent"
    return report, inputs, EXIT_OK if ok else EXIT_NUMERIC


# -- parser ---------------------------------------------------------------------------


def _command(sub, name, fn, help, prec=True, level=False):
    """A subparser running ``fn``, with only the shared options the subcommand reads."""
    p = sub.add_parser(name, help=help)
    p.set_defaults(fn=fn)
    if prec:
        p.add_argument("--prec", type=int, default=15)
    if level:
        p.add_argument("--level", type=int, default=64)
    return p


def _add_poly(p):
    p.add_argument("--poly", required=True)
    p.add_argument("--vars", default=None)


def _add_newform(p):
    p.add_argument("--newform", default="f7", help=f"one of {', '.join(PRESETS)}")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="reglab",
        description="Mahler measures, regulator integrals, and L-value verification",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = _command(
        sub, "mahler", cmd_mahler, "logarithmic Mahler measure of a polynomial", level=True
    )
    p.add_argument("--depth", type=int, default=0)
    _add_poly(p)

    p = _command(
        sub, "deninger-check", cmd_deninger_check, "compare m(P) with the Gamma-chain integral"
    )
    _add_poly(p)

    p = _command(
        sub, "boundary-integral", cmd_boundary_integral,
        "regulator integral over the chain boundary", level=True,
    )
    p.add_argument("--n", type=int, default=4, choices=[3, 4])
    p.add_argument("--file", default=None)

    p = _command(
        sub, "decomp-check", cmd_decomp_check,
        "verify the Steinberg decomposition exactly", prec=False,
    )
    p.add_argument("--n", type=int, default=4, choices=[3, 4])
    p.add_argument("--file", default=None)

    p = _command(sub, "residues", cmd_residues, "tame-symbol residue certificates", prec=False)
    p.add_argument("--file", default=None)
    p.add_argument("--divisors", default=None)
    p.add_argument("--trace", action="store_true")

    p = _command(sub, "dilog", cmd_dilog, "Bloch-Wigner dilogarithm D(z)")
    p.add_argument("--z", required=True)

    p = _command(sub, "lvalue", cmd_lvalue, "L(f, s) via the completed L-function")
    _add_newform(p)
    p.add_argument("--s", type=float, required=True)

    p = _command(sub, "lprime-minus1", cmd_lprime_minus1, "L'(f, -1) at the trivial zero")
    _add_newform(p)

    _command(sub, "zeta-prime-minus2", cmd_zeta_prime_minus2, "zeta'(-2)")

    p = _command(
        sub, "dirichlet", cmd_dirichlet, "Dirichlet L-values for quadratic characters"
    )
    p.add_argument("--d", type=int, required=True, help="discriminant, e.g. -3")
    p.add_argument("--s", type=float, default=2.0)
    p.add_argument("--deriv-neg1", action="store_true", dest="deriv_neg1")

    p = _command(sub, "detect", cmd_detect, "integer-relation detection (LLL)")
    p.add_argument("--values", default=None, help="JSON file with a list of numbers")
    p.add_argument("--height", type=int, default=100)

    p = _command(sub, "k3", cmd_k3, "elliptic-surface invariants over Q(t)", prec=False)
    p.add_argument("--curve", default=None, help="a1,a2,a3,a4,a6 as polynomials in t")
    p.add_argument("--rank", type=int, default=0)
    p.add_argument("--torsion", type=int, default=1)

    p = _command(
        sub, "verify-main", cmd_verify_main, "one-shot verification pipeline", level=True
    )
    p.add_argument(
        "--seed", type=int, default=12345, help="recorded in the manifest; no rule reads it"
    )

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        if e.code in (0, None):
            return 0
        print("input error: bad command line (see the usage above)", file=sys.stderr)
        return EXIT_INPUT
    t0 = time.time()
    try:
        payload, inputs, code = args.fn(args)
        payload["manifest"] = _manifest(args, inputs)
    except NumericalFailure as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, OSError, KeyError) as e:  # json.JSONDecodeError is a ValueError
        print(f"input error: {e}", file=sys.stderr)
        return EXIT_INPUT
    finally:
        print(f"wall time: {time.time() - t0:.3f} s", file=sys.stderr)
    try:
        text = json.dumps(payload, sort_keys=True, allow_nan=False)
    except ValueError as e:
        print(f"numeric failure: non-finite number in the result ({e})", file=sys.stderr)
        return EXIT_NUMERIC
    print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
