"""Command-line interface.

JSON results go to stdout, human-readable diagnostics to stderr. Exit codes:
0 success, 2 input error, 3 numeric non-convergence. Every run carries a
manifest (command, config, library versions, seed, input hashes), so outputs
are reproducible byte-for-byte from the manifest alone; the wall time goes to
stderr.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import re
import sys
import time
from fractions import Fraction

import mpmath
import numpy as np
import scipy
import sympy

from . import __version__
from . import lfunctions
from .k3 import (
    WeierstrassCurveQt,
    data_dir,
    load_curve,
    surface_invariants,
)
from .lattice import find_integer_relation
from .lfunctions import (
    CHI_M3,
    CHI_M4,
    CHI_M7,
    DirichletChar,
    EtaProduct,
    NewformSpec,
    PRESETS,
    completed_lambda,
    dirichlet_L,
    dirichlet_Lprime_neg,
    lprime_minus1,
    lvalue,
    zeta_prime_minus2,
)
from .numerics import HPReal, bloch_wigner, li2
from .quadrature import (
    QuadratureConfig,
    RootFindingError,
    deninger_gamma_check,
    mahler_measure,
    regulator_boundary_integral,
)
from .residues import certify_all_residues, load_divisors
from .symbolic import build_xi, check_decomposition, load_decomposition, parse_poly

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERIC = 3


def _hash_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        h.update(fh.read())
    return h.hexdigest()[:16]


def _manifest(args, inputs=()):
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
            "scipy": scipy.__version__,
            "sympy": sympy.__version__,
            "mpmath": mpmath.__version__,
        },
        "seed": getattr(args, "seed", None),
        "input_hashes": {os.path.basename(p): _hash_file(p) for p in inputs},
    }


def _emit(payload: dict, args) -> None:
    indent = getattr(args, "json_indent", None)
    print(json.dumps(payload, indent=indent, sort_keys=True))


def _quad_config(args) -> QuadratureConfig:
    return QuadratureConfig(
        rule=args.rule,
        level=args.level,
        depth=args.depth,
        seed=args.seed,
        prec=args.prec,
    )


def _infer_vars(text: str):
    seen = []
    for name in re.findall(r"[A-Za-z_][A-Za-z_0-9]*", text):
        if name not in seen:
            seen.append(name)
    return seen


def _parse_complex(text: str) -> complex:
    return complex(text.replace("i", "j").replace(" ", ""))


def _parse_newform(args) -> NewformSpec:
    spec = getattr(args, "newform", None) or "f7"
    if spec in PRESETS:
        return PRESETS[spec]
    if spec.startswith("eta:"):
        factors = []
        for part in spec[4:].split(","):
            d, _, r = part.partition("^")
            factors.append((int(d), int(r or 1)))
        level = getattr(args, "nf_level", None)
        weight = getattr(args, "weight", None)
        ep = EtaProduct(tuple(factors), level=level)
        return NewformSpec(
            level or max(d for d, _ in factors),
            weight if weight is not None else int(ep.weight),
            getattr(args, "eps", 1),
            ep,
        )
    raise ValueError(f"unknown newform spec {spec!r} (use a preset or eta:d^r,...)")


def _num(value: HPReal, prec: int, error=None) -> dict:
    out = {"value": value.to_decimal(), "prec": prec}
    if error is None:
        out["exact"] = False
    else:
        out["error_estimate"] = (
            error.to_decimal() if isinstance(error, HPReal) else error
        )
    return out


# -- subcommands ----------------------------------------------------------------------


def cmd_mahler(args):
    variables = args.vars.split(",") if args.vars else _infer_vars(args.poly)
    P = parse_poly(args.poly, variables)
    if args.rule is None:
        # the inner Jensen integrand has kinks where root moduli cross 1,
        # so adaptive quadrature is the right default in low dimension
        args.rule = "adaptive_gk" if len(variables) <= 3 else "gauss_legendre_tensor"
    res = mahler_measure(P, _quad_config(args))
    _emit(
        {
            "poly": args.poly,
            "variables": variables,
            **_num(res.value, args.prec, res.error_estimate),
            "evaluations": res.evaluations,
            "manifest": _manifest(args),
        },
        args,
    )
    return EXIT_OK


def cmd_deninger_check(args):
    variables = args.vars.split(",") if args.vars else _infer_vars(args.poly)
    P = parse_poly(args.poly, variables)
    cfg = _quad_config(args)
    direct = mahler_measure(P, cfg)
    chain = deninger_gamma_check(P, cfg)
    delta = abs(float(direct.value) - float(chain.value))
    budget = float(direct.error_estimate) + float(chain.error_estimate) + 10 ** (
        2 - args.prec
    )
    _emit(
        {
            "poly": args.poly,
            "direct": _num(direct.value, args.prec, direct.error_estimate),
            "chain": _num(chain.value, args.prec, chain.error_estimate),
            "difference": delta,
            "consistent": delta <= max(budget, 1e-6),
            "manifest": _manifest(args),
        },
        args,
    )
    return EXIT_OK


def _load_xi(args):
    name = "decomposition_n3.json" if args.n == 3 else "decomposition_n4.json"
    path = args.file or os.path.join(data_dir(), name)
    doc = load_decomposition(path)
    return doc, path


def cmd_boundary_integral(args):
    doc, path = _load_xi(args)
    xi, xi_star, lam = build_xi(doc)
    res = regulator_boundary_integral(lam, _quad_config(args))
    _emit(
        {
            "n": doc.n,
            **_num(res.value, args.prec, res.error_estimate),
            "evaluations": res.evaluations,
            "manifest": _manifest(args, [path]),
        },
        args,
    )
    return EXIT_OK


def cmd_decomp_check(args):
    doc, path = _load_xi(args)
    equal, diff = check_decomposition(doc)
    payload = {
        "n": doc.n,
        "exact": True,
        "holds": equal,
        "difference": str(diff) if not equal else "0",
        "manifest": _manifest(args, [path]),
    }
    _emit(payload, args)
    return EXIT_OK if equal else EXIT_INPUT


def cmd_residues(args):
    doc, dpath = _load_xi(args)
    xi, _, _ = build_xi(doc)
    div_path = args.divisors or os.path.join(data_dir(), "divisors_n4.json")
    divisors = load_divisors(div_path)
    report = certify_all_residues(xi, divisors)
    if not args.trace:
        for cert in report["divisors"]:
            cert.pop("terms", None)
    report["manifest"] = _manifest(args, [dpath, div_path])
    _emit(report, args)
    return EXIT_OK if report["overall"] == "trivial" else EXIT_INPUT


def cmd_dilog(args):
    z = _parse_complex(args.z)
    D = bloch_wigner(complex(z), args.prec)
    L = li2(complex(z), args.prec)
    _emit(
        {
            "z": args.z,
            **_num(D, args.prec, 10.0 ** (2 - args.prec)),
            "li2_re": L.re.to_decimal(),
            "li2_im": L.im.to_decimal(),
            "manifest": _manifest(args),
        },
        args,
    )
    return EXIT_OK


def cmd_lvalue(args):
    f = _parse_newform(args)
    lam = completed_lambda(f, args.s, args.prec, A=args.split)
    L = lvalue(f, args.s, args.prec)
    _emit(
        {
            "newform": args.newform or "f7",
            "level": f.level,
            "weight": f.weight,
            "eps": f.eps,
            "s": args.s,
            **_num(L, args.prec, 10.0 ** (5 - args.prec)),
            "completed_lambda": lam.to_decimal(),
            "manifest": _manifest(args),
        },
        args,
    )
    return EXIT_OK


def cmd_lprime_minus1(args):
    f = _parse_newform(args)
    val = lprime_minus1(f, args.prec)
    _emit(
        {
            "newform": args.newform or "f7",
            "level": f.level,
            "weight": f.weight,
            **_num(val, args.prec, 10.0 ** (5 - args.prec)),
            "manifest": _manifest(args),
        },
        args,
    )
    return EXIT_OK


def cmd_zeta_prime_minus2(args):
    val = zeta_prime_minus2(args.prec)
    _emit({**_num(val, args.prec, 10.0 ** (2 - args.prec)), "manifest": _manifest(args)}, args)
    return EXIT_OK


def cmd_dirichlet(args):
    chi = DirichletChar.quadratic(args.d)
    payload = {"d": args.d, "modulus": chi.modulus, "parity": chi.parity}
    if args.deriv_neg1:
        val = dirichlet_Lprime_neg(chi, args.prec)
        payload["quantity"] = "L'(chi, -1)"
    else:
        val = dirichlet_L(chi, args.s, args.prec)
        payload["quantity"] = f"L(chi, {args.s})"
    payload.update(_num(val, args.prec, 10.0 ** (2 - args.prec)))
    payload["manifest"] = _manifest(args)
    _emit(payload, args)
    return EXIT_OK


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
    payload = {
        "n_values": len(values),
        "height": args.height,
        "prec": args.prec,
        "relation": rep.to_dict() if rep else None,
        "note": "numerical evidence only, not a proof" if rep else "no relation found",
        "manifest": _manifest(args, inputs),
    }
    _emit(payload, args)
    return EXIT_OK


def cmd_k3(args):
    inputs = []
    if args.curve:
        curve = WeierstrassCurveQt.from_string(args.curve)
        rank, torsion = args.rank, args.torsion
    else:
        path = os.path.join(data_dir(), "k3_curve.json")
        curve, rank, torsion = load_curve(path)
        inputs.append(path)
    disc, c4, c6 = curve.discriminant()
    inv = surface_invariants(curve, rank, torsion, require_k3=not args.no_k3)
    payload = inv.to_dict()
    payload["delta"] = sympy.sstr(sympy.factor(disc))
    payload["exact"] = True
    payload["manifest"] = _manifest(args, inputs)
    _emit(payload, args)
    return EXIT_OK


def cmd_verify_main(args):
    diag = lambda *a: print(*a, file=sys.stderr)
    report = {"stages": {}}
    inputs = []

    # stage 1: exact symbolic decomposition
    dpath = os.path.join(data_dir(), "decomposition_n4.json")
    inputs.append(dpath)
    doc = load_decomposition(dpath)
    equal, diff = check_decomposition(doc)
    if not equal:
        diag(f"stage 1 (decomposition) FAILED; difference = {diff}")
        report["stages"]["decomposition"] = {"holds": False, "difference": str(diff)}
        report["verdict"] = "abort: decomposition"
        _emit(report, args)
        return EXIT_INPUT
    report["stages"]["decomposition"] = {"holds": True, "exact": True}
    diag("stage 1: decomposition holds exactly")

    # stage 2: residue certificates
    xi, xi_star, lam = build_xi(doc)
    vpath = os.path.join(data_dir(), "divisors_n4.json")
    inputs.append(vpath)
    cert = certify_all_residues(xi, load_divisors(vpath))
    report["stages"]["residues"] = {
        "overall": cert["overall"],
        "divisors": len(cert["divisors"]),
    }
    if cert["overall"] != "trivial":
        diag(f"stage 2 (residues) FAILED: {cert['overall']}")
        report["verdict"] = "abort: residues"
        _emit(report, args)
        return EXIT_INPUT
    diag(f"stage 2: all {len(cert['divisors'])} residue certificates trivial")

    # stage 3: direct Mahler measure
    P = parse_poly("(1+x)*(1+y)*(1+z)+t", ["x", "y", "z", "t"])
    cfg3 = QuadratureConfig(
        rule="gauss_legendre_tensor",
        level=max(8, args.level // 4),
        depth=max(3, args.depth),
        seed=args.seed,
        prec=args.prec,
    )
    direct = mahler_measure(P, cfg3)
    report["stages"]["direct_measure"] = _num(direct.value, args.prec, direct.error_estimate)
    diag(f"stage 3: m(P) = {float(direct.value):.10f} (direct)")

    # stage 4: boundary regulator integral
    if args.skip_boundary:
        boundary = None
        diag("stage 4: skipped")
    else:
        cfg4 = _quad_config(args)
        boundary = regulator_boundary_integral(lam, cfg4)
        report["stages"]["boundary_integral"] = _num(
            boundary.value, args.prec, boundary.error_estimate
        )
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
        "within_budget": residual <= max(budget, 1e-4),
    }
    diag(f"stage 6: residual = {residual:.3e}")
    if boundary is not None:
        pairing_delta = abs(float(direct.value) - float(boundary.value))
        report["stages"]["pairing_delta"] = pairing_delta
        diag(f"          |direct - boundary| = {pairing_delta:.3e}")

    # stage 7: relation detection at the achieved precision
    best = boundary if boundary is not None else direct
    err = float(best.error_estimate) + 1e-300
    achieved = max(4, min(13, int(-math.log10(err))))
    try:
        rep = find_integer_relation(
            [mpmath.mpf(float(best.value)), Lp.mpf(), zp.mpf()],
            max_height=args.height,
            prec=achieved,
        )
    except ValueError:
        rep = None
    report["stages"]["relation"] = rep.to_dict() if rep else "insufficient precision"
    if rep:
        diag(f"stage 7: relation {rep.coefficients} (confidence {rep.confidence:.1f})")
    else:
        diag(f"stage 7: no relation at achieved precision ({achieved} digits)")

    ok = report["stages"]["residual"]["within_budget"] and (
        rep is None or rep.coefficients in ([7, 42, 48], [-7, -42, -48])
    )
    report["verdict"] = "consistent" if ok else "inconsistent"
    report["manifest"] = _manifest(args, inputs)
    _emit(report, args)
    return EXIT_OK if ok else EXIT_NUMERIC


# -- parser ---------------------------------------------------------------------------


def _add_common(p, prec=True, quad=False, rule_default="gauss_legendre_tensor"):
    """Register only the shared options the subcommand reads."""
    if prec:
        p.add_argument("--prec", type=int, default=15)
    p.add_argument("--json-indent", type=int, default=None, dest="json_indent")
    if quad:
        p.add_argument("--seed", type=int, default=12345)
        p.add_argument("--level", type=int, default=64)
        p.add_argument("--depth", type=int, default=0)
        p.add_argument(
            "--rule",
            default=rule_default,
            choices=["gauss_legendre_tensor", "adaptive_gk", "qmc_sobol"],
        )


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="reglab",
        description="Mahler measures, regulator integrals, and L-value verification",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mahler", help="logarithmic Mahler measure of a polynomial")
    p.add_argument("--poly", required=True)
    p.add_argument("--vars", default=None)
    _add_common(p, quad=True, rule_default=None)
    p.set_defaults(fn=cmd_mahler)

    p = sub.add_parser("deninger-check", help="compare m(P) with the Gamma-chain integral")
    p.add_argument("--poly", required=True)
    p.add_argument("--vars", default=None)
    _add_common(p, quad=True)
    p.set_defaults(fn=cmd_deninger_check)

    p = sub.add_parser("boundary-integral", help="regulator integral over the chain boundary")
    p.add_argument("--n", type=int, default=4, choices=[3, 4])
    p.add_argument("--file", default=None)
    _add_common(p, quad=True)
    p.set_defaults(fn=cmd_boundary_integral)

    p = sub.add_parser("decomp-check", help="verify the Steinberg decomposition exactly")
    p.add_argument("--n", type=int, default=4, choices=[3, 4])
    p.add_argument("--file", default=None)
    _add_common(p, prec=False)
    p.set_defaults(fn=cmd_decomp_check)

    p = sub.add_parser("residues", help="tame-symbol residue certificates")
    p.add_argument("--n", type=int, default=4, choices=[4])
    p.add_argument("--file", default=None)
    p.add_argument("--divisors", default=None)
    p.add_argument("--trace", action="store_true")
    _add_common(p, prec=False)
    p.set_defaults(fn=cmd_residues)

    p = sub.add_parser("dilog", help="Bloch-Wigner dilogarithm D(z)")
    p.add_argument("--z", required=True)
    _add_common(p)
    p.set_defaults(fn=cmd_dilog)

    p = sub.add_parser("lvalue", help="L(f, s) via the completed L-function")
    p.add_argument("--newform", default="f7")
    p.add_argument("--level", type=int, default=None, dest="nf_level")
    p.add_argument("--weight", type=int, default=None)
    p.add_argument("--eps", type=int, default=1, choices=[1, -1])
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--split", type=float, default=1.0)
    _add_common(p)
    p.set_defaults(fn=cmd_lvalue)

    p = sub.add_parser("lprime-minus1", help="L'(f, -1) at the trivial zero")
    p.add_argument("--newform", default="f7")
    p.add_argument("--level", type=int, default=None, dest="nf_level")
    p.add_argument("--weight", type=int, default=None)
    p.add_argument("--eps", type=int, default=1, choices=[1, -1])
    _add_common(p)
    p.set_defaults(fn=cmd_lprime_minus1)

    p = sub.add_parser("zeta-prime-minus2", help="zeta'(-2)")
    _add_common(p)
    p.set_defaults(fn=cmd_zeta_prime_minus2)

    p = sub.add_parser("dirichlet", help="Dirichlet L-values for quadratic characters")
    p.add_argument("--d", type=int, required=True, help="discriminant, e.g. -3")
    p.add_argument("--s", type=float, default=2.0)
    p.add_argument("--deriv-neg1", action="store_true", dest="deriv_neg1")
    _add_common(p)
    p.set_defaults(fn=cmd_dirichlet)

    p = sub.add_parser("detect", help="integer-relation detection (LLL)")
    p.add_argument("--values", default=None, help="JSON file with a list of numbers")
    p.add_argument("--height", type=int, default=100)
    _add_common(p)
    p.set_defaults(fn=cmd_detect)

    p = sub.add_parser("k3", help="elliptic-surface invariants over Q(t)")
    p.add_argument("--curve", default=None, help="a1,a2,a3,a4,a6 as polynomials in t")
    p.add_argument("--rank", type=int, default=0)
    p.add_argument("--torsion", type=int, default=1)
    p.add_argument("--no-k3", action="store_true", dest="no_k3")
    _add_common(p, prec=False)
    p.set_defaults(fn=cmd_k3)

    p = sub.add_parser("verify-main", help="one-shot verification pipeline")
    p.add_argument("--skip-boundary", action="store_true", dest="skip_boundary")
    p.add_argument("--height", type=int, default=64)
    _add_common(p, quad=True)
    p.set_defaults(fn=cmd_verify_main)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return EXIT_INPUT if e.code not in (0, None) else 0
    t0 = time.time()
    try:
        return args.fn(args)
    except RootFindingError as e:
        print(f"numeric non-convergence: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as e:
        print(f"input error: {e}", file=sys.stderr)
        return EXIT_INPUT
    finally:
        print(f"wall time: {time.time() - t0:.3f} s", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
