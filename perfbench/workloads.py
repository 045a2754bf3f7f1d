"""The two workloads: inputs made from a seed, the timed operations, and
checks of every operation against fixed references.

Each workload, and each of the two parts of ``direct_layers``, has three
steps. ``prepare(seed, data)`` builds the inputs and the references and is not
timed. ``execute(inputs, tracer)`` makes the calls into reglab and is the timed
part; an operation that raises is kept as a ``Failure``.
``evaluate(inputs, outputs)`` checks the outputs and returns a ``Verdict``.

References come from outside the program: the published constant m(P),
closed forms evaluated with mpmath, and fixed integers. The one exception is
L'(f7, -1), which has no closed form; it is checked against the program's own
40-digit value, anchored to m(P) through -6 L'(f7,-1) - (48/7) zeta'(-2).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import re
from dataclasses import dataclass, field

import mpmath
import numpy as np
from mpmath import mp

import reglab.cli
from reglab import k3, kernels, lattice, lfunctions, numerics, residues, symbolic
from reglab.quadrature import QuadratureConfig
from reglab.quadrature import mahler as quad_mahler

REF_DPS = 60
with mp.workdps(REF_DPS):
    # m((1+x)(1+y)(1+z)+t) = -6 L'(f7,-1) - (48/7) zeta'(-2), to 24 digits
    M_P = mpmath.mpf("0.604165831102476806712691")
    M_P_TOL = mpmath.mpf("1e-23")
    ZETA_PRIME_M2 = mpmath.zeta(-2, derivative=1)
    # L'(f7,-1) from the program at 45 and 50 digits, which agree; with ZETA_PRIME_M2
    # it reproduces M_P to 26 digits
    LPRIME_F7 = mpmath.mpf("-0.0658960685455823964175419901205245779387630125")
    # m(1+x+y) = (3/(2 pi)) Cl2(2 pi/3), Smith's identity via Clausen's function
    SMITH2 = 3 / (2 * mpmath.pi) * mpmath.clsin(2, 2 * mpmath.pi / 3)
    # m(1+x+y+z) = 7 zeta(3) / (2 pi^2)
    SMITH3 = 7 * mpmath.zeta(3) / (2 * mpmath.pi**2)
    L_CHI_M3_2 = 2 / mpmath.sqrt(3) * mpmath.clsin(2, 2 * mpmath.pi / 3)
    L_CHI_M4_2 = +mpmath.catalan
    LPRIME_CHI_M3 = mpmath.dirichlet(-1, [0, 1, -1], 1)

PLANTED = [7, 42, 48]
FIVE_TERM_PAIRS = 200
FIVE_TERM_TOL = 1e-25
KERNEL_TILES = 64
KERNEL_TOL = 1e-12
LVALUE_DIGITS = 30
RELATION_PERTURBATION = 1e-12


class Failure:
    """An operation that raised; it fails every check that reads it."""

    def __init__(self, exc):
        self.reason = f"{type(exc).__name__}: {exc}"


@dataclass
class Verdict:
    """Checked outcome of one pass."""

    checks: list = field(default_factory=list)  # (operation, ok, detail)
    quality: dict = field(default_factory=dict)  # digits, error ratios
    fingerprint: str = ""  # hash of the program's results, for determinism

    def check(self, op, ok, detail=""):
        self.checks.append((op, bool(ok), detail))
        return bool(ok)


def digits(err):
    """Correct decimal digits of a value with absolute error ``err``."""
    return -math.log10(max(float(abs(err)), 1e-60))


def _attempt(fn):
    try:
        return fn()
    except Exception as exc:  # any raise is a failed operation, recorded
        return Failure(exc)


def _fingerprint(obj):
    return hashlib.sha256(repr(obj).encode()).hexdigest()


def _is_planted(rep):
    return rep is not None and rep.coefficients in (PLANTED, [-c for c in PLANTED])


# -- verify_main ----------------------------------------------------------------------
# `reglab verify-main --level 40` in-process: the pipeline users run. The
# boundary integral dominates it (forms and one-point kernel calls).

_WALL_TIME = re.compile(r'"wall_time_s": [-+0-9.eE]+')


class VerifyMain:
    name = "verify_main"
    digit_keys = ("digits_direct", "digits_boundary", "digits_lvalue")

    @staticmethod
    def prepare(seed, data):
        return {"argv": ["verify-main", "--level", "40", "--seed", str(seed)]}

    @staticmethod
    def execute(inputs, tracer):
        out, err = io.StringIO(), io.StringIO()

        def run():
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                return reglab.cli.main(inputs["argv"])

        with tracer.operation("verify-main"), tracer.span("cli"):
            rc = _attempt(run)
        return {"rc": rc, "stdout": out.getvalue()}

    @staticmethod
    def evaluate(inputs, outputs):
        v = Verdict()
        rc, text = outputs["rc"], outputs["stdout"]
        try:
            doc = json.loads(text)
            stages = doc["stages"]
        except (ValueError, KeyError, TypeError):
            doc, stages = {}, {}
        v.check("exit", rc == 0 and doc.get("verdict") == "consistent",
                f"rc={getattr(rc, 'reason', rc)}")
        v.check("decomposition", stages.get("decomposition", {}).get("holds") is True)
        res = stages.get("residues", {})
        v.check(
            "residues",
            res.get("overall") == "trivial" and res.get("divisors") == 48,
            str(res),
        )
        with mp.workdps(REF_DPS):
            for op, tol, digits_key, ratio_key in (
                ("direct_measure", 5e-4, "digits_direct", "verify_direct"),
                ("boundary_integral", 1e-10, "digits_boundary", "verify_boundary"),
            ):
                st = stages.get(op)
                if not st:
                    v.check(op, False, "missing")
                    continue
                e = abs(mpmath.mpf(st["value"]) - M_P)
                v.check(op, e <= tol, f"err={float(e):.3e}")
                v.quality[digits_key] = digits(e)
                v.quality["engine.err_ratio." + ratio_key] = float(
                    mpmath.mpf(st["error_estimate"]) / max(e, mpmath.mpf("1e-60"))
                )
            lv = stages.get("lvalues", {})
            lv_digits = []
            for op, key, ref in (
                ("lprime_f7", "lprime_f7_minus1", LPRIME_F7),
                ("zeta_prime", "zeta_prime_minus2", ZETA_PRIME_M2),
            ):
                if key not in lv:
                    v.check(op, False, "missing")
                    continue
                e = abs(mpmath.mpf(lv[key]) - ref)
                v.check(op, e <= 1e-18, f"err={float(e):.3e}")
                lv_digits.append(digits(e))
        if lv_digits:
            v.quality["digits_lvalue"] = min(lv_digits)
        v.check("residual", stages.get("residual", {}).get("within_budget") is True)
        rel = stages.get("relation")
        found = isinstance(rel, dict) and rel.get("coefficients") == PLANTED
        v.check("relation", rel == "insufficient precision" or found, str(rel))
        v.quality["relation_found"] = int(found)
        v.fingerprint = _fingerprint(_WALL_TIME.sub("", text))
        return v


# -- direct_layers, first part: direct torus quadrature --------------------------------
# Engine and mahler only: one 2.36M-row tensor batch (memory-heavy) and two adaptive
# rules made of tens of thousands of one-point integrand calls.

DIRECT_CASES = (
    ("flagship_gl16", "(1+x)*(1+y)*(1+z)+t", "xyzt",
     dict(rule="gauss_legendre_tensor", level=16, depth=3), M_P, 1e-4),
    ("smith2_gk12", "1+x+y", "xy", dict(rule="adaptive_gk", prec=12), SMITH2, 1e-8),
    ("smith3_gk8", "1+x+y+z", "xyz", dict(rule="adaptive_gk", prec=8), SMITH3, 1e-6),
)


class DirectTorus:
    digit_keys = ("digits_direct",)

    @staticmethod
    def prepare(seed, data):
        return {
            "cases": [
                (name, symbolic.parse_poly(poly, list(vs)),
                 QuadratureConfig(seed=seed, **cfg), ref, tol)
                for name, poly, vs, cfg, ref, tol in DIRECT_CASES
            ]
        }

    @staticmethod
    def execute(inputs, tracer):
        out = {}
        for name, P, cfg, _, _ in inputs["cases"]:
            with tracer.operation(name):
                out[name] = _attempt(lambda: quad_mahler.mahler_measure(P, cfg))
        return out

    @staticmethod
    def evaluate(inputs, outputs):
        v = Verdict()
        dig = []
        results = []
        with mp.workdps(REF_DPS):
            for name, _, _, ref, tol in inputs["cases"]:
                res = outputs[name]
                if isinstance(res, Failure):
                    v.check(name, False, res.reason)
                    continue
                e = abs(res.value.mpf() - ref)
                v.check(name, e <= tol, f"err={float(e):.3e}")
                dig.append(digits(e))
                v.quality["engine.err_ratio." + name] = float(
                    res.error_estimate.mpf() / max(e, mpmath.mpf("1e-60"))
                )
                results.append((res.value.to_decimal(), res.error_estimate.to_decimal(),
                                res.evaluations))
        if dig:
            v.quality["digits_direct"] = min(dig)
        v.fingerprint = _fingerprint(results)
        return v


# -- direct_layers, second part: the 30-digit and exact layers -------------------------
# mp dilogarithm, L-values, LLL, decomposition, residue certificates and K3
# invariants, which are a small share of verify_main.


def _five_term_pairs(rng, count):
    pairs = []
    while len(pairs) < count:
        x = complex(rng.normal(), rng.normal()) * 0.7
        y = complex(rng.normal(), rng.normal()) * 0.7
        if abs(1 - x * y) < 1e-2 or abs(x) < 1e-3 or abs(y) < 1e-3:
            continue
        pairs.append((x, y))
    return pairs


def _five_term(x, y):
    """The five D values at 30 digits and their sum at 160 bits."""
    with mp.workprec(160):
        x, y = mpmath.mpc(x), mpmath.mpc(y)
        args = [x, y, (1 - x) / (1 - x * y), 1 - x * y, (1 - y) / (1 - x * y)]
        vals = [numerics.bloch_wigner(a, LVALUE_DIGITS) for a in args]
        resid = sum(d.mpf() for d in vals)
    return [complex(a) for a in args], vals, resid


def _planted_relation(sign):
    with mp.workprec(160):
        lp = lfunctions.lprime_minus1(lfunctions.F7, 32).mpf()
        zp = lfunctions.zeta_prime_minus2(32).mpf()
        value = -6 * lp - mpmath.mpf(48) / 7 * zp
        planted = lattice.find_integer_relation([value, lp, zp], 64, LVALUE_DIGITS)
        bent = value + sign * mpmath.mpf(RELATION_PERTURBATION)
        perturbed = lattice.find_integer_relation([bent, lp, zp], 64, LVALUE_DIGITS)
    return planted, perturbed


LVALUE_CASES = (
    ("zeta_prime_m2", lambda: lfunctions.zeta_prime_minus2(LVALUE_DIGITS), ZETA_PRIME_M2),
    ("L_chi_m3_2", lambda: lfunctions.dirichlet_L(lfunctions.CHI_M3, 2, LVALUE_DIGITS),
     L_CHI_M3_2),
    ("L_chi_m4_2", lambda: lfunctions.dirichlet_L(lfunctions.CHI_M4, 2, LVALUE_DIGITS),
     L_CHI_M4_2),
    ("Lprime_chi_m3_m1",
     lambda: lfunctions.dirichlet_Lprime_neg(lfunctions.CHI_M3, LVALUE_DIGITS),
     LPRIME_CHI_M3),
)


class HighPrecision:
    digit_keys = ("numerics.five_term_digits", "digits_lvalue")

    @staticmethod
    def prepare(seed, data):
        rng = np.random.default_rng(seed)
        return {
            "pairs": _five_term_pairs(rng, FIVE_TERM_PAIRS),
            "sign": int(rng.choice([-1, 1])),
            **data,
        }

    @staticmethod
    def execute(inputs, tracer):
        out = {}
        for i, (x, y) in enumerate(inputs["pairs"]):
            with tracer.operation(f"five_term[{i}]"):
                out[f"five_term[{i}]"] = _attempt(lambda: _five_term(x, y))
        points = [
            (z, d) for r in out.values() if not isinstance(r, Failure) for z, d in zip(r[0], r[1])
        ]
        z = np.tile(np.array([p[0] for p in points], dtype=np.complex128), KERNEL_TILES)
        with tracer.operation("kernel_batch"):
            out["kernel_batch"] = _attempt(lambda: kernels.bloch_wigner(z))
        out["kernel_reference"] = [p[1] for p in points]
        with tracer.operation("lprime_f7"):
            out["lprime_f7"] = _attempt(
                lambda: (lfunctions.lprime_minus1(lfunctions.F7, LVALUE_DIGITS),
                         lfunctions.lprime_minus1(lfunctions.F7, 40))
            )
        for name, fn, _ in LVALUE_CASES:
            with tracer.operation(name):
                out[name] = _attempt(fn)
        with tracer.operation("relation"):
            out["relation"] = _attempt(lambda: _planted_relation(inputs["sign"]))
        for n in (3, 4):
            with tracer.operation(f"decomposition_n{n}"):
                out[f"decomposition_n{n}"] = _attempt(
                    lambda: symbolic.check_decomposition(inputs[f"decomposition_n{n}"])
                )
        with tracer.operation("residues"):
            out["residues"] = _attempt(
                lambda: residues.certify_all_residues(
                    symbolic.build_xi(inputs["decomposition_n4"])[0], inputs["divisors"]
                )
            )
        with tracer.operation("k3"):
            out["k3"] = _attempt(lambda: k3.surface_invariants(*inputs["k3_curve"]))
        return out

    @staticmethod
    def evaluate(inputs, outputs):
        v = Verdict()
        results = []
        worst = mpmath.mpf(0)
        for i in range(len(inputs["pairs"])):
            op = f"five_term[{i}]"
            r = outputs[op]
            if isinstance(r, Failure):
                v.check(op, False, r.reason)
                continue
            worst = max(worst, abs(r[2]))
            v.check(op, abs(r[2]) < FIVE_TERM_TOL, f"residual={float(abs(r[2])):.2e}")
            results.append([d.to_decimal() for d in r[1]])
        v.quality["numerics.five_term_digits"] = digits(worst)

        batch = outputs["kernel_batch"]
        if isinstance(batch, Failure):
            v.check("kernel_batch", False, batch.reason)
        else:
            ref = np.tile(np.array([float(d) for d in outputs["kernel_reference"]]), KERNEL_TILES)
            max_err = float(np.max(np.abs(batch - ref))) if len(ref) else math.inf
            v.check("kernel_batch", max_err <= KERNEL_TOL, f"max_err={max_err:.2e}")
            v.quality["kernels.max_err"] = max_err
            results.append(batch.tobytes().hex())

        lv_digits = []
        with mp.workdps(REF_DPS):
            r = outputs["lprime_f7"]
            if isinstance(r, Failure):
                v.check("lprime_f7", False, r.reason)
            else:
                e = abs(r[0].mpf() - r[1].mpf())
                anchor = abs(-6 * r[1].mpf() - mpmath.mpf(48) / 7 * ZETA_PRIME_M2 - M_P)
                v.check(
                    "lprime_f7",
                    e <= 10.0 ** (3 - LVALUE_DIGITS) and anchor <= M_P_TOL,
                    f"self-check err={float(e):.2e}, m(P) anchor={float(anchor):.2e}",
                )
                lv_digits.append(digits(e))
                results.append(r[0].to_decimal())
            for name, _, ref in LVALUE_CASES:
                r = outputs[name]
                if isinstance(r, Failure):
                    v.check(name, False, r.reason)
                    continue
                e = abs(r.mpf() - ref)
                v.check(name, e <= 10.0 ** (3 - LVALUE_DIGITS), f"err={float(e):.2e}")
                lv_digits.append(digits(e))
                results.append(r.to_decimal())
        if lv_digits:
            v.quality["digits_lvalue"] = min(lv_digits)

        r = outputs["relation"]
        if isinstance(r, Failure):
            v.check("relation_planted", False, r.reason)
            v.check("relation_perturbed", False, r.reason)
        else:
            planted, perturbed = r
            found = v.check("relation_planted", _is_planted(planted), str(planted))
            v.check("relation_perturbed", perturbed is None, str(perturbed))
            v.quality["relation_found"] = int(found)
            results.append((planted and planted.coefficients, perturbed))

        for n in (3, 4):
            r = outputs[f"decomposition_n{n}"]
            ok = not isinstance(r, Failure) and r[0] is True
            v.check(f"decomposition_n{n}", ok, getattr(r, "reason", ""))

        r = outputs["residues"]
        if isinstance(r, Failure):
            v.check("residues", False, r.reason)
        else:
            ok = (
                r["overall"] == "trivial"
                and len(r["divisors"]) == 48
                and all(c["reasons"] for c in r["divisors"])
            )
            v.check("residues", ok, r["overall"])
            results.append([c["verdict"] for c in r["divisors"]])

        r = outputs["k3"]
        if isinstance(r, Failure):
            v.check("k3", False, r.reason)
        else:
            v.check(
                "k3",
                (r.rho, r.det_T, r.level) == (20, 7, 7),
                f"rho={r.rho}, detT={r.det_T}, level={r.level}",
            )
            results.append((r.rho, r.det_T, r.level))
        v.fingerprint = _fingerprint(results)
        return v


# -- direct_layers --------------------------------------------------------------------
# The layers verify_main barely reaches, called directly: the two parts above, one
# after the other in each pass. They share one workload so that each of its runs is
# long enough to be steady on a shared host; the per-layer metrics keep them apart.


class DirectLayers:
    name = "direct_layers"
    parts = (DirectTorus, HighPrecision)
    digit_keys = DirectTorus.digit_keys + HighPrecision.digit_keys

    @classmethod
    def prepare(cls, seed, data):
        return [part.prepare(seed, data) for part in cls.parts]

    @classmethod
    def execute(cls, inputs, tracer):
        return [part.execute(i, tracer) for part, i in zip(cls.parts, inputs)]

    @classmethod
    def evaluate(cls, inputs, outputs):
        v = Verdict()
        for part, i, o in zip(cls.parts, inputs, outputs):
            pv = part.evaluate(i, o)
            v.checks += pv.checks
            v.quality.update(pv.quality)
            v.fingerprint += pv.fingerprint
        return v


WORKLOADS = {w.name: w for w in (VerifyMain, DirectLayers)}
