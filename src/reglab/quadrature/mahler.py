"""Mahler measures: exact-precision univariate values via Aberth-Ehrlich
root finding, and multivariate values as iterated torus integrals with the
univariate measure as the inner integral (Jensen's formula).

m(p) = log|lead(p)| + sum over roots of log max(1, |root|);
m(P) = (2*pi)^-(n-1) times the integral over the torus of the inner measure
in the last variable.
"""

from __future__ import annotations

import math
from typing import Sequence

import mpmath
import numpy as np

from ..forms import Dual, eta_eval
from ..numerics import HPReal, _bits
from ..symbolic import MultiPoly
from .engine import QuadratureConfig, QuadratureResult, integrate_box, make_result


class RootFindingError(RuntimeError):
    def __init__(self, message, residuals=None):
        super().__init__(message)
        self.residuals = residuals


# -- Aberth-Ehrlich, arbitrary precision ----------------------------------------------


def _aberth_mp(coeffs, prec_bits: int):
    """Simultaneous root iteration; coeffs ascending, lead nonzero, deg >= 1."""
    d = len(coeffs) - 1
    with mpmath.mp.workprec(prec_bits + 20):
        c = [mpmath.mpc(x) for x in coeffs]
        lead = c[-1]
        radius = 1 + max(abs(x / lead) for x in c[:-1])
        z = [
            radius * mpmath.exp(2j * mpmath.pi * (k + mpmath.mpf(1) / 4) / d) * mpmath.mpf("0.9")
            for k in range(d)
        ]
        dc = [c[k] * k for k in range(1, d + 1)]

        def horner(cs, x):
            acc = mpmath.mpc(0)
            for a in reversed(cs):
                acc = acc * x + a
            return acc

        tol = mpmath.mpf(2) ** (-prec_bits)
        for _ in range(200):
            moved = mpmath.mpf(0)
            for i in range(d):
                p = horner(c, z[i])
                dp = horner(dc, z[i])
                if dp == 0:
                    z[i] = z[i] * (1 + tol) + tol
                    continue
                w = p / dp
                s = mpmath.mpc(0)
                for j in range(d):
                    if j != i:
                        s += 1 / (z[i] - z[j])
                denom = 1 - w * s
                step = w if denom == 0 else w / denom
                z[i] = z[i] - step
                moved = max(moved, abs(step))
            if moved < tol * max(1, radius):
                break
        scale = max(abs(x) for x in c)
        residuals = [abs(horner(c, zi)) / scale for zi in z]
        if max(residuals) > mpmath.mpf(2) ** (-prec_bits // 2):
            raise RootFindingError(
                "root iteration did not converge", [float(r) for r in residuals]
            )
        return z


def univariate_mahler(p: Sequence[complex], prec: int = 15) -> HPReal:
    """Mahler measure of a univariate polynomial (ascending coefficients)."""
    coeffs = list(p)
    if all(c == 0 for c in coeffs):
        raise ValueError("zero polynomial has no Mahler measure")
    while coeffs and coeffs[0] == 0:  # m(x^k q) = m(q)
        coeffs.pop(0)
    while coeffs[-1] == 0:
        coeffs.pop()
    bits = _bits(prec)
    with mpmath.mp.workprec(bits + 20):
        if len(coeffs) == 1:
            return HPReal(mpmath.log(abs(mpmath.mpc(coeffs[0]))), prec)
        roots = _aberth_mp(coeffs, bits)
        total = mpmath.log(abs(mpmath.mpc(coeffs[-1])))
        for r in roots:
            a = abs(r)
            if a > 1:
                total += mpmath.log(a)
        return HPReal(total, prec)


# -- batched double-precision roots ---------------------------------------------------


def _horner_batch(C, z):
    acc = np.zeros_like(z)
    for k in range(C.shape[1] - 1, -1, -1):
        acc = acc * z + C[:, k][:, None]
    return acc


def _aberth_batch(C: np.ndarray) -> np.ndarray:
    """Roots of many same-degree polynomials; C ascending, shape (N, d+1)."""
    N, d1 = C.shape
    d = d1 - 1
    lead = C[:, -1]
    radius = 1 + np.max(np.abs(C[:, :-1] / lead[:, None]), axis=1)
    ang = 2 * np.pi * (np.arange(d) + 0.25) / d
    z = 0.9 * radius[:, None] * np.exp(1j * ang)[None, :]
    Cd = C[:, 1:] * np.arange(1, d + 1)[None, :]
    for _ in range(80):
        p = _horner_batch(C, z)
        dp = _horner_batch(Cd, z)
        w = p / np.where(dp == 0, 1e-300, dp)
        diff = z[:, :, None] - z[:, None, :]
        inv = 1.0 / np.where(diff == 0, np.inf, diff)  # diagonal contributes 0
        s = inv.sum(axis=2)
        denom = 1 - w * s
        step = w / np.where(np.abs(denom) < 1e-300, 1e-300, denom)
        z = z - step
        if np.max(np.abs(step)) < 1e-14 * np.max(radius):
            break
    return z


def _inner_mahler_batch(C: np.ndarray) -> np.ndarray:
    """log|lead| + sum log+ |root| for each row of ascending coefficients."""
    N, d1 = C.shape
    out = np.zeros(N)
    scale = np.max(np.abs(C), axis=1)
    lead = C[:, -1]
    degenerate = np.abs(lead) < 1e-12 * scale
    good = ~degenerate
    if d1 == 1:
        return np.log(np.abs(lead))
    if np.any(good):
        z = _aberth_batch(C[good])
        a = np.abs(z)
        out[good] = np.log(np.abs(lead[good])) + np.sum(
            np.where(a > 1, np.log(a), 0.0), axis=1
        )
    for idx in np.nonzero(degenerate)[0]:
        # leading coefficient vanished at this node: trim and use numpy
        c = np.trim_zeros(C[idx], "b")
        if len(c) <= 1:
            out[idx] = np.log(max(np.abs(C[idx]).max(), 1e-300))
            continue
        r = np.roots(c[::-1])
        out[idx] = np.log(np.abs(c[-1])) + np.sum(np.log(np.maximum(np.abs(r), 1.0)))
    return out


# -- multivariate Mahler measure -----------------------------------------------------


def _coeff_table(P: MultiPoly):
    """Coefficients of P as polynomials in its last variable."""
    last = len(P.vars) - 1
    shift = min((e[last] for e in P.terms), default=0)
    degree = max((e[last] for e in P.terms), default=0) - shift
    slices = [dict() for _ in range(degree + 1)]
    for exps, c in P.terms.items():
        k = exps[last] - shift
        slices[k][exps[:last]] = slices[k].get(exps[:last], 0) + c
    return slices, degree


def _eval_slices(slices, thetas: np.ndarray) -> np.ndarray:
    """Evaluate coefficient slices at x_j = exp(i theta_j); (N, deg+1)."""
    N = thetas.shape[0]
    C = np.zeros((N, len(slices)), dtype=np.complex128)
    for k, terms in enumerate(slices):
        for exps, c in terms.items():
            mono = np.ones(N, dtype=np.complex128) * complex(c)
            for j, e in enumerate(exps):
                if e:
                    mono = mono * np.exp(1j * e * thetas[:, j])
            C[:, k] += mono
    return C


def mahler_measure(P: MultiPoly, cfg: QuadratureConfig | None = None) -> QuadratureResult:
    """Logarithmic Mahler measure of a (Laurent) polynomial in <= 4 variables."""
    cfg = cfg or QuadratureConfig()
    nv = len(P.vars)
    if P.is_zero():
        raise ValueError("zero polynomial")
    if nv == 0 or P.is_constant():
        v = math.log(abs(float(P.constant_value()))) if not P.is_zero() else 0.0
        return make_result(v, 0.0, 0, cfg)
    if nv > 4:
        raise ValueError("at most 4 variables supported")
    slices, degree = _coeff_table(P)
    if nv == 1:
        coeffs = [complex(terms.get((), 0)) for terms in slices]
        val = univariate_mahler(coeffs, cfg.prec)
        return QuadratureResult(val, HPReal(10.0 ** (1 - cfg.prec), cfg.prec), degree, cfg)

    def f(points):
        C = _eval_slices(slices, points)
        return _inner_mahler_batch(C)

    dims = nv - 1
    value, err, evals = integrate_box(f, -math.pi, math.pi, dims, cfg)
    scale = (2 * math.pi) ** dims
    return make_result(value / scale, err / scale, evals, cfg)


# -- Deninger chain consistency check -------------------------------------------------


def deninger_gamma_check(P: MultiPoly, cfg: QuadratureConfig | None = None) -> QuadratureResult:
    """m(leading coeff) + (-1)^(n-1)/(2 pi i)^(n-1) int_Gamma eta, for n <= 3.

    Gamma is the part of the zero locus over the torus with |x_n| >= 1; eta
    is summed over all such sheets. Serves as a consistency check against
    mahler_measure.
    """
    cfg = cfg or QuadratureConfig()
    nv = len(P.vars)
    slices, degree = _coeff_table(P)
    if nv == 1:
        coeffs = [complex(terms.get((), 0)) for terms in slices]
        val = univariate_mahler(coeffs, cfg.prec)
        return QuadratureResult(val, HPReal(10.0 ** (1 - cfg.prec), cfg.prec), degree, cfg)
    if nv > 3:
        raise ValueError("the Gamma-chain check supports n <= 3")
    dims = nv - 1

    # m of the leading coefficient (a polynomial in the other variables)
    lead_terms = slices[-1]
    lead_poly = MultiPoly(P.vars[:-1], lead_terms)
    m_lead = float(mahler_measure(lead_poly, cfg).value) if not lead_poly.is_constant() else (
        math.log(abs(float(lead_poly.constant_value())))
    )

    tangents = [np.eye(dims)[i] for i in range(dims)]

    def f(points):
        C = _eval_slices(slices, points)
        out = np.zeros(len(points))
        for idx in range(len(points)):
            c = np.trim_zeros(C[idx], "b")
            if len(c) <= 1:
                continue
            roots = np.roots(c[::-1])
            theta = points[idx]
            total = 0.0
            for r in roots:
                if abs(r) < 1.0:
                    continue
                # implicit derivative of the root sheet: dr = -P_theta_j / P_y
                y_pows = r ** np.arange(len(C[idx]))
                dPdy = np.sum(C[idx][1:] * np.arange(1, len(C[idx])) * y_pows[:-1])
                grads = []
                for j in range(dims):
                    dCj = np.zeros_like(C[idx])
                    for k, terms in enumerate(slices):
                        acc = 0j
                        for exps, cc in terms.items():
                            if exps[j]:
                                mono = complex(cc) * 1j * exps[j]
                                for jj, e in enumerate(exps):
                                    if e:
                                        mono *= np.exp(1j * e * theta[jj])
                                acc += mono
                        dCj[k] = acc
                    grads.append(-np.sum(dCj * y_pows) / dPdy)
                xs = [
                    Dual(np.exp(1j * theta[j]), 1j * np.exp(1j * theta[j]) * np.eye(dims)[j])
                    for j in range(dims)
                ]
                xs.append(Dual(r, np.array(grads)))
                val = eta_eval(xs, tangents)
                total += val.imag if dims % 2 else val.real
            out[idx] = total
        return out

    value, err, evals = integrate_box(f, -math.pi, math.pi, dims, cfg)
    # (-1)^(n-1)/(2 pi i)^(n-1): for n=2 the 1/(2 pi i) makes Im(int) count,
    # for n=3 -1/(2 pi i)^2 = +1/(4 pi^2) on the real part
    if dims == 1:
        reg = -value / (2 * math.pi)
        reg_err = err / (2 * math.pi)
    else:
        reg = -value / (4 * math.pi**2)
        reg_err = err / (4 * math.pi**2)
    return make_result(m_lead + reg, reg_err, evals, cfg)
