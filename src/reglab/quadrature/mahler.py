"""Mahler measures: arbitrary-precision univariate values from the exact
square-free factors and mpmath's polyroots, and multivariate values as
iterated torus integrals with the univariate measure as the inner integral
(Jensen's formula). The inner integrand finds the double-precision roots of
all nodes at once, as eigenvalues of stacked companion matrices.

m(p) = log|lead(p)| + sum over roots of log max(1, |root|);
m(P) = (2*pi)^-(n-1) times the integral over the torus of the inner measure
in the last variable.

For P = (1+x_1)...(1+x_k) + t with k = 2 or 3 and t the last variable (the
flagship polynomial and its n = 3 analogue), recognised from its exact
terms, Jensen's formula gives the integral of log+ prod 2cos(theta_i/2)
over [0, pi]^k, whose kink on prod 2cos(theta_i/2) = 1 is the boundary of
the Deninger chain. That integral is taken over the region inside the kink
instead: the outer k - 1 axes through the sine substitutions of
boundary.py, the innermost axis in closed form with Clausen's function, so
the rule sees an integrand without a kink on [0, pi/2]^(k-1). Every other
polynomial, including this one written with t not last, takes the torus
integral.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Sequence

import mpmath
import numpy as np
import sympy
from mpmath.libmp import NoConvergence

from .. import kernels
from ..forms import Jet, eta_eval
from ..numerics import HPReal, _bits
from ..symbolic import MultiPoly
from .boundary import _ACOS_MAX
from .engine import QuadratureConfig, QuadratureResult, integrate_box, make_result


class RootFindingError(RuntimeError):
    def __init__(self, message, residuals=None):
        super().__init__(message)
        self.residuals = residuals


# -- univariate, arbitrary precision ------------------------------------------------

_X = sympy.Symbol("x")


def univariate_mahler(p: Sequence[Fraction | float], prec: int = 15) -> HPReal:
    """Mahler measure of a univariate polynomial (ascending rational coefficients).

    A float coefficient is taken at its exact binary value. The polynomial is
    split exactly into square-free factors, content * prod f_j^k_j, and the
    roots of each f_j come from mpmath.polyroots. The split comes first
    because root iterations reach a k-fold root only to about eps^(1/k).
    RootFindingError if polyroots does not converge.
    """
    coeffs = [Fraction(c) for c in p]
    if not any(coeffs):
        raise ValueError("zero polynomial has no Mahler measure")
    content, factors = sympy.Poly(coeffs[::-1], _X).sqf_list()
    with mpmath.mp.workprec(_bits(prec) + 20):
        total = mpmath.log(abs(mpmath.mpf(content)))
        for f, mult in factors:
            c = [mpmath.mpf(a) for a in f.all_coeffs()]
            try:
                roots = mpmath.polyroots(c)
            except NoConvergence as e:
                raise RootFindingError(f"root iteration did not converge: {e}") from e
            outside = sum(mpmath.log(abs(r)) for r in roots if abs(r) > 1)
            total += mult * (mpmath.log(abs(c[0])) + outside)
        return HPReal(total, prec)


# -- batched double-precision roots ---------------------------------------------------


# Largest accepted backward error |p(r)| / sum_k |c_k| |r|^k of a root (half the
# double-precision mantissa).
_ROOT_RESIDUAL_TOL = 2.0**-26


def _backward_error(c: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Largest |p(r)| / sum_k |c_k| |r|^k over the roots r of each row of c."""
    p = np.zeros_like(r)
    scale = np.zeros(r.shape)
    a = np.abs(r)
    for k in range(c.shape[1] - 1, -1, -1):
        p *= r
        p += c[:, k, None]
        scale *= a
        scale += np.abs(c[:, k, None])
    return (np.abs(p) / np.maximum(scale, np.finfo(float).tiny)).max(axis=1)


def _roots_by_degree(C: np.ndarray):
    """Roots of each row of C (ascending coefficients), grouped by true degree.

    Returns (top, groups): top[i] is the index of row i's last nonzero
    coefficient, and groups holds one (rows, roots) pair per degree d >= 1
    that occurs, roots of shape (len(rows), d). The roots are the eigenvalues
    of the companion matrices, stacked per degree (numpy's ``roots`` solves
    one row the same way); a 1x1 companion matrix is its own eigenvalue.
    RootFindingError if a root fails the backward-error test or a
    coefficient is NaN or inf.
    """
    nonzero = C != 0
    if not nonzero.any(axis=1).all():
        raise ValueError("P vanishes identically in its last variable at a node")
    top = C.shape[1] - 1 - nonzero[:, ::-1].argmax(axis=1)
    worst = np.zeros(len(C))
    groups = []
    for deg in range(1, C.shape[1]):
        rows = np.flatnonzero(top == deg)
        if not len(rows):
            continue
        # a view, not a copy, when every row has this degree
        c = C[:, : deg + 1] if len(rows) == len(C) else C[rows, : deg + 1]
        first = -c[:, -2::-1] / c[:, -1:]
        if deg == 1:
            r = first
        else:
            ok = np.isfinite(first).all(axis=1)
            companion = np.zeros((np.count_nonzero(ok), deg, deg), dtype=np.complex128)
            companion[:, 0, :] = first[ok]
            companion[:, np.arange(1, deg), np.arange(deg - 1)] = 1.0
            r = np.full((len(rows), deg), np.nan + 0j)
            try:
                r[ok] = np.linalg.eigvals(companion)
            except np.linalg.LinAlgError:  # QR iteration failed: NaN roots, flagged below
                pass
        worst[rows] = _backward_error(c, r)
        groups.append((rows, r))
    worst[~np.isfinite(C).all(axis=1)] = np.nan
    if not (worst <= _ROOT_RESIDUAL_TOL).all():
        raise RootFindingError(
            "double-precision roots failed the backward-error test", worst.tolist()
        )
    return top, groups


def _inner_mahler_batch(C: np.ndarray) -> np.ndarray:
    """log|lead| + sum log+ |root| for each row of ascending coefficients."""
    top, groups = _roots_by_degree(C)
    out = np.log(np.abs(C[np.arange(len(C)), top]))
    for rows, r in groups:
        out[rows] += np.log(np.maximum(np.abs(r), 1.0)).sum(axis=1)
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


def _is_kink_product(P: MultiPoly) -> bool:
    """Whether P is (1+x_1)...(1+x_k) + t, k = 2 or 3, t its last variable."""
    k = len(P.vars) - 1
    if k not in (2, 3):
        return False
    want = {e + (0,): 1 for e in itertools.product((0, 1), repeat=k)}
    want[(0,) * k + (1,)] = 1
    return P.terms == want


def _kink_chart(k: int):
    """Integrand on [0, pi/2]^(k-1) whose integral is pi^k m((1+x_1)...(1+x_k) + t).

    Axis j runs over [0, theta_j*] through theta_j = theta_j* sin(u_j), where
    theta_j* = 2 arccos(1 / (2^(k-j) c)) and c is the product of 2cos(theta/2)
    over the earlier axes; the innermost axis is the closed form
    int_0^V log(c 2cos(v/2)) dv = V log c + Cl2(pi - V), V = 2 arccos(1/(2c)).
    """

    def f(points):
        c = np.ones(len(points))
        jac = np.ones(len(points))
        for j in range(k - 1):
            top = 2.0 * np.arccos(np.clip(1.0 / (2.0 ** (k - j) * c), -1.0, _ACOS_MAX))
            theta = top * np.sin(points[:, j])
            jac *= top * np.cos(points[:, j])
            c *= 2.0 * np.cos(0.5 * theta)
        V = 2.0 * np.arccos(np.clip(0.5 / c, -1.0, _ACOS_MAX))
        clausen = kernels.li2(-np.exp(-1j * V)).imag  # Cl2(pi - V)
        return jac * (V * np.log(c) + clausen)

    return f


def mahler_measure(P: MultiPoly, cfg: QuadratureConfig | None = None) -> QuadratureResult:
    """Logarithmic Mahler measure of a (Laurent) polynomial in <= 4 variables.

    (1+x_1)...(1+x_k) + t with k = 2 or 3, t last, is integrated over the
    kink chart (see the module docstring) with a (k-1)-dimensional rule;
    every other polynomial over the torus in all but its last variable.
    Either way the rule, level, depth and precision of cfg apply.
    """
    cfg = cfg or QuadratureConfig()
    nv = len(P.vars)
    if P.is_zero():
        raise ValueError("zero polynomial")
    if nv == 0 or P.is_constant():
        return make_result(math.log(abs(float(P.constant_value()))), 0.0, 0, cfg)
    if nv > 4:
        raise ValueError("at most 4 variables supported")
    if _is_kink_product(P):
        # m = pi^-k times the integral over [0, pi]^k, by the symmetry theta -> -theta
        k = nv - 1
        value, err, evals = integrate_box(_kink_chart(k), 0.0, math.pi / 2, k - 1, cfg)
        return make_result(value / math.pi**k, err / math.pi**k, evals, cfg)
    slices, degree = _coeff_table(P)
    if nv == 1:
        val = univariate_mahler([terms.get((), 0) for terms in slices], cfg.prec)
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
    if nv == 1:
        return mahler_measure(P, cfg)
    if nv > 3:
        raise ValueError("the Gamma-chain check supports n <= 3")
    dims = nv - 1
    slices, degree = _coeff_table(P)
    # m of the leading coefficient (a polynomial in the other variables)
    m_lead = float(mahler_measure(MultiPoly(P.vars[:-1], slices[-1]), cfg).value)

    tangents = np.eye(dims)
    # coefficients of dP/dtheta_j, as polynomials in the last variable
    dslices = [
        [{e: c * 1j * e[j] for e, c in terms.items() if e[j]} for terms in slices]
        for j in range(dims)
    ]
    powers = np.arange(degree + 1)

    def f(points):
        C = _eval_slices(slices, points)
        out = np.zeros(len(points))
        # (node, root) pairs with |root| >= 1
        rows, roots = [], []
        for idx, r in _roots_by_degree(C)[1]:
            keep = np.abs(r) >= 1.0
            rows.append(np.repeat(idx, keep.sum(axis=1)))
            roots.append(r[keep])
        if not rows:
            return out
        rows, r = np.concatenate(rows), np.concatenate(roots)
        order = np.argsort(rows, kind="stable")
        rows, r = rows[order], r[order]
        theta = points[rows]
        # implicit derivative of the root sheet: dr/dtheta_j = -P_theta_j / P_y
        y_pows = r[:, None] ** powers
        dPdy = np.sum(C[rows, 1:] * powers[1:] * y_pows[:, :-1], axis=1)
        grads = np.stack(
            [-np.sum(_eval_slices(ds, theta) * y_pows, axis=1) / dPdy for ds in dslices], axis=1
        )
        e = np.exp(1j * theta)
        xs = [Jet(e[:, j], 1j * e[:, j, None] * tangents[j]) for j in range(dims)]
        xs.append(Jet(r, grads))
        val = eta_eval(xs, tangents)
        np.add.at(out, rows, val.imag if dims % 2 else val.real)
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
