"""Mahler measures: arbitrary-precision univariate values from the exact
square-free factors and mpmath's polyroots, and multivariate values as
iterated torus integrals with the univariate measure as the inner integral
(Jensen's formula). The inner integrand takes nodes where P has degree 0 or 1
in its last variable in closed form, m(c0 + c1 t) = log max(|c0|, |c1|), and
finds the double-precision roots of the other nodes at once, as eigenvalues
of stacked companion matrices.

Row layout of the inner integrand: the rule hands it the N nodes as
unit-circle coordinates x_j = e^(i theta_j) (``integrate_box(...,
circle=True)``), and each power x_j^e of a coefficient is formed once per
batch. The coefficients of P in its last variable, C (N, deg+1), are stored
one contiguous row of N values per power, so the closed forms, the root
finding, the backward-error test and the Jensen sum each loop over the
deg+1 coefficient columns and the deg root columns with whole-batch
operations. A batch whose rows all have the same degree is read without an
index array.

m(p) = log|lead(p)| + sum over roots of log max(1, |root|);
m(P) = (2*pi)^-(n-1) times the integral over the torus of the inner measure
in the last variable. P has rational coefficients, so its coefficients in
the last variable at -theta are the conjugates of those at theta, and the
inner measure is the same there (Boyd, "Mahler's measure and special values
of L-functions", Experiment. Math. 1998, reduces the torus the same way).
Every torus integral therefore runs over half the torus
(``integrate_box(..., central=True)``): each value is computed once, at
half the evaluations of the full torus.

For P = (1+x_1)...(1+x_k) + t with k = 2 or 3 and t the last variable (the
flagship polynomial and its n = 3 analogue), recognised from its exact
terms, Jensen's formula gives the integral of log+ prod 2cos(theta_i/2)
over [0, pi]^k, whose kink on prod 2cos(theta_i/2) = 1 is the boundary of
the Deninger chain. That integral is taken over the region inside the kink
instead: the outer k - 1 axes through the chart of ``boundary.kink_chart``,
which the boundary integral also runs over, and the innermost axis in closed
form with Clausen's function, so the rule sees an integrand without a kink on
[0, pi/2]^(k-1). The direct rule needs only the chart's values and the
diagonal of its triangular Jacobian, so ``_chart`` takes them from real
closed forms without jets, bit for bit the values of ``kink_chart``'s jets;
the two oracles' integrands stay separate code. Every other polynomial,
including this one written with t not last, takes the torus integral, after
its content in the last variable is split off exactly.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from typing import Sequence

import mpmath
import numpy as np
from mpmath.libmp import NoConvergence

from .. import kernels
from ..forms import Jet, eta_eval
from ..numerics import HPReal, NumericalFailure, _bits
from ..symbolic import poly_ring, split_laurent
from .boundary import _ACOS_MAX
from .engine import QuadratureConfig, QuadratureResult, integrate_box, make_result


# -- univariate, arbitrary precision ------------------------------------------------

def univariate_mahler(p: Sequence[Fraction | float], prec: int = 15) -> HPReal:
    """Mahler measure of a univariate polynomial (ascending rational coefficients).

    A float coefficient is taken at its exact binary value. The polynomial is
    split exactly into square-free factors, content * prod f_j^k_j, and the
    roots of each f_j come from mpmath.polyroots. The split comes first
    because root iterations reach a k-fold root only to about eps^(1/k).
    NumericalFailure if polyroots does not converge.
    """
    coeffs = [Fraction(c) for c in p]
    if not any(coeffs):
        raise ValueError("zero polynomial has no Mahler measure")
    content, factors = poly_ring(["x"]).from_list(coeffs[::-1]).sqf_list()
    with mpmath.mp.workprec(_bits(prec) + 20):
        total = mpmath.log(abs(mpmath.mpf(content.numerator) / content.denominator))
        for f, mult in factors:
            c = [mpmath.mpf(a.numerator) / a.denominator for a in f.to_dense()]
            try:
                roots = mpmath.polyroots(c)
            except NoConvergence as e:
                raise NumericalFailure(f"root iteration did not converge: {e}") from e
            outside = sum(mpmath.log(abs(r)) for r in roots if abs(r) > 1)
            total += mult * (mpmath.log(abs(c[0])) + outside)
        return HPReal(total, prec)


# -- batched double-precision roots ---------------------------------------------------


# Largest accepted backward error |p(r)| / sum_k |c_k| |r|^k of a root (half the
# double-precision mantissa).
_ROOT_RESIDUAL_TOL = 2.0**-26


def _backward_error(c: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Largest |p(r)| / sum_k |c_k| |r|^k over the roots r of each row of c."""
    coeffs = [c[:, k] for k in range(c.shape[1])]
    sizes = [np.abs(col) for col in coeffs]
    worst = None
    for root in r.T:
        a = np.abs(root)
        p, scale = coeffs[-1] * root, sizes[-1] * a
        for k in range(len(coeffs) - 2, 0, -1):
            p += coeffs[k]
            p *= root
            scale += sizes[k]
            scale *= a
        p += coeffs[0]
        scale += sizes[0]
        err = np.abs(p)
        err /= np.maximum(scale, np.finfo(float).tiny, out=scale)
        worst = err if worst is None else np.maximum(worst, err, out=worst)
    return worst


def _group_by_degree(C: np.ndarray):
    """The rows of C (ascending coefficients) grouped by true degree.

    Returns one (degree, rows) pair per degree d >= 0 that occurs; rows
    indexes C, and is ``slice(None)`` when every row has degree d, which is
    then read without fancy indexing. NumericalFailure if a row vanishes
    identically (the rule put a node on P's zero set), or if a coefficient is
    NaN or inf, with residuals NaN at those rows and 0 elsewhere.
    """
    n, width = C.shape
    cols = [C[:, k] for k in range(width)]
    if (cols[-1] != 0).all():
        by_degree = [(width - 1, slice(None))]
    else:
        top = np.zeros(n, dtype=np.intp)
        for k in range(1, width):
            top[cols[k] != 0] = k
        if not ((top > 0) | (cols[0] != 0)).all():
            raise NumericalFailure("P vanishes identically in its last variable at a node")
        by_degree = [(deg, np.flatnonzero(top == deg)) for deg in range(width)]
        by_degree = [(deg, rows) for deg, rows in by_degree if len(rows)]
    finite = np.isfinite(cols[0])
    for col in cols[1:]:
        finite &= np.isfinite(col)
    if not finite.all():
        raise NumericalFailure(
            "a coefficient is NaN or inf", np.where(finite, 0.0, np.nan).tolist()
        )
    return by_degree


def _roots(c: np.ndarray) -> np.ndarray:
    """Roots (len(c), d) of rows c of ascending coefficients, all of degree d >= 1.

    The roots are the eigenvalues of the companion matrices, stacked (numpy's
    ``roots`` solves one row the same way); a 1x1 companion matrix is its own
    eigenvalue. NumericalFailure if a root fails the backward-error test,
    with each row's backward error as residuals (NaN where the eigenvalue
    iteration failed or a root is not finite).
    """
    deg = c.shape[1] - 1
    if deg == 1:
        r = (-c[:, 0] / c[:, 1])[:, None]
    else:
        first = -c[:, -2::-1] / c[:, -1:]
        ok = np.isfinite(first).all(axis=1)
        companion = np.zeros((np.count_nonzero(ok), deg, deg), dtype=np.complex128)
        companion[:, 0, :] = first[ok]
        companion[:, np.arange(1, deg), np.arange(deg - 1)] = 1.0
        r = np.full((len(c), deg), np.nan + 0j)
        try:
            r[ok] = np.linalg.eigvals(companion)
        except np.linalg.LinAlgError:  # QR iteration failed: NaN roots, flagged below
            pass
    worst = _backward_error(c, r)
    if not (worst <= _ROOT_RESIDUAL_TOL).all():
        raise NumericalFailure(
            "double-precision roots failed the backward-error test", worst.tolist()
        )
    return r


def _inner_mahler_batch(C: np.ndarray) -> np.ndarray:
    """m of each row of ascending coefficients, by Jensen's formula.

    Degrees 0 and 1 are closed forms, m(c0) = log|c0| and
    m(c0 + c1 t) = log max(|c0|, |c1|), with no root formed; higher degrees
    take log|lead| + sum log+ |root| over the roots from ``_roots``.
    """
    out = np.empty(len(C))
    for deg, rows in _group_by_degree(C):
        c = C[rows, : deg + 1]
        if deg <= 1:
            size = np.abs(c[:, 0])
            if deg:
                np.maximum(size, np.abs(c[:, 1]), out=size)
            out[rows] = np.log(size, out=size)
            continue
        outside = np.zeros(len(c))
        for root in _roots(c).T:
            size = np.abs(root)
            outside += np.log(np.maximum(size, 1.0, out=size), out=size)
        out[rows] = np.log(np.abs(c[:, -1])) + outside
    return out


# -- multivariate Mahler measure -----------------------------------------------------


def _coeff_table(P):
    """Coefficients of P as polynomials in its last variable, lowest power first:
    dicts from the exponents of the other variables to Fractions."""
    last = P.ring.ngens - 1
    shift = min((e[last] for e in P.itermonoms()), default=0)
    degree = max((e[last] for e in P.itermonoms()), default=0) - shift
    slices = [dict() for _ in range(degree + 1)]
    for exps, c in P.items():
        slices[exps[last] - shift][exps[:last]] = Fraction(c.numerator, c.denominator)
    return slices, degree


def _eval_slices(slices, xs: np.ndarray) -> np.ndarray:
    """Evaluate coefficient slices at the points xs (N, dims) of the torus.

    Returns C (N, deg+1) whose column k, the coefficient of the k-th power of
    the last variable, is one contiguous row in memory. Each power x_j^e that
    occurs is formed once: x_j for e = 1, its conjugate for e = -1, and
    products of those for |e| >= 2.
    """
    rows = np.zeros((len(slices), len(xs)), dtype=np.complex128)
    powers = {}

    def power(j, e):
        # not recursive: a closure that calls itself is a reference cycle, which
        # would keep each batch's powers (and the points they view) alive until
        # the cyclic garbage collector runs
        if (j, e) not in powers:
            x = np.ascontiguousarray(xs[:, j]) if e > 0 else np.conj(xs[:, j])
            p = x
            for _ in range(abs(e) - 1):
                p = p * x
            powers[j, e] = p
        return powers[j, e]

    for row, terms in zip(rows, slices):
        for exps, c in terms.items():
            mono = None if c == 1 else complex(c)
            for j, e in enumerate(exps):
                if e:
                    # the factor order is part of the result: under FMA a complex
                    # product rounds differently when its operands swap
                    mono = power(j, e) if mono is None else power(j, e) * mono
            row += 1.0 if mono is None else mono
    return rows.T


def _is_kink_product(P) -> bool:
    """Whether P is (1+x_1)...(1+x_k) + t, k = 2 or 3, t its last variable."""
    k = P.ring.ngens - 1
    if k not in (2, 3):
        return False
    want = {e + (0,): 1 for e in itertools.product((0, 1), repeat=k)}
    want[(0,) * k + (1,)] = 1
    return dict(P) == want


def _chart(u: np.ndarray):
    """The Jacobian, c and V of ``boundary.kink_chart`` at points u (N, m), without jets.

    Real closed forms, in ``kink_chart``'s operation order, so the values are
    its jets' values bit for bit: theta_j = theta_j* sin(u_j) with
    theta_j* = 2 arccos(1 / (2^(m+1-j) c_(j-1))), c_j = c_(j-1) 2cos(theta_j/2),
    V = 2 arccos(1/(2c)), and the Jacobian prod_j theta_j* cos(u_j), the
    diagonal of its triangular derivative.
    """
    m = u.shape[1]
    c, jac = np.ones(len(u)), 1
    for j in range(m):
        top = 2.0 * np.arccos(np.clip(1.0 / (2.0 ** (m + 1 - j) * c), -1.0, _ACOS_MAX))
        jac = jac * (top * np.cos(u[:, j]))
        c = c * (2.0 * np.cos(top * np.sin(u[:, j]) * 0.5))
    return jac, c, 2.0 * np.arccos(np.clip(0.5 * (1.0 / c), -1.0, _ACOS_MAX))


def _kink_chart(points: np.ndarray) -> np.ndarray:
    """Integrand on [0, pi/2]^(k-1) whose integral is pi^k m((1+x_1)...(1+x_k) + t).

    The outer axes are the chart of ``boundary.kink_chart``, taken by
    ``_chart`` and weighted by its Jacobian; the innermost axis is the closed
    form int_0^V log(c 2cos(v/2)) dv = V log c + Cl2(pi - V), with
    Cl2(pi - V) = D(-e^(-iV)) because D(e^(i theta)) = Cl2(theta).
    """
    jac, c, V = _chart(points)
    clausen = kernels.bloch_wigner(-np.exp(-1j * V))  # Cl2(pi - V) = D(-e^(-iV))
    return jac * (V * np.log(c) + clausen)


def _split_content(P):
    """(g, P/g) for the content g of P in its last variable, or None if g = 1.

    g is the monic gcd over Q of the coefficients of P's numerator (P times a
    monomial) as a polynomial in its last variable t, and lies in the ring
    without t. P/g is the numerator divided by g.
    """
    num, _ = split_laurent(P)
    t = num.ring.gens[-1]
    coeffs = [c for c in (num.coeff_wrt(t, k) for k in range(num.degree(t) + 1)) if c]
    if any(c.is_ground for c in coeffs):
        return None  # a nonzero constant coefficient: the content is 1
    g = functools.reduce(lambda a, b: a.gcd(b), coeffs).monic()
    if g.is_ground:
        return None
    return g.drop(t), num.exquo(g)


def mahler_measure(P, cfg: QuadratureConfig | None = None) -> QuadratureResult:
    """Logarithmic Mahler measure of a (Laurent) polynomial in <= 4 variables.

    The content g of P in its last variable, a polynomial in the other
    variables, is split off first: m(P) = m(g) + m(P/g), the values, error
    estimates and evaluations added, so a g that vanishes at a node, as
    x - 1 does at theta = 0, never reaches the torus rule.
    (1+x_1)...(1+x_k) + t with k = 2 or 3, t last, is integrated over the
    kink chart (see the module docstring) with a (k-1)-dimensional rule;
    every other polynomial over the torus in all but its last variable.
    Either way the rule, level, depth and precision of cfg apply.
    """
    cfg = cfg or QuadratureConfig()
    if not P:
        raise ValueError("zero polynomial")
    if P.ring.ngens > 4:
        raise ValueError("at most 4 variables supported")
    split = None if P.is_ground else _split_content(P)
    if split is None:
        return _measure(P, cfg)
    parts = [mahler_measure(part, cfg) for part in split]
    return make_result(
        sum(float(r.value) for r in parts),
        sum(float(r.error_estimate) for r in parts),
        sum(r.evaluations for r in parts),
        cfg,
    )


def _measure(P, cfg: QuadratureConfig) -> QuadratureResult:
    """m(P) for a nonzero P, its content not split off."""
    nv = P.ring.ngens
    if P.is_ground:
        return make_result(math.log(abs(float(P.LC))), 0.0, 0, cfg)
    if _is_kink_product(P):
        # m = pi^-k times the integral over [0, pi]^k, by the symmetry theta -> -theta
        k = nv - 1
        value, err, evals = integrate_box(_kink_chart, 0.0, math.pi / 2, k - 1, cfg)
        return make_result(value / math.pi**k, err / math.pi**k, evals, cfg)
    slices, degree = _coeff_table(P)
    if nv == 1:
        val = univariate_mahler([terms.get((), 0) for terms in slices], cfg.prec)
        return QuadratureResult(val, HPReal(f"1e{1 - cfg.prec}", cfg.prec), degree)

    def f(xs):
        return _inner_mahler_batch(_eval_slices(slices, xs))

    dims = nv - 1
    # P has rational coefficients, so f(-theta) = f(theta): the roots at -theta are the
    # conjugates of those at theta
    value, err, evals = integrate_box(
        f, -math.pi, math.pi, dims, cfg, circle=True, central=True
    )
    scale = (2 * math.pi) ** dims
    return make_result(value / scale, err / scale, evals, cfg)


# -- Deninger chain consistency check -------------------------------------------------


def deninger_gamma_check(P, cfg: QuadratureConfig | None = None) -> QuadratureResult:
    """m(leading coeff) + (-1)^(n-1)/(2 pi i)^(n-1) int_Gamma eta, for n <= 3.

    Gamma is the part of the zero locus over the torus with |x_n| >= 1; eta
    is summed over all such sheets. Serves as a consistency check against
    mahler_measure.
    """
    cfg = cfg or QuadratureConfig()
    nv = P.ring.ngens
    if nv == 1:
        return mahler_measure(P, cfg)
    if nv > 3:
        raise ValueError("the Gamma-chain check supports n <= 3")
    dims = nv - 1
    slices, degree = _coeff_table(P)
    # m of the leading coefficient (a polynomial in the other variables), its
    # content not split off: for n = 3 it is then taken on the chain's Gauss-Legendre
    # grid, centrally folded onto its second half like every torus integral; the
    # Gamma-chain integral below runs on the whole grid
    t = P.ring.gens[-1]
    m_lead = float(_measure(P.coeff_wrt(t, P.degree(t)).drop(t), cfg).value)

    # coefficients of dP/dtheta_j, as polynomials in the last variable
    dslices = [
        [{e: c * 1j * e[j] for e, c in terms.items() if e[j]} for terms in slices]
        for j in range(dims)
    ]
    powers = np.arange(degree + 1)

    def f(xs):
        C = _eval_slices(slices, xs)
        out = np.zeros(len(xs))
        # (node, root) pairs with |root| >= 1
        rows, roots = [], []
        for deg, idx in _group_by_degree(C):
            if not deg:
                continue
            r = _roots(C[idx, : deg + 1])
            keep = np.abs(r) >= 1.0
            rows.append(np.repeat(np.arange(len(xs))[idx], keep.sum(axis=1)))
            roots.append(r[keep])
        if not rows:
            return out
        rows, r = np.concatenate(rows), np.concatenate(roots)
        order = np.argsort(rows, kind="stable")
        rows, r = rows[order], r[order]
        x = xs[rows]
        # implicit derivative of the root sheet: dr/dtheta_j = -P_theta_j / P_y
        y_pows = r[:, None] ** powers
        dPdy = np.sum(C[rows, 1:] * powers[1:] * y_pows[:, :-1], axis=1)
        grads = np.stack(
            [-np.sum(_eval_slices(ds, x) * y_pows, axis=1) / dPdy for ds in dslices], axis=1
        )
        jets = [Jet(x[:, j], 1j * x[:, j, None] * e) for j, e in enumerate(np.eye(dims))]
        jets.append(Jet(r, grads))
        val = eta_eval(jets)
        np.add.at(out, rows, val.imag if dims % 2 else val.real)
        return out

    value, err, evals = integrate_box(f, -math.pi, math.pi, dims, cfg, circle=True)
    # (-1)^(n-1)/(2 pi i)^(n-1) applied to the integral, which is in i R for n = 2
    # (f keeps its imaginary part) and in R for n = 3: -value / (2 pi)^(n-1)
    scale = (2 * math.pi) ** dims
    return make_result(m_lead - value / scale, err / scale, evals, cfg)
