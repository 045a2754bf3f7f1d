"""Arbitrary-precision scalars and special functions.

Precision is specified in decimal digits throughout. Real results are
wrapped in :class:`HPReal`, an immutable carrier of an mpmath float and the
precision it was computed to; arithmetic is done on the mpmath values. The
Bloch-Wigner dilogarithm is implemented here directly: functional equations
and logarithms on mpmath's raw big-float tuples, then the Bernoulli series of
Li2 in fixed-point integers, from the exact coefficients that the
double-precision kernel also rounds.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

import mpmath
from mpmath import mp
from mpmath.libmp import (
    fone,
    fzero,
    from_man_exp,
    mpc_div,
    mpc_sub,
    mpc_sub_mpf,
    mpf_add,
    mpf_atan2,
    mpf_gt,
    mpf_log_hypot,
    mpf_mul,
    mpf_neg,
    mpf_pos,
    mpf_sub,
    round_nearest,
    to_fixed,
    to_rational,
)

_LOG2_10 = 3.321928094887362
_GUARD_BITS = 10  # roughly a 2-digit guard

def _bits(prec: int) -> int:
    return max(53, int(prec * _LOG2_10) + _GUARD_BITS)


class NumericalFailure(RuntimeError):
    """No finite, checked value: a root iteration or test failed, a rule put a node
    where the integrand is undefined, or a result is not finite. ``ValueError`` is
    kept for bad input. ``residuals`` holds per-node data where there is any."""

    def __init__(self, message, residuals=None):
        super().__init__(message)
        self.residuals = residuals


class HPReal:
    """An immutable arbitrary-precision real with explicit decimal precision.

    The value is stored as an mpmath float rounded to ``prec`` digits (plus
    guard bits); ``mpf()`` returns it for arithmetic. ``value`` is an mpf, or
    anything ``mpmath.mpf`` reads: a float, an int or a string such as "1e-5"
    or "1/3".
    """

    __slots__ = ("_v", "prec")

    def __init__(self, value, prec: int = 15):
        if prec < 1:
            raise ValueError("precision must be >= 1 digit")
        self.prec = int(prec)
        if isinstance(value, mpmath.mpf):  # one rounding, without a precision context
            self._v = mp.make_mpf(mpf_pos(value._mpf_, _bits(self.prec), round_nearest))
        else:
            with mp.workprec(_bits(self.prec)):
                self._v = mpmath.mpf(value)

    # -- conversions ----------------------------------------------------------
    def __float__(self) -> float:
        return float(self._v)

    def mpf(self):
        return self._v

    def to_decimal(self) -> str:
        """Serialize as ``±d.ddd...e±k`` (``±de±k`` at prec 1): the stored binary value
        rounded half-even to exactly ``prec`` significant digits. NumericalFailure
        for a non-finite value."""
        if not mpmath.isfinite(self._v):
            raise NumericalFailure(f"cannot print the non-finite value {self._v}")
        q = abs(Fraction(*to_rational(self._v._mpf_)))
        k = 0
        if q:
            # 10^(a - b - 1) < q < 10^(a - b + 1) for a- and b-digit numerator and denominator
            k = len(str(q.numerator)) - len(str(q.denominator))
            if q < Fraction(10) ** k:
                k -= 1
        digits = round(q / Fraction(10) ** (k - self.prec + 1))
        if digits == 10**self.prec:  # rounded up into the next decade
            digits, k = digits // 10, k + 1
        text = str(digits).zfill(self.prec)
        sign = "-" if self._v < 0 else "+"
        return f"{sign}{text[0]}{'.' + text[1:] if self.prec > 1 else ''}e{k:+d}"

    def __repr__(self) -> str:
        return f"HPReal({self.to_decimal()!r}, prec={self.prec})"


# -- Bloch-Wigner dilogarithm -------------------------------------------------

# pi/3 < 355/339, from pi < 355/113: |u| <= pi/3 after the symmetry steps
_PI_OVER_3_UP = Fraction(355, 339)
_RND = round_nearest
_MPC_ONE = (fone, fzero)
_HALF = (0, 1, -1, 1)  # 1/2 as an mpf tuple


@functools.lru_cache(maxsize=None)
def li2_series_coef(j: int) -> Fraction:
    """B_2j / (2j+1)! exactly: the coefficient of u^(2j+1) in Li2(1 - e^-u)."""
    p, q = mpmath.bernfrac(2 * j)
    return Fraction(p, q * math.factorial(2 * j + 1))


@functools.lru_cache(maxsize=None)
def _li2_series_table(wp: int) -> tuple:
    """The coefficients B_2j / (2j+1)! rounded to wp-bit fixed point, through the
    first j whose term is below 2^(-wp-5) at |u| = pi/3."""
    table = []
    for j in range(1, wp):
        c = li2_series_coef(j)
        table.append(round(c * 2**wp))
        if abs(c) * _PI_OVER_3_UP ** (2 * j + 1) < Fraction(1, 2 ** (wp + 5)):
            return tuple(table)
    raise ArithmeticError("Bernoulli series of the dilogarithm did not converge")


def bloch_wigner(z, prec: int = 15) -> HPReal:
    """Bloch-Wigner dilogarithm D(z), identically 0 on the real line.

    The same algorithm as ``kernels.bloch_wigner``: map z by
    D(1/z) = D(1 - z) = -D(z) into |w| <= 1, Re w <= 1/2, then
    D(w) = Im Li2(w) + arg(1-w) log|w| with arg(1-w) = -Im u and
    Li2 = u + u^3 s - u^2/4, u = -log(1-w), |u| <= pi/3. The Bernoulli sum
    s = sum_j B_2j u^(2j-2) / (2j+1)! runs by Horner in u^2 over fixed-point
    integers with wp = bits + 10 fractional bits, more for a small u or
    a small Im u so that D keeps its relative precision near 0 and near the
    real line. The coefficients are the exact values rounded once per
    working precision, and the term count is fixed a priori by the bound at
    |u| = pi/3 (Brent & Zimmermann, "Modern Computer Arithmetic", 2010,
    ch. 4). The symmetry steps, the logarithms and the final combination
    work on mpmath's raw ``libmp`` tuples, rounded to nearest at
    bits = _bits(prec) + 10, with the roundings mpmath's mpc arithmetic
    makes: u from ``mpf_log_hypot`` and ``mpf_atan2``, as in ``mpc_log``,
    and log|w| from ``mpf_log_hypot`` too. Whether |z| > 1 is decided on the
    exact squared modulus, so no square root is taken.
    """
    z = mpmath.mpc(z)._mpc_
    if z[1] == fzero:
        return HPReal(0, prec)
    bits = _bits(prec) + 10
    # |z| > 1 from the exact squared modulus: no square root, no rounding
    big = mpf_gt(mpf_add(mpf_mul(z[0], z[0]), mpf_mul(z[1], z[1])), fone)
    w = mpc_div(_MPC_ONE, z, bits, _RND) if big else z
    refl = mpf_gt(w[0], _HALF)
    if refl:
        # after both steps w = 1 - 1/z, formed as (z - 1)/z: near z = 1 the
        # rounded 1/z would lose the digits of z - 1, which is exact
        if big:
            w = mpc_div(mpc_sub_mpf(z, fone, bits, _RND), z, bits, _RND)
        else:
            w = mpc_sub(_MPC_ONE, w, bits, _RND)
    sign = -1 if big != refl else 1
    # u = -log(1 - w)
    vr, vi = mpc_sub(_MPC_ONE, w, bits, _RND)
    ure = mpf_neg(mpf_log_hypot(vr, vi, bits, _RND))
    uim = mpf_neg(mpf_atan2(vi, vr, bits, _RND))
    # real parts of u and its powers carry rb >= wp fractional bits and
    # imaginary parts ib >= rb, so that Im Li2 keeps wp bits relative to
    # Im u; the real and imaginary parts of s carry wp and wp + ib - rb.
    # Im u != 0 because w is not real; mag is mpmath's bound |x| <= 2^mag
    mag_im = uim[2] + uim[3]
    mag_u = mag_im if ure == fzero else 1 + max(ure[2] + ure[3], mag_im)
    wp = bits + _GUARD_BITS
    rb = wp + max(0, -mag_u)
    ib = max(rb, wp - mag_im)
    d = ib - rb
    ur, ui = to_fixed(ure, rb), to_fixed(uim, ib)
    u2r = ((ur * ur) >> rb) - ((ui * ui) >> (ib + d))
    u2i = (2 * ur * ui) >> rb
    sr = si = 0
    for c in reversed(_li2_series_table(wp)):
        sr, si = (
            ((sr * u2r) >> rb) - ((si * u2i) >> (ib + d)) + c,
            (sr * u2i + si * u2r) >> rb,
        )
    # Im Li2 = Im u + Im(u * u^2 s) - Im(u^2) / 4
    tr = ((u2r * sr) >> wp) - ((u2i * si) >> (wp + 2 * d))
    ti = (u2r * si + u2i * sr) >> wp
    im_li2 = ui + ((ur * ti + ui * tr) >> rb) - (u2i >> 2)
    log_w = mpf_log_hypot(w[0], w[1], bits, _RND)
    val = mpf_sub(
        from_man_exp(im_li2, -ib, bits, _RND), mpf_mul(uim, log_w, bits, _RND), bits, _RND
    )
    # make_mpf: mpmath.mpf(tuple) would round to the caller's precision
    return HPReal(mp.make_mpf(mpf_neg(val) if sign < 0 else val), prec)
