"""Arbitrary-precision scalars and special functions.

Precision is specified in decimal digits throughout. Real results are
wrapped in :class:`HPReal`, an immutable carrier of an mpmath float and the
precision it was computed to; arithmetic is done on the mpmath values. The
dilogarithm and the Bloch-Wigner function are implemented here directly
(series plus functional equations) on top of mpmath's big floats.
"""

from __future__ import annotations

from fractions import Fraction

import mpmath
from mpmath import mp

_LOG2_10 = 3.321928094887362
_GUARD_BITS = 10  # roughly a 2-digit guard

def _bits(prec: int) -> int:
    return max(53, int(prec * _LOG2_10) + _GUARD_BITS)


class HPReal:
    """An immutable arbitrary-precision real with explicit decimal precision.

    The value is stored as an mpmath float rounded to ``prec`` digits (plus
    guard bits); ``mpf()`` returns it for arithmetic.
    """

    __slots__ = ("_v", "prec")

    def __init__(self, value, prec: int = 15):
        if prec < 1:
            raise ValueError("precision must be >= 1 digit")
        self.prec = int(prec)
        if isinstance(value, HPReal):
            self._v = value._v
        elif isinstance(value, str):
            with mp.workprec(_bits(self.prec)):
                self._v = mpmath.mpf(value)
        elif isinstance(value, Fraction):
            with mp.workprec(_bits(self.prec)):
                self._v = mpmath.mpf(value.numerator) / value.denominator
        else:
            with mp.workprec(_bits(self.prec)):
                self._v = mpmath.mpf(value)

    # -- conversions ----------------------------------------------------------
    def __float__(self) -> float:
        return float(self._v)

    def mpf(self):
        return self._v

    def to_decimal(self) -> str:
        """Serialize as ``±d.ddd...e±k`` with ``prec`` significant digits."""
        v = self._v
        if v == 0:
            return "+0." + "0" * (self.prec - 1) + "e+0"
        with mp.workprec(_bits(self.prec)):
            k = int(mpmath.floor(mpmath.log10(abs(v))))
            scaled = abs(v) / mpmath.mpf(10) ** k
            digits = mpmath.nstr(scaled, self.prec, strip_zeros=False)
        if digits.startswith("10."):  # rounding bumped the leading digit
            k += 1
            digits = "1." + "0" * (self.prec - 1)
        mant = digits if "." in digits else digits + ".0"
        # pad to exactly prec significant digits
        intpart, frac = mant.split(".")
        frac = (frac + "0" * self.prec)[: max(1, self.prec - len(intpart))]
        sign = "-" if v < 0 else "+"
        return f"{sign}{intpart}.{frac}e{k:+d}"

    def __repr__(self) -> str:
        return f"HPReal({self.to_decimal()!r}, prec={self.prec})"


# -- dilogarithm and Bloch-Wigner ----------------------------------------------


def _li2_series(z, tol):
    """Direct power series, |z| <= 0.6 or so."""
    total = mpmath.mpc(0)
    term = mpmath.mpc(1)
    k = 0
    while True:
        k += 1
        term = term * z
        inc = term / (k * k)
        total += inc
        if abs(inc) < tol and k > 3:
            return total


def _li2_bernoulli(z, tol):
    """Debye-type series Li2(z) = sum B_k u^(k+1)/(k+1)!, u = -log(1-z)."""
    u = -mpmath.log(1 - z)
    total = mpmath.mpc(0)
    upow = mpmath.mpc(u)  # u^(k+1) running power
    fact = mpmath.mpf(1)  # (k+1)! running factorial
    k = 0
    while True:
        fact *= k + 1
        b = mpmath.bernoulli(k)
        inc = b * upow / fact
        if b != 0:
            total += inc
            if abs(inc) < tol and k > 4:
                return total
        upow *= u
        k += 1
        if k > 4 * mp.prec:
            raise ArithmeticError("dilogarithm series did not converge")


def _li2_mpc(z):
    """Principal-branch Li2 at current mpmath precision (mpc in, mpc out)."""
    tol = mpmath.mpf(2) ** (-mp.prec - 5)
    pi2_6 = mp.pi**2 / 6
    if z == 0:
        return mpmath.mpc(0)
    if z == 1:
        return mpmath.mpc(pi2_6)
    offset = mpmath.mpc(0)
    sign = 1
    if abs(z) > 1:
        # inversion: Li2(z) = -Li2(1/z) - pi^2/6 - log(-z)^2 / 2
        offset = -pi2_6 - mpmath.log(-z) ** 2 / 2
        sign = -1
        z = 1 / z
    if abs(z) <= 0.6:
        core = _li2_series(z, tol)
    elif abs(1 - z) <= 0.5:
        # reflection: Li2(z) = pi^2/6 - log(z)log(1-z) - Li2(1-z)
        core = pi2_6 - mpmath.log(z) * mpmath.log(1 - z) - _li2_series(1 - z, tol)
    else:
        core = _li2_bernoulli(z, tol)
    return sign * core + offset


def li2(z, prec: int = 15):
    """Principal-branch dilogarithm Li2(z), an mpmath complex good to ``prec`` digits."""
    zv = mpmath.mpc(z)
    with mp.workprec(_bits(prec) + 10):
        return _li2_mpc(zv)


def bloch_wigner(z, prec: int = 15) -> HPReal:
    """Bloch-Wigner dilogarithm D(z).

    D(z) = Im Li2(z) + arg(1-z) log|z| for |z| <= 1 and D(z) = -D(1/z)
    outside the unit disk; identically 0 on the real line.
    """
    zv = mpmath.mpc(z)
    with mp.workprec(_bits(prec) + 10):
        if zv.imag == 0:
            return HPReal(0, prec)
        sign = 1
        if abs(zv) > 1:
            zv = 1 / zv
            sign = -1
        val = _li2_mpc(zv).imag + mpmath.arg(1 - zv) * mpmath.log(abs(zv))
        return HPReal(sign * val, prec)
