"""Arbitrary-precision scalars and special functions.

Precision is specified in decimal digits throughout. Real results are
wrapped in :class:`HPReal`, an immutable carrier of an mpmath float and the
precision it was computed to; arithmetic is done on the mpmath values. The
Bloch-Wigner dilogarithm is implemented here directly (functional equations
plus the Bernoulli series of Li2) on top of mpmath's big floats.
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
        """Serialize as ``±d.ddd...e±k`` with exactly ``prec`` significant digits
        (``±de±k`` at prec 1)."""
        v = self._v
        if v == 0:
            intpart, frac, k = "0", "", 0
        else:
            with mp.workprec(_bits(self.prec)):
                k = int(mpmath.floor(mpmath.log10(abs(v))))
                scaled = abs(v) / mpmath.mpf(10) ** k
                digits = mpmath.nstr(scaled, self.prec, strip_zeros=False)
            # rounding bumped the leading digit: "10." at prec >= 2, "1.e+1" at prec 1
            if digits.startswith("10.") or "e" in digits:
                k += 1
                digits = "1."
            intpart, frac = (digits if "." in digits else digits + ".").split(".")
        frac = (frac + "0" * self.prec)[: self.prec - len(intpart)]
        sign = "-" if v < 0 else "+"
        return f"{sign}{intpart}{'.' + frac if frac else ''}e{k:+d}"

    def __repr__(self) -> str:
        return f"HPReal({self.to_decimal()!r}, prec={self.prec})"


# -- Bloch-Wigner dilogarithm -------------------------------------------------


def bloch_wigner(z, prec: int = 15) -> HPReal:
    """Bloch-Wigner dilogarithm D(z), identically 0 on the real line.

    The same algorithm as ``kernels.bloch_wigner``: map z by
    D(1/z) = D(1 - z) = -D(z) into |w| <= 1, Re w <= 1/2, then
    D(w) = Im Li2(w) + arg(1-w) log|w| with Li2 from its Bernoulli series
    in u = -log(1-w), |u| <= pi/3.
    """
    zv = mpmath.mpc(z)
    with mp.workprec(_bits(prec) + 10):
        if zv.imag == 0:
            return HPReal(0, prec)
        sign = 1
        if abs(zv) > 1:
            zv, sign = 1 / zv, -sign
        if zv.real > 0.5:
            zv, sign = 1 - zv, -sign
        u = -mpmath.log(1 - zv)
        u2 = u * u
        tol = mpmath.mpf(2) ** (-mp.prec - 5)
        li2 = u - u2 / 4
        upow, fact = u, mpmath.mpf(1)  # u^(2j+1) and (2j+1)!
        for j in range(1, mp.prec):
            upow *= u2
            fact *= 2 * j * (2 * j + 1)
            inc = mpmath.bernoulli(2 * j) * upow / fact
            li2 += inc
            if abs(inc) < tol:
                val = li2.imag + mpmath.arg(1 - zv) * mpmath.log(abs(zv))
                return HPReal(sign * val, prec)
        raise ArithmeticError("Bernoulli series of the dilogarithm did not converge")
