"""Arbitrary-precision scalars and special functions.

Precision is specified in decimal digits throughout. Values are wrapped in
:class:`HPReal` / :class:`HPComplex`, thin immutable wrappers around mpmath
numbers that carry their working precision with them. The dilogarithm and
the Bloch-Wigner function are implemented here directly (series plus
functional equations); mpmath supplies the underlying big-float arithmetic
and the incomplete gamma for positive first argument.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

import mpmath
from mpmath import mp

_LOG2_10 = 3.321928094887362
_GUARD_BITS = 10  # roughly a 2-digit guard

Number = Union[int, float, Fraction, "HPReal"]


def _bits(prec: int) -> int:
    return max(53, int(prec * _LOG2_10) + _GUARD_BITS)


def _to_mpf(x, prec: int):
    if isinstance(x, HPReal):
        return x._v
    if isinstance(x, Fraction):
        with mp.workprec(_bits(prec)):
            return mpmath.mpf(x.numerator) / x.denominator
    with mp.workprec(_bits(prec)):
        return mpmath.mpf(x)


class HPReal:
    """An immutable arbitrary-precision real with explicit decimal precision.

    The value is stored as an mpmath float. Arithmetic carries the minimum
    precision of the operands.
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

    # -- arithmetic -----------------------------------------------------------
    def _combine(self, other, op):
        prec = min(self.prec, other.prec) if isinstance(other, HPReal) else self.prec
        ov = _to_mpf(other, prec)
        with mp.workprec(_bits(prec)):
            return HPReal(op(self._v, ov), prec)

    def __add__(self, o):
        return self._combine(o, lambda a, b: a + b)

    __radd__ = __add__

    def __sub__(self, o):
        return self._combine(o, lambda a, b: a - b)

    def __rsub__(self, o):
        return self._combine(o, lambda a, b: b - a)

    def __mul__(self, o):
        return self._combine(o, lambda a, b: a * b)

    __rmul__ = __mul__

    def __truediv__(self, o):
        return self._combine(o, lambda a, b: a / b)

    def __rtruediv__(self, o):
        return self._combine(o, lambda a, b: b / a)

    def __pow__(self, o):
        return self._combine(o, lambda a, b: a**b)

    def __neg__(self):
        return HPReal(-self._v, self.prec)

    def __abs__(self):
        return HPReal(abs(self._v), self.prec)

    def _cmp_value(self, o):
        return o._v if isinstance(o, HPReal) else _to_mpf(o, self.prec)

    def __eq__(self, o):
        return self._v == self._cmp_value(o)

    def __lt__(self, o):
        return self._v < self._cmp_value(o)

    def __le__(self, o):
        return self._v <= self._cmp_value(o)

    def __gt__(self, o):
        return self._v > self._cmp_value(o)

    def __ge__(self, o):
        return self._v >= self._cmp_value(o)

    def __hash__(self):
        return hash(self._v)


class HPComplex:
    """Complex number with HPReal components."""

    __slots__ = ("re", "im")

    def __init__(self, re, im=0, prec: int = 15):
        if isinstance(re, HPComplex):
            self.re, self.im = re.re, re.im
            return
        if isinstance(re, complex) or isinstance(re, mpmath.mpc):
            self.re = HPReal(re.real if isinstance(re, complex) else re.real, prec)
            self.im = HPReal(re.imag if isinstance(re, complex) else re.imag, prec)
            return
        self.re = re if isinstance(re, HPReal) else HPReal(re, prec)
        self.im = im if isinstance(im, HPReal) else HPReal(im, prec)

    @property
    def prec(self) -> int:
        return min(self.re.prec, self.im.prec)

    def mpc(self):
        return mpmath.mpc(self.re._v, self.im._v)

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __abs__(self) -> HPReal:
        prec = self.prec
        with mp.workprec(_bits(prec)):
            return HPReal(mpmath.hypot(self.re._v, self.im._v), prec)

    def conjugate(self) -> "HPComplex":
        return HPComplex(self.re, -self.im)

    def __repr__(self):
        return f"HPComplex({self.re.to_decimal()}, {self.im.to_decimal()})"

    def _coerce(self, o):
        if isinstance(o, HPComplex):
            return o
        return HPComplex(o, 0, self.prec)

    def __add__(self, o):
        o = self._coerce(o)
        return HPComplex(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, o):
        o = self._coerce(o)
        return HPComplex(self.re - o.re, self.im - o.im)

    def __mul__(self, o):
        o = self._coerce(o)
        return HPComplex(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __neg__(self):
        return HPComplex(-self.re, -self.im)


# -- constants and elementary functions ----------------------------------------

_CONSTS = {
    "pi": lambda: +mp.pi,
    "zeta3": lambda: mpmath.zeta(3),
    "catalan": lambda: +mp.catalan,
}


def hp_const(name: str, prec: int) -> HPReal:
    """Return pi, zeta3 or catalan to ``prec`` digits."""
    if prec < 15:
        raise ValueError("prec must be >= 15")
    if name not in _CONSTS:
        raise ValueError(f"unknown constant {name!r}")
    with mp.workprec(_bits(prec) + 10):
        return HPReal(_CONSTS[name](), prec)


def hp_eval(fn: str, args, prec: int) -> HPReal:
    """Evaluate an elementary function (log, exp, atan2, pow, sqrt)."""
    if not isinstance(args, (list, tuple)):
        args = (args,)
    vals = [_to_mpf(a, prec) for a in args]
    with mp.workprec(_bits(prec)):
        if fn == "log":
            if vals[0] <= 0:
                raise ValueError("log requires a positive argument")
            return HPReal(mpmath.log(vals[0]), prec)
        if fn == "exp":
            return HPReal(mpmath.exp(vals[0]), prec)
        if fn == "atan2":
            if vals[0] == 0 and vals[1] == 0:
                raise ValueError("atan2(0, 0) is undefined")
            return HPReal(mpmath.atan2(vals[0], vals[1]), prec)
        if fn == "pow":
            return HPReal(vals[0] ** vals[1], prec)
        if fn == "sqrt":
            if vals[0] < 0:
                raise ValueError("sqrt requires a nonnegative argument")
            return HPReal(mpmath.sqrt(vals[0]), prec)
    raise ValueError(f"unknown function {fn!r}")


def gamma_upper(s, x, prec: int = 15) -> HPReal:
    """Upper incomplete gamma Γ(s, x) for real s and x >= 0.

    For x > 0 the integral converges for every real s (mpmath continues
    through the nonpositive-integer poles of Γ(s) itself).
    """
    sv = _to_mpf(s, prec)
    xv = _to_mpf(x, prec)
    if xv < 0:
        raise ValueError("x must be >= 0")
    with mp.workprec(_bits(prec) + 20):
        if xv == 0:
            if sv <= 0 and sv == mpmath.floor(sv):
                raise ValueError("gamma_upper pole at nonpositive integer s with x = 0")
            return HPReal(mpmath.gamma(sv), prec)
        return HPReal(mpmath.gammainc(sv, a=xv), prec)


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


def li2(z, prec: int = 15) -> HPComplex:
    """Principal-branch dilogarithm Li2(z)."""
    if isinstance(z, HPComplex):
        zv = z.mpc()
    elif isinstance(z, HPReal):
        zv = mpmath.mpc(z._v)
    else:
        zv = mpmath.mpc(z)
    with mp.workprec(_bits(prec) + 10):
        return HPComplex(_li2_mpc(zv), prec=prec)


def bloch_wigner(z, prec: int = 15) -> HPReal:
    """Bloch-Wigner dilogarithm D(z).

    D(z) = Im Li2(z) + arg(1-z) log|z| for |z| <= 1 and D(z) = -D(1/z)
    outside the unit disk; identically 0 on the real line.
    """
    if isinstance(z, HPComplex):
        zv = z.mpc()
    elif isinstance(z, HPReal):
        zv = mpmath.mpc(z._v)
    else:
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
