"""Dirichlet L-values, zeta'(-2), newforms from their a_p, and completed
L-functions of newforms via two-sided incomplete-gamma sums.

A newform is given by its a_p; its a_n follow by multiplicativity and the
Hecke recursion. The weight-3 CM forms of the imaginary quadratic fields with
class number 1 and units +-1 come from the Hecke character (alpha) -> alpha^2
(``cm_newform``; F7 is the form of Q(sqrt(-7))), elliptic curves from point
counts of their equation (``elliptic_newform``; F15 is Cremona's 15a1).

The completed function is Lambda(s) = (sqrt(N)/2pi)^s Gamma(s) L(f, s) with
functional equation Lambda(s) = eps Lambda(k - s); it is computed by the
standard split integral

    Lambda(s) = sum_n a_n [ (sqrt(N)/2pi n)^s Gamma(s, 2pi n A/sqrt(N))
              + eps (sqrt(N)/2pi n)^(k-s) Gamma(k-s, 2pi n/(A sqrt(N))) ],

valid for any split parameter A > 0 (independence of A is a self-check).
The trivial zero at s = -1 comes from the Gamma factor, giving
L'(f, -1) = -(sqrt(N)/2pi) Lambda(-1).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Dict, List, Tuple

import mpmath
import sympy
from mpmath import mp

from .numerics import HPReal, _bits


# -- Dirichlet characters --------------------------------------------------------------


def fundamental_discriminant(n: int) -> int:
    """The discriminant of Q(sqrt(n)) for n != 0: with c the squarefree part of n
    (sign kept), c if c = 1 mod 4, else 4c. A square n gives 1."""
    if n == 0:
        raise ValueError("0 has no fundamental discriminant")
    core = math.prod(p for p, e in sympy.factorint(n).items() if e % 2)
    return core if core % 4 == 1 else 4 * core


@dataclass(frozen=True)
class DirichletChar:
    """The real character n -> (D|n) modulo |D| of D = 1 or a fundamental discriminant:
    D = 1 mod 4 squarefree, or D = 4m with m = 2, 3 mod 4 squarefree. Only then is
    (D|.) a primitive character modulo |D|; it is built by ``quadratic(D)``."""

    D: int

    def __post_init__(self):
        if self.D == 0 or fundamental_discriminant(self.D) != self.D:
            raise ValueError(f"D = {self.D} is not 1 or a fundamental discriminant")

    @functools.cached_property
    def values(self) -> Tuple[int, ...]:
        return tuple(int(sympy.kronecker_symbol(self.D, n)) for n in range(self.modulus))

    @classmethod
    def quadratic(cls, D: int) -> "DirichletChar":
        """The character (D|.) modulo |D|; D must be 1 or a fundamental discriminant."""
        return cls(D)

    @property
    def modulus(self) -> int:
        return abs(self.D)

    def __call__(self, n: int) -> int:
        return self.values[n % self.modulus]

    @property
    def parity(self) -> str:
        """chi(-1) = sign D."""
        return "even" if self.D > 0 else "odd"


CHI_M3 = DirichletChar.quadratic(-3)
CHI_M4 = DirichletChar.quadratic(-4)
CHI_M7 = DirichletChar.quadratic(-7)


def dirichlet_L(chi: DirichletChar, s, prec: int = 15) -> HPReal:
    """L(chi, s) for s > 1 via the Hurwitz-zeta decomposition."""
    if not s > 1:
        raise ValueError("dirichlet_L requires s > 1; see dirichlet_L_continued")
    return dirichlet_L_continued(chi, s, prec)


def dirichlet_L_continued(chi: DirichletChar, s, prec: int = 15) -> HPReal:
    """Analytic continuation of L(chi, s) (any s != 1 pole cases aside)."""
    m = chi.modulus
    with mp.workprec(_bits(prec) + 20):
        s = mpmath.mpf(s) if not isinstance(s, mpmath.mpf) else s
        total = mpmath.mpf(0)
        for a in range(1, m + 1):
            if chi(a):
                total += chi(a) * mpmath.zeta(s, mpmath.mpf(a) / m)
        total *= mpmath.power(m, -s)
        return HPReal(total, prec)


def dirichlet_Lprime_neg(chi: DirichletChar, prec: int = 15) -> HPReal:
    """L'(chi, -1) for an odd primitive real character of modulus q.

    The functional equation gives L'(chi, -1) = q^(3/2)/(4 pi) L(chi, 2)
    for odd real primitive chi (validated against numerical differentiation
    of the continued L in the test suite).
    """
    if chi.parity != "odd":
        raise ValueError("the closed form requires an odd character")
    q = chi.modulus
    with mp.workprec(_bits(prec) + 20):
        L2 = dirichlet_L(chi, 2, prec + 5).mpf()
        val = mpmath.power(q, mpmath.mpf(3) / 2) / (4 * mpmath.pi) * L2
        return HPReal(val, prec)


def zeta_prime_minus2(prec: int = 15) -> HPReal:
    """zeta'(-2) = -zeta(3)/(4 pi^2)."""
    with mp.workprec(_bits(prec) + 20):
        return HPReal(-mpmath.zeta(3) / (4 * mpmath.pi**2), prec)


# -- newforms -------------------------------------------------------------------------


class NewformSpec:
    """A newform of level N, weight k, sign eps and character chi, given by its a_p.

    The a_n follow by multiplicativity and the Hecke recursion
    a_{p^(r+1)} = a_p a_{p^r} - chi(p) p^(k-1) a_{p^(r-1)}, with
    a_{p^r} = a_p^r at primes that divide N. Each a_p is computed once and
    checked then against the Deligne bound a_p^2 <= 4 p^(k-1) for p not dividing
    N; a request for more terms redoes only the multiplicative build.
    """

    def __init__(self, level: int, weight: int, eps: int, chi: DirichletChar, ap):
        if eps not in (+1, -1):
            raise ValueError("eps must be +1 or -1")
        self.level = level
        self.weight = weight
        self.eps = eps
        self.chi = chi
        self.ap = ap
        self._ap_values: Dict[int, int] = {}
        self._coeffs: List[int] = []

    def coefficients(self, n_terms: int) -> List[int]:
        """a_1 .. a_{n_terms} (index 0 unused, kept 0)."""
        if len(self._coeffs) > n_terms:
            return self._coeffs[: n_terms + 1]
        a = [0] + [1] * n_terms
        for p in sympy.sieve.primerange(2, n_terms + 1):
            c = 0 if self.level % p == 0 else self.chi(p) * p ** (self.weight - 1)
            if p not in self._ap_values:
                ap = self.ap(p)
                if self.level % p and ap * ap > 4 * p ** (self.weight - 1):
                    raise ValueError(f"Deligne bound fails at p = {p}: a_p = {ap}")
                self._ap_values[p] = ap
            ap = self._ap_values[p]
            prev, cur, q = 1, ap, p
            while q <= n_terms:
                # cur = a_q multiplies a_m for every m that q = p^r exactly divides
                for m in range(q, n_terms + 1, q):
                    if m // q % p:
                        a[m] *= cur
                prev, cur, q = cur, ap * cur - c * prev, q * p
        self._coeffs = a
        return self._coeffs


# imaginary quadratic fields with class number 1 and units +-1
CM_DISCRIMINANTS = (-7, -8, -11, -19, -43, -67, -163)


def cm_newform(d_K: int) -> NewformSpec:
    """The weight-3 CM newform of K = Q(sqrt(d_K)), of level |d_K| and sign +1, given
    by the Hecke character (alpha) -> alpha^2 (Schuett, "CM newforms with rational
    coefficients", 2009): a_p = -p at p | d_K, 0 at inert p, and at split p
    a_p = alpha^2 + conj(alpha)^2 = (u^2 + d_K v^2)/2 for alpha = (u + v sqrt(d_K))/2
    of norm p. Only d_K in ``CM_DISCRIMINANTS`` are accepted: there a_p does not
    depend on the choice of alpha."""
    if d_K not in CM_DISCRIMINANTS:
        raise ValueError(f"d_K = {d_K} is not one of {CM_DISCRIMINANTS}")
    chi = DirichletChar.quadratic(d_K)

    def ap(p: int) -> int:
        if chi(p) == 0:
            return -p
        if chi(p) == -1:
            return 0
        v = 1  # 4p = u^2 - d_K v^2 has a solution with v >= 1
        while math.isqrt(4 * p + d_K * v * v) ** 2 != 4 * p + d_K * v * v:
            v += 1
        return 2 * p + d_K * v * v  # (u^2 + d_K v^2)/2 with u^2 = 4p + d_K v^2

    return NewformSpec(abs(d_K), 3, +1, chi, ap)


def elliptic_newform(a_invariants, level: int, eps: int) -> NewformSpec:
    """The weight-2 newform of y^2 + a1 xy + a3 y = x^3 + a2 x^2 + a4 x + a6, of
    conductor ``level`` and root number ``eps``: a_p = p + 1 - #E(F_p), counting every
    projective point of the reduced equation, bad primes included."""
    a1, a2, a3, a4, a6 = a_invariants

    def ap(p: int) -> int:
        if p == 2:
            affine = sum(
                (y * y + a1 * x * y + a3 * y - x**3 - a2 * x * x - a4 * x - a6) % 2 == 0
                for x in (0, 1)
                for y in (0, 1)
            )
        else:
            # y^2 + b y = c has as many solutions as y^2 = b^2 + 4c
            roots = [0] * p
            for y in range(p):
                roots[y * y % p] += 1
            affine = sum(
                roots[((a1 * x + a3) ** 2 + 4 * (x**3 + a2 * x * x + a4 * x + a6)) % p]
                for x in range(p)
            )
        return p - affine  # one point at infinity

    return NewformSpec(level, 2, eps, DirichletChar.quadratic(1), ap)


F7 = cm_newform(-7)
F15 = elliptic_newform((1, 1, 1, -10, -10), 15, +1)  # Cremona 15a1

PRESETS = {"f7": F7, "f15": F15}


def _lambda_terms(f: NewformSpec, prec: int, A):
    """Number of series terms needed for the target precision."""
    sqN = math.sqrt(f.level)
    rate = 2 * math.pi * min(float(A), 1 / float(A)) / sqN
    # |a_n| <= d(n) n^((k-1)/2); crude: solve rate*M - k log M > prec*ln10 + 10
    target = prec * math.log(10) + 15
    M = max(20, int(target / rate))
    for _ in range(60):
        lhs = rate * M - (f.weight + 1) * math.log(M)
        if lhs >= target:
            break
        M = int(M * 1.3) + 1
    return M


def completed_lambda(f: NewformSpec, s, prec: int = 15, A=1) -> HPReal:
    """Lambda(s) by the two-sided incomplete-gamma sum with split A > 0."""
    if not float(A) > 0:
        raise ValueError("split parameter A must be positive")
    M = _lambda_terms(f, prec, A)
    a = f.coefficients(M)
    k = f.weight
    with mp.workprec(_bits(prec) + 30):
        s = mpmath.mpf(s)
        A = mpmath.mpf(A)
        sqN = mpmath.sqrt(f.level)
        twopi = 2 * mpmath.pi
        total = mpmath.mpf(0)
        for n in range(1, M + 1):
            if a[n] == 0:
                continue
            x1 = twopi * n * A / sqN
            x2 = twopi * n / (A * sqN)
            t1 = mpmath.power(sqN / (twopi * n), s) * mpmath.gammainc(s, x1)
            t2 = f.eps * mpmath.power(sqN / (twopi * n), k - s) * mpmath.gammainc(
                k - s, x2
            )
            total += a[n] * (t1 + t2)
        return HPReal(total, prec)


def lvalue(f: NewformSpec, s, prec: int = 15) -> HPReal:
    """L(f, s) = Lambda(s) (2 pi / sqrt(N))^s / Gamma(s)."""
    with mp.workprec(_bits(prec) + 30):
        lam = completed_lambda(f, s, prec + 5).mpf()
        s = mpmath.mpf(s)
        val = lam * mpmath.power(2 * mpmath.pi / mpmath.sqrt(f.level), s) / mpmath.gamma(s)
        return HPReal(val, prec)


def lprime_minus1(f: NewformSpec, prec: int = 15) -> HPReal:
    """L'(f, -1) from the Gamma-pole residue at the trivial zero.

    1/Gamma(s) vanishes to first order at s = -1 with derivative -1 (since
    Gamma(s) ~ -1/(s+1) there), so L'(-1) = -(sqrt(N)/2pi) Lambda(-1).
    """
    if f.weight < 2:
        raise ValueError("weight must be at least 2")
    with mp.workprec(_bits(prec) + 30):
        lam = completed_lambda(f, -1, prec + 5).mpf()
        val = -mpmath.sqrt(f.level) / (2 * mpmath.pi) * lam
        return HPReal(val, prec)
