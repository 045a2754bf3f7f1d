"""Dirichlet L-values, zeta'(-2), eta-product q-expansions, and completed
L-functions of newforms via two-sided incomplete-gamma sums.

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

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import mpmath
from mpmath import mp

from .numerics import HPReal, _bits


# -- Dirichlet characters --------------------------------------------------------------


def kronecker_symbol(a: int, n: int) -> int:
    """Kronecker symbol (a|n) for n >= 0."""
    if n == 0:
        return 1 if a in (1, -1) else 0
    if n < 0:
        raise ValueError("lower argument must be nonnegative")
    result = 1
    if n % 2 == 0:
        if a % 2 == 0:
            return 0
        while n % 2 == 0:
            n //= 2
            if a % 8 in (3, 5):
                result = -result
    a %= n
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


@dataclass(frozen=True)
class DirichletChar:
    """A Dirichlet character given by its value table on Z/m."""

    modulus: int
    values: Tuple[int, ...]

    def __post_init__(self):
        if self.modulus < 1:
            raise ValueError(f"modulus {self.modulus} must be at least 1")
        if len(self.values) != self.modulus:
            raise ValueError("value table must have length equal to the modulus")
        for n in range(self.modulus):
            if (math.gcd(n, self.modulus) > 1) != (self.values[n] == 0):
                raise ValueError("chi(n) = 0 exactly when gcd(n, m) > 1")
        # totally multiplicative on the table
        m = self.modulus
        for x in range(m):
            for y in range(m):
                if self.values[(x * y) % m] != self.values[x] * self.values[y]:
                    raise ValueError("character table is not multiplicative")

    @classmethod
    def quadratic(cls, D: int) -> "DirichletChar":
        """The real character n -> (D|n) modulo |D|."""
        m = abs(D)
        return cls(m, tuple(kronecker_symbol(D, n) for n in range(m)))

    def __call__(self, n: int) -> int:
        return self.values[n % self.modulus]

    @property
    def parity(self) -> str:
        return "even" if self(self.modulus - 1) == 1 else "odd"


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


# -- eta products ---------------------------------------------------------------------


@dataclass(frozen=True)
class EtaProduct:
    """prod_d eta(d tau)^{r_d}, with integral q-power offset sum(d r)/24."""

    factors: Tuple[Tuple[int, int], ...]  # (multiplier d, exponent r)
    level: Optional[int] = None

    def __post_init__(self):
        if any(d < 1 for d, _ in self.factors):
            raise ValueError("eta multipliers d must be at least 1")
        s = sum(d * r for d, r in self.factors)
        if s % 24:
            raise ValueError("sum of d*r must be divisible by 24")

    @property
    def offset(self) -> int:
        return sum(d * r for d, r in self.factors) // 24

    @property
    def weight(self):
        return sum(r for _, r in self.factors) / 2


def _eta1_sparse(n: int) -> List[Tuple[int, int]]:
    """prod (1 - q^k) by the pentagonal number theorem, exponents <= n."""
    out = [(0, 1)]
    j = 1
    while True:
        e1 = j * (3 * j - 1) // 2
        e2 = j * (3 * j + 1) // 2
        if e1 > n and e2 > n:
            break
        sign = -1 if j % 2 else 1
        if e1 <= n:
            out.append((e1, sign))
        if e2 <= n:
            out.append((e2, sign))
        j += 1
    return out


def _eta3_sparse(n: int) -> List[Tuple[int, int]]:
    """prod (1 - q^k)^3 = sum (-1)^k (2k+1) q^{k(k+1)/2}."""
    out = []
    k = 0
    while k * (k + 1) // 2 <= n:
        out.append((k * (k + 1) // 2, (2 * k + 1) * (-1 if k % 2 else 1)))
        k += 1
    return out


def _mul_sparse(series: Dict[int, int], sparse, n: int) -> Dict[int, int]:
    out: Dict[int, int] = {}
    for e0, c0 in series.items():
        for e1, c1 in sparse:
            e = e0 + e1
            if e <= n:
                out[e] = out.get(e, 0) + c0 * c1
    return {e: c for e, c in out.items() if c}


def eta_qexp(e: EtaProduct, n_terms: int) -> Tuple[int, List[int]]:
    """Exact integer q-expansion: (offset, [c_0, ..., c_{n_terms}]) where the
    series is q^offset * sum_i c_i q^i."""
    series: Dict[int, int] = {0: 1}
    for d, r in e.factors:
        if r < 0:
            raise ValueError("negative eta exponents not supported")
        cap = n_terms // d if d <= n_terms else 0
        cubes, singles = divmod(r, 3)
        for _ in range(cubes):
            sp = [(d * k, c) for k, c in _eta3_sparse(cap)]
            series = _mul_sparse(series, sp, n_terms)
        for _ in range(singles):
            sp = [(d * k, c) for k, c in _eta1_sparse(cap)]
            series = _mul_sparse(series, sp, n_terms)
    out = [0] * (n_terms + 1)
    for k, c in series.items():
        out[k] = c
    return e.offset, out


# -- newforms -------------------------------------------------------------------------


class NewformSpec:
    """Level, weight, sign, and a coefficient source (eta product or list)."""

    def __init__(self, level: int, weight: int, eps: int, source):
        if eps not in (+1, -1):
            raise ValueError("eps must be +1 or -1")
        self.level = level
        self.weight = weight
        self.eps = eps
        self.source = source
        self._coeffs: List[int] = []
        self._validated = False

    def coefficients(self, n_terms: int) -> List[int]:
        """a_1 .. a_{n_terms} (index 0 unused, kept 0)."""
        if len(self._coeffs) > n_terms:
            return self._coeffs[: n_terms + 1]
        if isinstance(self.source, EtaProduct):
            offset, c = eta_qexp(self.source, max(0, n_terms - self.source.offset))
            out = [0] * (n_terms + 1)
            for i, ci in enumerate(c):
                if offset + i <= n_terms:
                    out[offset + i] = ci
            self._coeffs = out
        else:
            src = list(self.source)
            if len(src) < n_terms + 1:
                raise ValueError(
                    f"need {n_terms} coefficients but only {len(src) - 1} supplied"
                )
            self._coeffs = src[: n_terms + 1]
        if not self._validated:
            self.validate()
            self._validated = True
        return self._coeffs

    def validate(self, bound: int = 500) -> None:
        """Multiplicativity and the Deligne bound on the expanded range."""
        a = self._coeffs
        top = min(bound, len(a) - 1)
        if top >= 1 and a[1] != 1:
            raise ValueError("coefficients are not normalized (a_1 != 1)")
        for m_ in range(2, top + 1):
            for n_ in range(m_, top + 1):
                if m_ * n_ > top:
                    break
                if math.gcd(m_, n_) == 1 and a[m_ * n_] != a[m_] * a[n_]:
                    raise ValueError(f"a_{m_ * n_} != a_{m_} a_{n_}")
        half = (self.weight - 1) / 2
        for p in range(2, min(1000, len(a) - 1)):
            if any(p % q == 0 for q in range(2, p)):
                continue
            if self.level % p == 0:
                continue
            if abs(a[p]) > 2 * p**half + 1e-9:
                raise ValueError(f"Deligne bound fails at p = {p}")


F7 = NewformSpec(7, 3, +1, EtaProduct(((1, 3), (7, 3)), level=7))
F15 = NewformSpec(15, 2, +1, EtaProduct(((1, 1), (3, 1), (5, 1), (15, 1)), level=15))

PRESETS = {"f7": F7, "f15": F15}


def _lambda_terms(f: NewformSpec, s, prec: int, A):
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
    M = _lambda_terms(f, s, prec, A)
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
