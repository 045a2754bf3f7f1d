"""Exact LLL reduction and LLL-based integer-relation detection.

The reduction is integral LLL (Cohen, "A Course in Computational Algebraic
Number Theory", 1993, Alg. 2.6.7) with the classical delta = 3/4 of Lenstra,
Lenstra and Lovasz: the Gram-Schmidt data are integers, updated on each size
reduction and swap, so every decision is exact; the Lovasz condition is
certified after the fact with a rational (fractions.Fraction) Gram-Schmidt.
A lattice is a list of integer rows; empty, ragged and non-integer input is
refused.
Relation detection uses the classical embedding: scale the real values by
10^prec, round to integers, append an identity block, reduce, and look for a
short vector whose first coordinate (the scaled residual) is tiny.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence

import mpmath
from mpmath import mp

from .numerics import HPReal, _bits

_DELTA = Fraction(3, 4)  # the Lovasz constant


def _int_rows(rows: Sequence[Sequence[int]]) -> List[List[int]]:
    """The rows as lists of Python integers; empty, ragged or non-integer input is refused."""
    if not rows:
        raise ValueError("empty matrix")
    if any(len(r) != len(rows[0]) for r in rows):
        raise ValueError("ragged rows")
    if not all(isinstance(x, numbers.Integral) for r in rows for x in r):
        raise ValueError("entries must be integers")
    return [[int(x) for x in r] for r in rows]


def _gram_schmidt(rows: List[List[int]]):
    """Exact GS: returns (B* as Fractions, mu lower-triangular)."""
    n = len(rows)
    bstar: List[List[Fraction]] = []
    mu = [[Fraction(0)] * n for _ in range(n)]
    norms: List[Fraction] = []
    for i in range(n):
        v = [Fraction(x) for x in rows[i]]
        for j in range(i):
            if norms[j] == 0:
                raise ValueError("rows are linearly dependent")
            mu[i][j] = sum(Fraction(rows[i][k]) * bstar[j][k] for k in range(len(v))) / norms[j]
            v = [v[k] - mu[i][j] * bstar[j][k] for k in range(len(v))]
        bstar.append(v)
        norms.append(sum(x * x for x in v))
        if norms[i] == 0:
            raise ValueError("rows are linearly dependent")
    return bstar, mu, norms


def lovasz_holds(rows: Sequence[Sequence[int]]) -> bool:
    """Exact check of size reduction and the Lovasz condition."""
    rows = _int_rows(rows)
    _, mu, norms = _gram_schmidt(rows)
    n = len(rows)
    size_reduced = all(abs(mu[i][j]) <= Fraction(1, 2) for i in range(n) for j in range(i))
    lovasz = all(norms[k] >= (_DELTA - mu[k][k - 1] ** 2) * norms[k - 1] for k in range(1, n))
    return size_reduced and lovasz


def _det_pm1(T: List[List[int]]) -> bool:
    """Bareiss determinant; True iff det = +/-1."""
    n = len(T)
    a = [row[:] for row in T]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for r in range(k + 1, n):
                if a[r][k]:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return False
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return abs(sign * a[-1][-1]) == 1


def _integral_gram_schmidt(rows: List[List[int]]):
    """The integral Gram-Schmidt data (d, lam) of Cohen's Alg. 2.6.7.

    d[0] = 1 and d[i + 1] = d[i] |b*_i|^2 is the determinant of the Gram
    matrix of rows 0..i; lam[i][j] = d[j + 1] mu_ij for j < i. All are
    integers, and every division below is exact. ValueError if the rows are
    linearly dependent.
    """
    n = len(rows)
    d = [1] + [0] * n
    lam = [[0] * n for _ in range(n)]
    for k in range(n):
        for j in range(k + 1):
            u = sum(a * b for a, b in zip(rows[k], rows[j]))
            for i in range(j):
                u = (d[i + 1] * u - lam[k][i] * lam[j][i]) // d[i]
            if j < k:
                lam[k][j] = u
            else:
                d[k + 1] = u
        if d[k + 1] == 0:
            raise ValueError("rows are linearly dependent")
    return d, lam


def lll_reduce(rows: Sequence[Sequence[int]]) -> List[List[int]]:
    """LLL reduction with delta = 3/4 in exact integer arithmetic.

    Integral LLL (Cohen, "A Course in Computational Algebraic Number
    Theory", 1993, Alg. 2.6.7): the Gram-Schmidt data d and lam of
    ``_integral_gram_schmidt`` are computed once and updated on each size
    reduction and swap. Row k is size-reduced against every earlier row j,
    from k - 1 down, where |mu_kj| > 1/2, by q = round(mu_kj); then the
    Lovasz test between rows k - 1 and k is
    4 d[k+1] d[k-1] >= 3 d[k]^2 - 4 lam[k][k-1]^2. The unimodular transform
    taking the input to the output is tracked and its determinant is
    verified to be +/-1; the Lovasz condition is re-checked on the result,
    with the rational Gram-Schmidt, before returning.
    """
    rows = _int_rows(rows)
    n = len(rows)
    T = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    d, lam = _integral_gram_schmidt(rows)

    def size_reduce(k, j):
        if 2 * abs(lam[k][j]) > d[j + 1]:
            q = round(Fraction(lam[k][j], d[j + 1]))
            rows[k] = [a - q * b for a, b in zip(rows[k], rows[j])]
            T[k] = [a - q * b for a, b in zip(T[k], T[j])]
            for c in range(j):
                lam[k][c] -= q * lam[j][c]
            lam[k][j] -= q * d[j + 1]

    def swap(k):
        rows[k - 1], rows[k] = rows[k], rows[k - 1]
        T[k - 1], T[k] = T[k], T[k - 1]
        for j in range(k - 1):
            lam[k - 1][j], lam[k][j] = lam[k][j], lam[k - 1][j]
        m = lam[k][k - 1]  # unchanged by the swap
        b = (d[k - 1] * d[k + 1] + m * m) // d[k]
        for i in range(k + 1, n):
            t = lam[i][k]
            lam[i][k] = (d[k + 1] * lam[i][k - 1] - m * t) // d[k]
            lam[i][k - 1] = (b * t + m * lam[i][k]) // d[k + 1]
        d[k] = b

    k = 1
    while k < n:
        for j in range(k - 1, -1, -1):
            size_reduce(k, j)
        if 4 * d[k + 1] * d[k - 1] >= 3 * d[k] ** 2 - 4 * lam[k][k - 1] ** 2:
            k += 1
        else:
            swap(k)
            k = max(k - 1, 1)

    if not _det_pm1(T):
        raise RuntimeError("internal error: transform is not unimodular")
    if not lovasz_holds(rows):
        raise RuntimeError("internal error: Lovasz condition fails on output")
    return rows


@dataclass
class RelationReport:
    coefficients: List[int]
    residual: float
    confidence: float

    def to_dict(self) -> dict:
        return {
            "coefficients": self.coefficients,
            "residual": self.residual,
            "confidence": self.confidence,
        }


def find_integer_relation(
    values: Sequence, max_height: int = 100, prec: int = 30
) -> Optional[RelationReport]:
    """Integer relation c with |sum c_i v_i| tiny and ||c||_inf <= max_height.

    Returns None when no convincing relation exists. Raises when the stated
    precision cannot support the requested height (the search would only be
    able to return noise).
    """
    if len(values) < 2:
        raise ValueError("need at least two values")
    k = len(values)
    height_digits = k * math.log10(max(max_height, 2))
    effective = prec - height_digits - 5
    if effective <= 0:
        raise ValueError(
            f"precision {prec} cannot certify relations of height {max_height} "
            f"among {k} values"
        )

    with mp.workprec(_bits(prec) + 20):
        vs = [v.mpf() if isinstance(v, HPReal) else mpmath.mpf(str(v)) for v in values]
        maxv = max(abs(v) for v in vs)
        if maxv == 0:
            return None
        scale = mpmath.mpf(10) ** prec
        col = [int(mpmath.nint(v * scale)) for v in vs]

        rows = [[col[i]] + [1 if j == i else 0 for j in range(k)] for i in range(k)]
        red = lll_reduce(rows)

        threshold = mpmath.mpf(10) ** (-effective) * maxv
        best = None
        for row in red:
            c = row[1:]
            if all(x == 0 for x in c) or max(abs(x) for x in c) > max_height:
                continue
            resid = abs(sum(ci * vi for ci, vi in zip(c, vs)))
            if resid >= threshold:
                continue
            norm = mpmath.sqrt(sum(x * x for x in c))
            # floored at the working resolution: an exact relation has resid = 0
            conf = float(mpmath.log10(norm * maxv / max(resid, mp.eps * maxv)))
            if conf < 5:
                continue
            if best is None or resid < best[1]:
                best = (c, resid, conf)
        if best is None:
            return None
        c, resid, conf = best
        # normalize the sign: first nonzero coefficient positive
        lead = next(x for x in c if x)
        if lead < 0:
            c = [-x for x in c]
        return RelationReport(list(c), float(resid), conf)

