"""Exact LLL reduction and LLL-based integer-relation detection.

The reduction runs entirely over rationals (fractions.Fraction Gram-Schmidt)
so that the Lovasz condition, with the classical delta = 3/4 of Lenstra,
Lenstra and Lovasz, can be certified exactly after the fact.
Relation detection uses the classical embedding: scale the real values by
10^prec, round to integers, append an identity block, reduce, and look for a
short vector whose first coordinate (the scaled residual) is tiny.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

import mpmath
from mpmath import mp

from .numerics import HPReal, _bits

_DELTA = Fraction(3, 4)  # the Lovasz constant


class IntMatrix:
    """Dense matrix of arbitrary-size Python integers."""

    def __init__(self, rows: Sequence[Sequence[int]]):
        self.rows = [list(map(int, r)) for r in rows]
        if not self.rows:
            raise ValueError("empty matrix")
        w = len(self.rows[0])
        if any(len(r) != w for r in self.rows):
            raise ValueError("ragged rows")

    @property
    def shape(self) -> Tuple[int, int]:
        return len(self.rows), len(self.rows[0])

    def __eq__(self, other):
        return isinstance(other, IntMatrix) and self.rows == other.rows

    def __repr__(self):
        return f"IntMatrix({self.rows!r})"


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


def lovasz_holds(B: IntMatrix) -> bool:
    """Exact check of size reduction and the Lovasz condition."""
    _, mu, norms = _gram_schmidt(B.rows)
    n = B.shape[0]
    for i in range(n):
        for j in range(i):
            if abs(mu[i][j]) > Fraction(1, 2):
                return False
    for i in range(1, n):
        if norms[i] < (_DELTA - mu[i][i - 1] ** 2) * norms[i - 1]:
            return False
    return True


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


def lll_reduce(B: IntMatrix) -> IntMatrix:
    """LLL reduction with delta = 3/4 in exact rational arithmetic.

    The unimodular transform taking the input to the output is tracked and
    its determinant is verified to be +/-1; the Lovasz condition is
    re-checked on the result before returning.
    """
    rows = [r[:] for r in B.rows]
    n = len(rows)
    T = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    bstar, mu, norms = _gram_schmidt(rows)

    def size_reduce(k, j):
        if abs(mu[k][j]) > Fraction(1, 2):
            q = round(mu[k][j])
            rows[k] = [rows[k][c] - q * rows[j][c] for c in range(len(rows[k]))]
            T[k] = [T[k][c] - q * T[j][c] for c in range(n)]
            for c in range(j):
                mu[k][c] -= q * mu[j][c]
            mu[k][j] -= q

    k = 1
    while k < n:
        for j in range(k - 1, -1, -1):
            size_reduce(k, j)
        if norms[k] >= (_DELTA - mu[k][k - 1] ** 2) * norms[k - 1]:
            k += 1
        else:
            rows[k - 1], rows[k] = rows[k], rows[k - 1]
            T[k - 1], T[k] = T[k], T[k - 1]
            bstar, mu, norms = _gram_schmidt(rows)
            k = max(k - 1, 1)

    out = IntMatrix(rows)
    if not _det_pm1(T):
        raise RuntimeError("internal error: transform is not unimodular")
    if not lovasz_holds(out):
        raise RuntimeError("internal error: Lovasz condition fails on output")
    return out


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
        red = lll_reduce(IntMatrix(rows))

        threshold = mpmath.mpf(10) ** (-effective) * maxv
        best = None
        for row in red.rows:
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

