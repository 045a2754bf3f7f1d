"""Batched evaluation of the regulator differential forms.

Forms are built from log|g|, dlog|g|, d arg g and the Bloch-Wigner
dilogarithm. Each function g enters as a ``Jet``: its complex values at N
points and their gradients with respect to k real parameters (for instance
the coordinates of a chart), carried by forward-mode arithmetic, so the only
numerical error at a point is double-precision roundoff. Every form is
evaluated at all N points at once and returns N values.

A k-form is evaluated on jets in k parameters u_1, ..., u_k and returned as
its density on du_1 ^ ... ^ du_k: the determinant of the k x k matrix of
1-form values on the coordinate directions, by expansion along the first
row. d arg is computed as Im(dg/g), which never crosses a branch cut. The
alternation operator carries a leading minus sign:
Alt_n G = -sum_sigma sgn(sigma) G(sigma).
"""

from __future__ import annotations

import math
from itertools import permutations
from typing import Sequence

import numpy as np

from .kernels import bloch_wigner
from .symbolic import eval_poly, sorted_with_sign


def _const(c):
    """A non-jet operand as a complex scalar or an array of N values."""
    return c if isinstance(c, np.ndarray) else complex(c)


def _col(c):
    """Broadcast a per-point factor against an (N, k) gradient."""
    return c[:, None] if np.ndim(c) else c


class Jet:
    """Complex values at N points plus their gradients in k parameters.

    ``val`` has shape (N,) and ``grad`` shape (N, k). A scalar value with a
    (k,) gradient is a batch of one; a (k,) gradient with N values is shared
    by all N points. Operands that are not jets (numbers, or arrays of N
    values) have zero gradient.
    """

    __slots__ = ("val", "grad")
    __array_ufunc__ = None  # numpy operands defer to the reflected operators

    def __init__(self, val, grad):
        self.val = np.atleast_1d(np.asarray(val, dtype=np.complex128))
        grad = np.asarray(grad, dtype=np.complex128)
        if grad.ndim == 1:
            grad = np.broadcast_to(grad, self.val.shape + grad.shape)
        self.grad = grad

    def __add__(self, other):
        if isinstance(other, Jet):
            return Jet(self.val + other.val, self.grad + other.grad)
        return Jet(self.val + _const(other), self.grad)

    __radd__ = __add__

    def __neg__(self):
        return Jet(-self.val, -self.grad)

    def __sub__(self, other):
        if isinstance(other, Jet):
            return self + (-other)
        return Jet(self.val - _const(other), self.grad)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Jet):
            return Jet(
                self.val * other.val,
                self.val[:, None] * other.grad + other.val[:, None] * self.grad,
            )
        c = _const(other)
        return Jet(self.val * c, _col(c) * self.grad)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            inv = 1.0 / other.val
            q = self.val * inv
            return Jet(q, (self.grad - q[:, None] * other.grad) * inv[:, None])
        inv = 1.0 / _const(other)
        return Jet(self.val * inv, self.grad * _col(inv))

    def __rtruediv__(self, other):
        inv = 1.0 / self.val
        q = _const(other) * inv
        return Jet(q, -(q[:, None] * self.grad) * inv[:, None])

    def __pow__(self, n: int):
        if n == 0:
            return Jet(np.ones_like(self.val), np.zeros_like(self.grad))
        if n < 0:
            return (1.0 / self) ** (-n)
        out = self
        for _ in range(n - 1):
            out = out * self
        return out


# -- 1-form ingredients ---------------------------------------------------------------
# A 1-form is given by its values on the parameter directions: an (N, k) array whose
# column j is the form on d/du_j at each point.


def _dlog(g: Jet) -> np.ndarray:
    """dg/g on each parameter direction: shape (N, k)."""
    return g.grad / g.val[:, None]


def dlog_abs(g: Jet) -> np.ndarray:
    """dlog|g| on each parameter direction."""
    return _dlog(g).real


def diarg(g: Jet) -> np.ndarray:
    """i d arg g on each parameter direction, via Im(dg/g) (no branch cut)."""
    return 1j * _dlog(g).imag


def log_abs(g: Jet) -> np.ndarray:
    return np.log(np.abs(g.val))


def wedge_value(rows: Sequence[np.ndarray]):
    """omega_1 ^ ... ^ omega_m on (d/du_1, ..., d/du_m), where rows[i][:, j] is
    omega_i(d/du_j) at each point."""
    m = len(rows)
    if any(r.shape[-1] != m for r in rows):
        raise ValueError("wedge degree must match the number of parameters")
    if m == 0:
        return 1.0 + 0j
    return _minor(rows, tuple(range(m)))


def _minor(rows: Sequence[np.ndarray], cols: tuple):
    """det of rows[i][:, cols] at each point, expanded along the first row."""
    first = rows[0]
    if len(rows) == 1:
        return first[:, cols[0]]
    total = first[:, cols[0]] * _minor(rows[1:], cols[1:])
    for j in range(1, len(cols)):
        term = first[:, cols[j]] * _minor(rows[1:], cols[:j] + cols[j + 1 :])
        total = total - term if j % 2 else total + term
    return total


def _signed_permutations(n: int):
    """Each permutation of range(n) with its sign."""
    return [(p, sorted_with_sign(p)[1]) for p in permutations(range(n))]


def _c(j: int, n: int) -> float:
    return 1.0 / (math.factorial(2 * j + 1) * math.factorial(n - 2 * j - 1))


def _require_degree(jets: Sequence[Jet], degree: int, what: str) -> None:
    """A ``degree``-form is a density in as many parameters as its degree."""
    for g in jets:
        if g.grad.shape[1] != degree:
            raise ValueError(
                f"{what} is a {degree}-form; its jets carry {g.grad.shape[1]} parameters"
            )


def _require_nonzero(gs: Sequence[Jet], what: str) -> None:
    for g in gs:
        if np.any(g.val == 0):
            raise ValueError(f"{what} vanishes at the point")


# -- the forms --------------------------------------------------------------------------


def eta_eval(xs: Sequence[Jet]) -> np.ndarray:
    """eta(x_1, ..., x_n), an (n-1)-form in n-1 parameters, at every point."""
    n = len(xs)
    _require_degree(xs, n - 1, "eta")
    _require_nonzero(xs, "a coordinate")
    eps = [log_abs(x) for x in xs]
    dl = [_dlog(x) / 2.0 for x in xs]
    holo, antiholo = dl, [np.conj(d) for d in dl]  # (1,0) and (0,1) parts of dlog|x|
    pre = 2.0 ** (n - 1) / math.factorial(n)
    total = 0.0 + 0j
    for p, sign in _signed_permutations(n):
        for j in range(1, n + 1):
            rows = [antiholo[i] for i in p[1:j]] + [holo[i] for i in p[j:]]
            total = total + sign * (-1) ** (j - 1) * eps[p[0]] * wedge_value(rows)
    return pre * total


def rnn_eval(gs: Sequence[Jet]) -> np.ndarray:
    """r_n(n)(g_1 ^ ... ^ g_n), an (n-1)-form in n-1 parameters, at every point."""
    n = len(gs)
    _require_degree(gs, n - 1, "r_n(n)")
    _require_nonzero(gs, "a wedge entry")
    eps = [log_abs(g) for g in gs]
    dl = [_dlog(g) for g in gs]
    dabs, iarg = [d.real for d in dl], [1j * d.imag for d in dl]
    total = 0.0 + 0j
    for p, sign in _signed_permutations(n):
        inner = 0.0 + 0j
        for j in range((n - 1) // 2 + 1):
            rows = [dabs[i] for i in p[1 : 2 * j + 1]] + [iarg[i] for i in p[2 * j + 1 :]]
            inner = inner + _c(j, n) * wedge_value(rows)
        total = total + sign * eps[p[0]] * inner
    return -total  # Alt_n carries a leading minus


def rho_eval(fv: Jet, gs: Sequence[Jet]) -> np.ndarray:
    """r_n(n-1)({f}_2 (x) g_1 ^ ... ^ g_(n-2)), an (n-2)-form in n-2 parameters, at
    every point."""
    n = len(gs) + 2
    _require_degree([fv, *gs], n - 2, "r_n(n-1)")
    if np.any((fv.val == 0.0) | (fv.val == 1.0)):
        raise ValueError("Steinberg degeneracy: f in {0, 1} at the point")
    _require_nonzero(gs, "a wedge entry")
    m2 = n - 2
    eps = [log_abs(g) for g in gs]
    dl = [_dlog(g) for g in gs]
    dabs, iarg = [d.real for d in dl], [1j * d.imag for d in dl]

    d_part = 0.0 + 0j
    for p, sign in _signed_permutations(m2):
        for q in range(m2 // 2 + 1):
            rows = [dabs[i] for i in p[: 2 * q]] + [iarg[i] for i in p[2 * q :]]
            d_part = d_part + sign * _c(q, n - 1) * wedge_value(rows)
    d_part = -d_part  # Alt_(n-2)
    total = 1j * bloch_wigner(fv.val) * d_part

    # theta(1-f, f) = log|1-f| dlog|f| - log|f| dlog|1-f|, wedged in front
    one_minus = 1 - fv
    la, lb = log_abs(one_minus), log_abs(fv)
    theta = la[:, None] * dlog_abs(fv) - lb[:, None] * dlog_abs(one_minus)

    t_part = 0.0 + 0j
    for p, sign in _signed_permutations(m2):
        for m in range(1, (n - 1) // 2 + 1):
            rows = [theta] + [dabs[i] for i in p[1 : 2 * m - 1]]
            rows += [iarg[i] for i in p[2 * m - 1 :]]
            coef = _c(m - 1, n - 2) / (2 * m + 1)
            t_part = t_part + sign * coef * eps[p[0]] * wedge_value(rows)
    total = total - t_part  # Alt_(n-2) again
    # Global sign fixed so that d(rho({f}_2 (x) g...)) = r_n(n)(f ^ (1-f) ^ g...),
    # i.e. the n = 4 value is iD(f)(diarg g1 ^ diarg g2 + (1/3) dlog|g1| ^ dlog|g2|)
    # + (1/3) theta(1-f,f) ^ (log|g1| diarg g2 - log|g2| diarg g1).
    return -total


def rho_of_element_at(xi, xs: Sequence[Jet]) -> np.ndarray:
    """rho applied termwise to a B2WedgeElement at explicit coordinate jets
    (one jet per basis variable; wedge labels must be basis polynomials)."""
    values = dict(zip(xi.basis.vars, xs))
    total = 0.0 + 0j
    for c, f, labels in xi.terms_list():
        gs = []
        for kind, key in labels:
            if kind != "b":
                raise ValueError("prime labels have no pointwise value")
            gs.append(eval_poly(xi.basis.polys[key], values))
        fv = f.evaluate(values)
        if not isinstance(fv, Jet):
            fv = Jet(np.broadcast_to(fv, xs[0].val.shape), np.zeros_like(xs[0].grad))
        total = total + float(c) * rho_eval(fv, gs)
    return total
