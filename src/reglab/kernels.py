"""Double-precision dilogarithm kernels in NumPy.

``li2`` and ``bloch_wigner`` act elementwise on arrays of any shape and keep
that shape; a scalar input gives a NumPy scalar. Li2 uses the power series
near 0, the reflection formula near 1, the Debye (Bernoulli) series in
u = -log(1-z) elsewhere in the unit disk, and the inversion formula outside.
"""

import mpmath
import numpy as np

# Power series Li2(z) = sum z^k / k^2: number of terms used at |z| <= 0.6.
SERIES_TERMS = 96

# Debye series Li2(z) = sum_k B_k u^(k+1) / (k+1)!, u = -log(1-z).
# BERN_COEF[k] = B_k / (k+1)! as a double; odd entries beyond k=1 vanish.
BERN_TERMS = 64
BERN_COEF = [
    float(mpmath.bernoulli(k) / mpmath.factorial(k + 1)) for k in range(BERN_TERMS)
]

PI2_6 = float(mpmath.pi**2 / 6)


def _series(z):
    """Direct series sum z^k/k^2 by Horner, valid for |z| <= ~0.6."""
    out = np.zeros_like(z)
    for k in range(SERIES_TERMS, 0, -1):
        out = (out + 1.0 / (k * k)) * z
    return out


def _bernoulli(z):
    """Debye series in u = -log(1-z), valid away from z = 0 and z = 1."""
    u = -np.log(1.0 - z)
    out = np.zeros_like(u)
    for k in range(BERN_TERMS - 1, -1, -1):
        out = out * u + BERN_COEF[k]
    return out * u


def _li2_disk(z):
    """Li2 on |z| <= 1 (no inversion step)."""
    out = np.empty_like(z)
    one = z == 1.0  # log(w) log(1-w) would be 0 * inf there
    near0 = np.abs(z) <= 0.6
    near1 = ~(near0 | one) & (np.abs(1.0 - z) <= 0.5)
    rest = ~(near0 | near1 | one)
    out[one] = PI2_6
    if near0.any():
        out[near0] = _series(z[near0])
    if near1.any():
        w = z[near1]
        out[near1] = PI2_6 - np.log(w) * np.log(1.0 - w) - _series(1.0 - w)
    if rest.any():
        out[rest] = _bernoulli(z[rest])
    return out


def _scalar_out(z, out):
    """Return a NumPy scalar for 0-d input, the array otherwise."""
    return out[()] if z.ndim == 0 else out


def li2(z):
    """Double-precision principal-branch dilogarithm, elementwise."""
    z = np.asarray(z, dtype=np.complex128)
    out = np.empty_like(z)
    big = np.abs(z) > 1.0
    if big.any():
        w = 1.0 / z[big]
        out[big] = -_li2_disk(w) - PI2_6 - 0.5 * np.log(-z[big]) ** 2
    if (~big).any():
        out[~big] = _li2_disk(z[~big])
    return _scalar_out(z, out)


def bloch_wigner(z):
    """Double-precision Bloch-Wigner D(z), elementwise."""
    z = np.asarray(z, dtype=np.complex128)
    out = np.zeros(z.shape, dtype=np.float64)
    nontriv = (z.imag != 0.0) & np.isfinite(z)
    if not nontriv.any():
        return _scalar_out(z, out)
    w = z[nontriv]
    sign = np.where(np.abs(w) > 1.0, -1.0, 1.0)
    w = np.where(np.abs(w) > 1.0, 1.0 / w, w)
    val = _li2_disk(w).imag + np.angle(1.0 - w) * np.log(np.abs(w))
    out[nontriv] = sign * val
    return _scalar_out(z, out)
