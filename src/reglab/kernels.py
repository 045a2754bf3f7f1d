"""Double-precision Bloch-Wigner dilogarithm kernel in NumPy.

``bloch_wigner`` acts elementwise on arrays of any shape and keeps that
shape; a scalar input gives a NumPy scalar. It maps z by the symmetries
D(1/z) = D(1 - z) = -D(z) into |w| <= 1, Re w <= 1/2, where
u = -log(1-w) has |u| <= pi/3, and sums the Bernoulli series of Li2 in u
there (Zagier, "The dilogarithm function", 2007). On the unit circle D is
the Clausen function: D(e^(i theta)) = Cl2(theta).

u is formed from real parts, -log|1-w| - i arctan2(Im(1-w), Re(1-w)), in
place in the array of 1 - w: numpy's complex ``log`` costs about ten times
as much per element. Re(1-w) >= 1/2 after the reduction, so arctan2 stays
far from its branch cut. Against complex ``log`` the imaginary part moves
by at most an ulp and the real part by at most about 3e-16 (complex
``log`` is more careful where |1-w| is near 1); on 64,000 random points D
moved by at most 2.2e-16.
"""

import numpy as np

from .numerics import li2_series_coef

# Li2(w) = u - u^2/4 + sum_j B_2j u^(2j+1) / (2j+1)!, u = -log(1-w).
# BERN_COEF[j-1] = B_2j / (2j+1)!, the exact value rounded to a double; at
# |u| <= pi/3 the last term kept is below 2e-20.
BERN_TERMS = 12
BERN_COEF = [float(li2_series_coef(j)) for j in range(1, BERN_TERMS + 1)]


def _scalar_out(z, out):
    """Return a NumPy scalar for 0-d input, the array otherwise."""
    return out[()] if z.ndim == 0 else out


def _reduce(w):
    """Map w in place by D(1/z) = D(1 - z) = -D(z) into |w| <= 1, Re w <= 1/2 and
    return the masks of the two steps; the copies of z it needs die on return."""
    big = np.abs(w) > 1.0
    zbig = w[big]
    w[big] = 1.0 / zbig
    refl = w.real > 0.5
    w[refl & ~big] = 1.0 - w[refl & ~big]
    # after both steps w = 1 - 1/z, formed as (z - 1)/z: near z = 1 the rounded
    # 1/z would lose the digits of z - 1, which is exact
    zbig = zbig[refl[big]]
    w[refl & big] = (zbig - 1.0) / zbig
    return big, refl


def bloch_wigner(z):
    """Double-precision Bloch-Wigner D(z), elementwise; 0 on the real line."""
    z = np.asarray(z, dtype=np.complex128)
    out = np.zeros(z.shape, dtype=np.float64)
    nontriv = (z.imag != 0.0) & np.isfinite(z)
    if not nontriv.any():
        return _scalar_out(z, out)
    w = z[nontriv]
    big, refl = _reduce(w)
    # u = -log(1 - w) = -log|1 - w| - i arg(1 - w), from the real parts and in
    # place: Re(1 - w) >= 1/2, so the branch cut of arg is far away
    u = 1.0 - w
    size = np.abs(u)
    np.arctan2(u.imag, u.real, out=u.imag)
    u.real = np.log(size, out=size)
    del size
    u *= -1.0
    u2 = u * u
    # Li2(w) = u + u^3 s - u^2/4, s the Bernoulli sum by Horner in u^2,
    # updated in place so that few arrays of the batch's length are alive
    li2 = np.zeros_like(u)
    for c in reversed(BERN_COEF):
        li2 *= u2
        li2 += c
    li2 *= u2
    li2 += 1.0
    li2 *= u
    u2 *= 0.25
    li2 -= u2
    val = li2.imag - u.imag * np.log(np.abs(w))  # arg(1 - w) = -Im u
    val[big] *= -1.0
    val[refl] *= -1.0
    out[nontriv] = val
    return _scalar_out(z, out)
