"""The boundary of the Deninger chain and the regulator integral over it.

For P = (1+x_1)...(1+x_k) + t on the torus, write x_j = e^{i theta_j} and
use |1 + e^{i s}| = 2 cos(s/2) on (-pi, pi). The boundary of the chain
Gamma is the kink

    prod_j 2 cos(theta_j/2) = 1,

a two-sheeted graph theta_k = +/- V over the region where the product c of
2cos(theta_j/2) over the outer angles theta_1..theta_(k-1) is at least 1/2,
with the fold angle V = 2 arccos(1/(2c)). The flagship polynomial has k = 3
(a surface, n = 4 variables) and its analogue (1+x)(1+y) + z has k = 2 (a
curve, n = 3). At the fold, where V = 0, the derivatives blow up like a
square root; ``kink_chart`` cures this with the sine substitutions
theta_j = theta_j* sin(u_j), whose Jacobians vanish at the edge. The same
chart parametrises the region inside the kink for the direct measure
(``mahler._kink_chart``), whose ``mahler._chart`` takes the same values
without jets.

The regulator integral evaluates (-1)^(n-1)/(2 pi i)^(n-1) times the
integral over the boundary of rho applied to the Steinberg decomposition,
both sheets with opposite orientation. For even n rho is valued in i R and
for odd n in R; either way the result is the real integral of the sheet
difference divided by (2 pi)^(n-1), its sign pinned by agreement with the
direct Mahler measure. The integrand is even in every u_j (u_j -> -u_j
flips theta_j, and the kink and the sheet difference stay as they are), so
the rule evaluates it only at the nodes with every u_j >= 0
(``integrate_box(..., even=True)``), with the same total bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from ..forms import Jet, rho_of_element_at
from .engine import QuadratureConfig, QuadratureResult, integrate_box, make_result

# arccos arguments are clipped below 1, where the derivative of arccos blows up
_ACOS_MAX = 1.0 - 1e-15


# -- jet maps for the chart: parameter arrays in, coordinate jets out ----------------


def _dsin(x: Jet) -> Jet:
    v = x.val.real
    return Jet(np.sin(v), np.cos(v)[:, None] * x.grad)


def _dcos(x: Jet) -> Jet:
    v = x.val.real
    return Jet(np.cos(v), -np.sin(v)[:, None] * x.grad)


def _darccos(x: Jet) -> Jet:
    v = np.clip(x.val.real, -1.0, _ACOS_MAX)
    return Jet(np.arccos(v), -x.grad / np.sqrt(1.0 - v * v)[:, None])


def _dexp_i(x: Jet) -> Jet:
    v = x.val.real
    e = np.cos(v) + 1j * np.sin(v)
    return Jet(e, 1j * e[:, None] * x.grad)


def kink_chart(u: np.ndarray):
    """The region inside the kink of (1+x_1)...(1+x_k) + t, k = m + 1, at points u.

    For u of shape (N, m) returns (thetas, c, V) as jets in u: the outer
    angles theta_j = theta_j* sin(u_j), j = 1..m, where
    theta_j* = 2 arccos(1 / (2^(k+1-j) c_(j-1))) and c_(j-1) is the product
    of 2cos(theta_i/2) over i < j; the product c = c_m; and the fold angle
    V = 2 arccos(1/(2c)). theta_j depends on u_1..u_j only, so the chart's
    Jacobian is the product of the diagonal gradients d theta_j / d u_j.
    """
    m = u.shape[1]
    eye = np.eye(m)
    c = Jet(np.ones(len(u)), np.zeros(m))
    thetas = []
    for j in range(m):
        top = 2.0 * _darccos(1.0 / (2.0 ** (m + 1 - j) * c))
        theta = top * _dsin(Jet(u[:, j], eye[j]))
        thetas.append(theta)
        c = c * (2.0 * _dcos(theta * 0.5))
    return thetas, c, 2.0 * _darccos(0.5 / c)


def regulator_boundary_integral(
    xi, cfg: QuadratureConfig | None = None
) -> QuadratureResult:
    """(-1)^(n-1)/(2 pi i)^(n-1) times the boundary integral of rho(xi).

    The ambient dimension n is xi.degree + 2 (n = 3 or 4); the chart
    is ``kink_chart`` with k = n - 1, the flagship boundary surface (n = 4)
    or curve (n = 3). The rule is folded onto the nodes with u_j >= 0, so it
    must be tensor Gauss-Legendre at depth 0 (``ValueError`` otherwise), and
    ``evaluations`` counts those nodes: 500 for n = 4 at level 40.
    """
    cfg = cfg or QuadratureConfig()
    if xi.is_zero():
        return make_result(0.0, 0.0, 0, cfg)
    n = xi.degree + 2
    if n not in (3, 4):
        raise ValueError("boundary charts are available for n = 3 and n = 4 only")
    dims = n - 2

    def f(points):
        thetas, _, V = kink_chart(points)
        xs = [_dexp_i(theta) for theta in thetas]
        up = rho_of_element_at(xi, xs + [_dexp_i(V)])
        dn = rho_of_element_at(xi, xs + [_dexp_i(-V)])
        return (up - dn).imag if n % 2 == 0 else (up - dn).real

    raw, err, evals = integrate_box(f, -math.pi / 2, math.pi / 2, dims, cfg, even=True)
    scale = (2 * math.pi) ** (n - 1)
    return make_result(raw / scale, err / scale, evals, cfg)
