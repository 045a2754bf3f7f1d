"""The boundary surface of the Deninger chain and the regulator integral.

For P = (1+x)(1+y)(1+z) + t the boundary of the chain Gamma lives on
|x| = |y| = |z| = |t| = 1. Writing x = e^{ia}, y = e^{ib}, z = e^{iv} and
using |1 + e^{i s}| = 2 cos(s/2) on (-pi, pi), the surface is

    8 cos(a/2) cos(b/2) cos(v/2) = 1,

a two-sheeted graph v = +/- v(a, b) over the admissible region
cos(a/2) cos(b/2) >= 1/8. The n = 3 analogue (1+x)(1+y) + z gives the curve
4 cos(a/2) cos(v/2) = 1. The fold at cos(v/2) = 1 produces square-root
derivative blowups, cured by the substitutions a = a* sin(phi),
b = b*(a) sin(psi) whose Jacobians vanish at the edge.

The regulator integral evaluates (-1)^(n-1)/(2 pi i)^(n-1) times the
integral over the boundary of rho applied to the Steinberg decomposition,
both sheets with opposite orientation. The sheet orientation constant is
pinned once by requiring agreement (not up to sign) with the direct Mahler
measure of the flagship polynomial; it is never tuned per input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

import numpy as np

from ..forms import Jet, rho_of_element_at
from .engine import QuadratureConfig, QuadratureResult, integrate_box, make_result

# Orientation constant pinned by the flagship cross-check (see module docstring).
_ORIENT = 1.0


def boundary_chart_solve(t: float, s: float) -> List[float]:
    """All v in (-pi, pi) with 8 cos(t/2) cos(s/2) cos(v/2) = 1."""
    if not (-math.pi < t < math.pi and -math.pi < s < math.pi):
        raise ValueError("chart parameters must lie in (-pi, pi)")
    c = 8.0 * math.cos(t / 2) * math.cos(s / 2)
    if c < 1.0:
        return []
    v = 2.0 * math.acos(1.0 / c)
    if v == 0.0:
        return [0.0]
    return [v, -v]


@dataclass
class BoundaryChart:
    """Graph chart of one sheet of the boundary surface."""

    branch: int = +1  # sign of v
    orientation: float = _ORIENT

    a_star: float = 2.0 * math.acos(1.0 / 8.0)

    def admissible(self, a: float, b: float) -> bool:
        return 8.0 * math.cos(a / 2) * math.cos(b / 2) >= 1.0

    def v(self, a: float, b: float) -> float:
        sols = boundary_chart_solve(a, b)
        if not sols:
            raise ValueError("point outside the admissible region")
        return self.branch * abs(sols[0])

    def b_star(self, a: float) -> float:
        ca = math.cos(a / 2)
        if 8.0 * ca < 1.0:
            return 0.0
        return 2.0 * math.acos(1.0 / (8.0 * ca))


# -- jet maps for the charts: parameter arrays in, coordinate jets out ----------------


def _dsin(x: Jet) -> Jet:
    v = x.val.real
    return Jet(np.sin(v), np.cos(v)[:, None] * x.grad)


def _dcos(x: Jet) -> Jet:
    v = x.val.real
    return Jet(np.cos(v), -np.sin(v)[:, None] * x.grad)


def _darccos(x: Jet) -> Jet:
    v = np.clip(x.val.real, -1.0, 1.0 - 1e-15)
    return Jet(np.arccos(v), -x.grad / np.sqrt(1.0 - v * v)[:, None])


def _dexp_i(x: Jet) -> Jet:
    v = x.val.real
    e = np.cos(v) + 1j * np.sin(v)
    return Jet(e, 1j * e[:, None] * x.grad)


def _chart_point_n4(phi: np.ndarray, psi: np.ndarray, branch: int):
    """Coordinate jets (x, y, z) on one sheet at parameter arrays (phi, psi)."""
    a_star = 2.0 * math.acos(1.0 / 8.0)
    phi_d = Jet(phi, [1.0, 0.0])
    psi_d = Jet(psi, [0.0, 1.0])
    a = a_star * _dsin(phi_d)
    ca = _dcos(a * 0.5)
    b_star = 2.0 * _darccos(1.0 / (8.0 * ca))
    b = b_star * _dsin(psi_d)
    cb = _dcos(b * 0.5)
    v = 2.0 * _darccos(1.0 / ((8.0 * ca) * cb)) * branch
    return [_dexp_i(a), _dexp_i(b), _dexp_i(v)]


def _chart_point_n3(phi: np.ndarray, branch: int):
    """Coordinate jets (x, z) on one branch at the parameter array phi."""
    a_star = 2.0 * math.acos(1.0 / 4.0)
    phi_d = Jet(phi, [1.0])
    a = a_star * _dsin(phi_d)
    ca = _dcos(a * 0.5)
    v = 2.0 * _darccos(1.0 / (4.0 * ca)) * branch
    return [_dexp_i(a), _dexp_i(v)]


def regulator_boundary_integral(
    xi, cfg: QuadratureConfig | None = None
) -> QuadratureResult:
    """(-1)^(n-1)/(2 pi i)^(n-1) times the boundary integral of rho(xi).

    The ambient dimension n is xi.wedge_degree + 2 (n = 3 or 4); the chart
    is the flagship boundary surface (n = 4) or curve (n = 3).
    """
    cfg = cfg or QuadratureConfig()
    if xi.is_zero():
        return make_result(0.0, 0.0, 0, cfg)
    n = xi.wedge_degree + 2
    if n == 4:
        tangents = [np.eye(2)[0], np.eye(2)[1]]

        def f(points):
            phi, psi = points[:, 0], points[:, 1]
            up = rho_of_element_at(xi, _chart_point_n4(phi, psi, +1), tangents)
            dn = rho_of_element_at(xi, _chart_point_n4(phi, psi, -1), tangents)
            # rho is valued in i R; opposite sheet orientations
            return (up - dn).imag

        raw, err, evals = integrate_box(f, -math.pi / 2, math.pi / 2, 2, cfg)
        # (-1)^3/(2 pi i)^3 = -i/(8 pi^3) applied to an iR-valued integral
        value = _ORIENT * raw / (8.0 * math.pi**3)
        return make_result(value, err / (8.0 * math.pi**3), evals, cfg)
    if n == 3:
        tangents = [np.ones(1)]

        def f(points):
            phi = points[:, 0]
            up = rho_of_element_at(xi, _chart_point_n3(phi, +1), tangents)
            dn = rho_of_element_at(xi, _chart_point_n3(phi, -1), tangents)
            # for n = 3 the rho values are real (R(2)-valued)
            return (up - dn).real

        raw, err, evals = integrate_box(f, -math.pi / 2, math.pi / 2, 1, cfg)
        # |(-1)^2/(2 pi i)^2| = 1/(4 pi^2); the induced boundary orientation
        # for the curve case comes out opposite to the surface case, so the
        # same _ORIENT flag applies with a positive constant here (pinned by
        # the n = 3 cross-check against mahler_measure)
        value = _ORIENT * raw / (4.0 * math.pi**2)
        return make_result(value, err / (4.0 * math.pi**2), evals, cfg)
    raise ValueError("boundary charts are available for n = 3 and n = 4 only")
