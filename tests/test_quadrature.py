import math
import os

import mpmath
import numpy as np
import pytest

from reglab.k3 import data_dir
from reglab.quadrature import (
    BoundaryChart,
    QuadratureConfig,
    QuadratureResult,
    RootFindingError,
    boundary_chart_solve,
    deninger_gamma_check,
    integrate_box,
    mahler_measure,
    regulator_boundary_integral,
    univariate_mahler,
)
from reglab.forms import Jet, eta_eval
from reglab.quadrature.mahler import _coeff_table, _eval_slices, _inner_mahler_batch
from reglab.symbolic import MultiPoly, build_xi, load_decomposition, parse_poly


def test_config_validation():
    with pytest.raises(ValueError):
        QuadratureConfig(rule="nope")
    with pytest.raises(ValueError):
        QuadratureConfig(level=1)
    with pytest.raises(ValueError):
        QuadratureConfig(depth=-1)


def test_integrate_box_rules_on_smooth_function():
    # int_0^1 int_0^1 exp(x + y) = (e - 1)^2
    want = (math.e - 1) ** 2

    def f(pts):
        return np.exp(pts[:, 0] + pts[:, 1])

    for rule, tol in (
        ("gauss_legendre_tensor", 1e-12),
        ("adaptive_gk", 1e-9),
        ("qmc_sobol", 1e-3),
    ):
        cfg = QuadratureConfig(rule=rule, level=16 if rule != "qmc_sobol" else 14)
        val, err, evals = integrate_box(f, 0.0, 1.0, 2, cfg)
        assert abs(val - want) < tol, rule
        assert evals > 0


def test_gl_determinism():
    def f(pts):
        return np.cos(pts[:, 0]) * pts[:, 1] ** 2

    cfg = QuadratureConfig(level=24, depth=1)
    a = integrate_box(f, -1.0, 2.0, 2, cfg)
    b = integrate_box(f, -1.0, 2.0, 2, cfg)
    assert a == b


def test_univariate_mahler_exact_cases():
    # cyclotomic: m = 0
    assert abs(float(univariate_mahler([1, 1], 30))) < 1e-28
    assert abs(float(univariate_mahler([1, 1, 1], 30))) < 1e-28
    # m(2x) = log 2
    assert abs(float(univariate_mahler([0, 2], 30)) - math.log(2)) < 1e-28
    # m(x^2 - 4) = log 4: both roots outside the disk, lead 1
    assert abs(float(univariate_mahler([-4, 0, 1], 30)) - math.log(4)) < 1e-28


def test_univariate_mahler_lehmer():
    # Lehmer's polynomial: the classical smallest known measure > 1
    p = [1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1]
    m = float(univariate_mahler(p, 30))
    assert abs(math.exp(m) - 1.17628081825991750654) < 1e-15


def test_univariate_mahler_laurent_shift_invariance():
    # m(x^k p) = m(p)
    a = float(univariate_mahler([3, 1, -2], 25))
    b = float(univariate_mahler([0, 0, 3, 1, -2], 25))
    assert abs(a - b) < 1e-22


def test_mahler_two_variables_smith():
    # m(1 + x + y) = (3 sqrt(3) / 4 pi) L(chi_-3, 2)
    want = float(
        3 * mpmath.sqrt(3) / (4 * mpmath.pi) * (
            mpmath.zeta(2, mpmath.mpf(1) / 3) - mpmath.zeta(2, mpmath.mpf(2) / 3)
        ) / 9
    )
    P = parse_poly("1+x+y", ["x", "y"])
    cfg = QuadratureConfig(rule="adaptive_gk", prec=12)
    res = mahler_measure(P, cfg)
    assert abs(float(res.value) - want) < 1e-9


def test_mahler_three_variables_smith():
    # m(1 + x + y + z) = 7 zeta(3) / (2 pi^2)
    want = float(7 * mpmath.zeta(3) / (2 * mpmath.pi**2))
    P = parse_poly("1+x+y+z", ["x", "y", "z"])
    cfg = QuadratureConfig(rule="adaptive_gk", prec=8)
    res = mahler_measure(P, cfg)
    assert abs(float(res.value) - want) < 1e-6


def test_mahler_constant_and_monomial():
    P = parse_poly("5", ["x"])
    assert abs(float(mahler_measure(P).value) - math.log(5)) < 1e-12
    P = parse_poly("x*y", ["x", "y"])
    assert abs(float(mahler_measure(P).value)) < 1e-12


def test_deninger_check_two_variables():
    P = parse_poly("1+x+y", ["x", "y"])
    cfg = QuadratureConfig(rule="adaptive_gk", prec=10)
    direct = mahler_measure(P, cfg)
    chain = deninger_gamma_check(P, cfg)
    assert abs(float(direct.value) - float(chain.value)) < 1e-7


@pytest.mark.parametrize("poly", ["(2+x)*z^2+y*z+1", "1+x+y+z"])
def test_deninger_check_matches_mahler_on_same_grid(poly):
    # on one Gauss-Legendre grid the Gamma-chain integrand (one or two roots
    # per node outside the unit disk) reproduces the direct measure
    P = parse_poly(poly, ["x", "y", "z"])
    cfg = QuadratureConfig(level=12)
    chain = deninger_gamma_check(P, cfg)
    direct = mahler_measure(P, cfg)
    assert abs(float(chain.value) - float(direct.value)) < 1e-13


def _deninger_reference(P, cfg):
    """deninger_gamma_check for two variables, one node and one root at a time."""
    slices, degree = _coeff_table(P)
    lead = MultiPoly(P.vars[:-1], slices[-1])
    m_lead = float(mahler_measure(lead, cfg).value)

    def f(points):
        out = np.zeros(len(points))
        for i, theta in enumerate(points[:, 0]):
            row = _eval_slices(slices, np.array([[theta]]))[0]
            drow = _eval_slices(
                [{e: c * 1j * e[0] for e, c in t.items() if e[0]} for t in slices],
                np.array([[theta]]),
            )[0]
            x = np.exp(1j * theta)
            for r in np.roots(np.trim_zeros(row, "b")[::-1]):
                if abs(r) < 1.0:
                    continue
                pows = r ** np.arange(degree + 1)
                dr = -np.sum(drow * pows) / np.sum(row[1:] * np.arange(1, degree + 1) * pows[:-1])
                eta = eta_eval([Jet(x, [1j * x]), Jet(r, [dr])], [[1.0]])[0]
                out[i] += eta.imag
        return out

    value, _, _ = integrate_box(f, -math.pi, math.pi, 1, cfg)
    return m_lead - value / (2 * math.pi)


@pytest.mark.parametrize(
    "poly, level",
    [
        ("2*y^2+(1+x)*y+1", 32),
        # the leading coefficient x - 1 vanishes at the middle node of the odd rule
        ("(x-1)*y^2+(x+3)*y+1", 33),
    ],
)
def test_deninger_check_matches_pointwise_reference(poly, level):
    P = parse_poly(poly, ["x", "y"])
    cfg = QuadratureConfig(level=level)
    got = float(deninger_gamma_check(P, cfg).value)
    assert abs(got - _deninger_reference(P, cfg)) < 1e-13


def test_boundary_chart_solve():
    assert boundary_chart_solve(0.0, 0.0) == [2 * math.acos(1 / 8.0), -2 * math.acos(1 / 8.0)]
    # outside the admissible region
    assert boundary_chart_solve(3.0, 3.0) == []
    with pytest.raises(ValueError):
        boundary_chart_solve(4.0, 0.0)


def test_boundary_chart_edges():
    chart = BoundaryChart()
    a_star = chart.a_star
    assert chart.admissible(0.0, 0.0)
    assert not chart.admissible(3.1, 3.1)
    assert abs(chart.b_star(0.0) - a_star) < 1e-14
    # on the fold the two sheets merge
    assert abs(chart.v(a_star * 0.9999999, 0.0)) < 1e-2


def _xi(n):
    doc = load_decomposition(os.path.join(data_dir(), f"decomposition_n{n}.json"))
    xi, _, lam = build_xi(doc)
    return lam


def test_boundary_integral_n3_matches_mahler():
    # cheap cross-check; the tight 1e-6 comparison runs in the acceptance suite
    lam = _xi(3)
    cfg = QuadratureConfig(level=48, prec=12)
    res = regulator_boundary_integral(lam, cfg)
    P = parse_poly("(1+x)*(1+y)+z", ["x", "y", "z"])
    direct = mahler_measure(P, QuadratureConfig(rule="qmc_sobol", level=17))
    assert abs(float(res.value) - float(direct.value)) < 2e-3


def test_boundary_integral_n4_flagship_quick():
    lam = _xi(4)
    cfg = QuadratureConfig(level=24, prec=12)
    res = regulator_boundary_integral(lam, cfg)
    assert abs(float(res.value) - 0.604165831102477) < 1e-6


def test_boundary_integral_n4_level40_pinned():
    # the value verify-main reports at --level 40
    res = regulator_boundary_integral(_xi(4), QuadratureConfig(level=40))
    assert res.evaluations == 2000
    assert abs(float(res.value) - 0.6041658311024739) < 1e-13


def test_boundary_integral_zero_element():
    lam = _xi(4)
    zero = lam - lam
    res = regulator_boundary_integral(zero)
    assert float(res.value) == 0.0


def test_root_finding_error_is_raised_for_horrible_conditioning():
    # wild coefficient range breaks the double-precision certificate path
    # but the mp path must either converge or raise, never return garbage
    coeffs = [1, 1e200, 1]
    val = float(univariate_mahler(coeffs, 15))
    assert abs(val - math.log(1e200)) < 1e-6


def test_batched_roots_flag_and_resolve_unconverged_rows():
    rng = np.random.default_rng(21)
    good = rng.normal(size=(6, 13)) + 1j * rng.normal(size=(6, 13))
    # z^12 - 20^12: Aberth started on the radius bound 20^12 is still far out
    # after its 80 iterations
    slow = np.zeros(13, dtype=complex)
    slow[0], slow[-1] = -(20.0**12), 1.0
    C = np.vstack([good[:3], slow, good[3:]])
    got = _inner_mahler_batch(C)
    assert abs(got[3] - 12 * math.log(20)) < 1e-12
    for i, c in enumerate(C):
        r = np.roots(c[::-1])
        want = math.log(abs(c[-1])) + np.sum(np.log(np.maximum(np.abs(r), 1.0)))
        assert abs(got[i] - want) < 1e-12

    broken = C.copy()
    broken[5, 4] = np.nan
    with np.errstate(invalid="ignore"), pytest.raises(RootFindingError) as info:
        _inner_mahler_batch(broken)
    assert info.value.residuals is not None
