import gc
import itertools
import math
import os
import warnings

import mpmath
import numpy as np
import pytest

from reglab.k3 import data_dir
from reglab.lfunctions import F15, lprime_minus1, lvalue
from reglab.numerics import NumericalFailure
from reglab.quadrature import (
    QuadratureConfig,
    QuadratureResult,
    boundary,
    deninger_gamma_check,
    engine,
    integrate_box,
    mahler,
    mahler_measure,
    regulator_boundary_integral,
    univariate_mahler,
)
from reglab.forms import Jet, eta_eval
from reglab.quadrature.mahler import (
    _coeff_table,
    _eval_slices,
    _inner_mahler_batch,
    _measure,
    _roots,
)
from reglab.symbolic import build_xi, load_decomposition, parse_poly


def test_config_validation():
    with pytest.raises(ValueError):
        QuadratureConfig(rule="nope")
    with pytest.raises(ValueError):
        QuadratureConfig(level=1)
    with pytest.raises(ValueError, match="level must be at least 3"):
        # the half-level run would be the level itself, so the estimate a rounding floor
        QuadratureConfig(level=2)
    with pytest.raises(ValueError):
        QuadratureConfig(depth=-1)


def test_integrate_box_rules_on_smooth_function():
    # int_0^1 int_0^1 exp(x + y) = (e - 1)^2
    want = (math.e - 1) ** 2

    def f(pts):
        return np.exp(pts[:, 0] + pts[:, 1])

    for rule, tol in (("gauss_legendre_tensor", 1e-12), ("adaptive_gk", 1e-9)):
        cfg = QuadratureConfig(rule=rule, level=16)
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


@pytest.mark.parametrize(
    "cfg", [dict(rule="adaptive_gk", prec=6), dict(level=12, depth=1)], ids=["gk", "gl"]
)
def test_circle_hands_the_integrand_unit_circle_coordinates(cfg):
    # the same integrand written on angles and on coordinates: the rule takes the
    # same steps, and the coordinates are e^(i theta) of the plain call's nodes
    cfg = QuadratureConfig(**cfg)
    seen = {False: [], True: []}

    def g(x):
        return 1 / ((1.05 - x[:, 0].real) * (1.05 - x[:, 1].real))

    def on_angles(theta):
        seen[False].append(theta)
        return g(np.exp(1j * theta))

    def on_circle(x):
        seen[True].append(x)
        return g(x)

    plain = integrate_box(on_angles, -math.pi, math.pi, 2, cfg)
    circle = integrate_box(on_circle, -math.pi, math.pi, 2, cfg, circle=True)
    assert plain == circle
    assert [len(t) for t in seen[False]] == [len(x) for x in seen[True]]
    theta, x = np.concatenate(seen[False]), np.concatenate(seen[True])
    assert np.array_equal(x, np.exp(1j * theta))
    assert np.abs(np.abs(x) - 1).max() <= 2 * np.finfo(float).eps


@pytest.mark.parametrize("circle", [False, True], ids=["angles", "circle"])
@pytest.mark.parametrize(
    "depth, fold",
    [pytest.param(depth, fold, id=f"{depth}-{fold}") for fold in engine.FOLDS for depth in (0, 2)],
)
@pytest.mark.parametrize("level", [7, 8])
@pytest.mark.parametrize("dims", [1, 2, 3])
def test_gl_hands_the_integrand_the_coarse_then_the_fine_tensor_grid(dims, level, depth, fold, circle):
    # one call: the grid at half the level, then the grid at the level, each the tensor
    # product of gl_rule's 1-D nodes (mapped to e^(i theta) with circle) with the first
    # axis slowest, bit for bit, and each column contiguous in memory; a fold keeps the
    # nodes x[n//2:] on its first k axes, every axis for "even" and the first for
    # "central", so each grid has ceil(n/2)^k n^(dims-k) points
    seen = []

    def f(pts):
        seen.append(pts)
        return np.zeros(len(pts))

    box = (-math.pi, math.pi) if fold else (-1.0, 2.0)
    cfg = QuadratureConfig(level=level, depth=depth)
    _, _, evals = integrate_box(f, *box, dims, cfg, circle, fold)
    k = {None: 0, "even": dims, "central": 1}[fold]
    grids, counts = [], []
    for lev in (max(2, level // 2), level):
        x, _ = engine.gl_rule(*box, lev, depth)
        if circle:
            x = np.exp(1j * x)
        n = len(x)
        mesh = np.meshgrid(*[x[n // 2 :]] * k, *[x] * (dims - k), indexing="ij")
        grids.append(np.stack([axis.ravel() for axis in mesh], axis=1))
        counts.append(((n + 1) // 2) ** k * n ** (dims - k))
    want = np.concatenate(grids)
    (pts,) = seen
    assert pts.shape == want.shape and pts.dtype == want.dtype
    assert np.ascontiguousarray(pts).tobytes() == want.tobytes()
    assert all(pts[:, j].flags.c_contiguous for j in range(dims))
    assert evals == sum(counts)


def _jensen(poly, variables):
    """The inner Jensen integrand the torus rule of mahler_measure integrates for P."""
    slices, _ = _coeff_table(parse_poly(poly, list(variables)))
    return lambda xs: _inner_mahler_batch(_eval_slices(slices, xs))


@pytest.mark.parametrize(
    "poly, variables, ulps",
    [
        ("1+x+y+z", "xyz", 0),
        ("(x-1)+(y-1)*z", "xyz", 0),
        ("x + x^-1 + 1 + (y + y^-1)*z", "xyz", 0),  # Laurent, degree 1 in z
        ("x + x^-1 + y + y^-1 + 1", "xy", 4),
        ("(2+x)*z^2+y*z+1", "xyz", 4),
        ("1+x+x*z^2+y^2*z^3", "xyz", 4),
    ],
)
def test_jensen_batch_is_symmetric_at_mirrored_torus_nodes(poly, variables, ulps):
    # P has rational coefficients, so its coefficients in the last variable at -theta
    # are the conjugates of those at theta: the closed forms of degree <= 1 agree bit
    # for bit, the companion eigenvalues of higher degree within a few ulps
    f = _jensen(poly, variables)
    theta = np.random.default_rng(7).uniform(-math.pi, math.pi, (4000, len(variables) - 1))
    here, mirror = f(np.exp(1j * theta)), f(np.exp(1j * -theta))
    if ulps:
        assert np.all(np.abs(here - mirror) <= ulps * np.spacing(np.abs(here)))
    else:
        assert np.array_equal(here, mirror)


@pytest.mark.parametrize("level", [11, 12])
@pytest.mark.parametrize(
    "poly, variables, depth",
    [("1+x+y+z", "xyz", 0), ("1+x+y+z", "xyz", 2), ("1+x+y+z+t", "xyzt", 0)],
)
def test_gl_central_fold_total_is_the_full_grid_sum(poly, variables, depth, level):
    # the folded rule hands f the points with theta_1 >= 0 of each grid, coarse then
    # fine, with doubled weights off the plane theta_1 = 0; on the bitwise symmetric
    # Jensen batch of a degree-1 P its total equals the full grid's correctly rounded
    # sum bit for bit
    f = _jensen(poly, variables)
    dims = len(variables) - 1
    seen = []

    def g(xs):
        seen.append(xs)
        return f(xs)

    cfg = QuadratureConfig(level=level, depth=depth)
    value, _, evals = integrate_box(g, -math.pi, math.pi, dims, cfg, circle=True, fold="central")
    halves = []
    for lev in (level // 2, level):
        x, w = engine.gl_rule(-math.pi, math.pi, lev, depth)
        pts = np.array(list(itertools.product(np.exp(1j * x), repeat=dims)))
        wt = np.array([math.prod(c) for c in itertools.product(w, repeat=dims)])
        total = math.fsum((f(pts) * wt).tolist())
        halves.append(pts[len(x) // 2 * len(x) ** (dims - 1) :])  # theta_1 >= 0
    assert value == total
    (pts,) = seen
    assert np.array_equal(pts, np.concatenate(halves))
    assert evals == len(pts) and all(pts[:, j].flags.c_contiguous for j in range(dims))


@pytest.mark.parametrize("rule", engine.RULES)
@pytest.mark.parametrize("fold", ["even", "central"])
def test_fold_refuses_a_box_off_centre_and_an_unknown_fold(fold, rule):
    f = lambda p: np.cos(p[:, 0])
    cfg = QuadratureConfig(rule=rule, level=8)
    for box in ((0.0, 1.0), (-1.0, 2.0)):
        with pytest.raises(ValueError, match=fold):
            integrate_box(f, *box, 1, cfg, fold=fold)
    with pytest.raises(ValueError, match="unknown fold"):
        integrate_box(f, -1.0, 1.0, 1, cfg, fold=fold.upper())
    # the folded rule integrates cos over [-1, 1] to 2 sin 1 to rounding: Gauss-Legendre
    # from the upper halves of its 4- and 8-node rules, Gauss-Kronrod from one 21-node
    # rule on [0, 1]
    value, _, evals = integrate_box(f, -1.0, 1.0, 1, cfg, fold=fold)
    assert abs(value - 2 * math.sin(1)) < 1e-15
    assert evals == (2 + 4 if rule == "gauss_legendre_tensor" else 21)


def _even(p):
    """An integrand even in both coordinates bit for bit: cos(p0) cos(3 p1) + p0^2 p1^2."""
    return np.cos(p[:, 0]) * np.cos(3 * p[:, 1]) + p[:, 0] ** 2 * p[:, 1] ** 2


@pytest.mark.parametrize("level", [7, 8])
@pytest.mark.parametrize("depth", [1, 2, 3])
def test_gl_even_fold_of_a_paneled_rule_is_the_full_grid_total(depth, level):
    # the panels' nodes on [-pi, pi] are exact mirror images at depths 1 to 3, so the
    # rule folded onto their upper half gives the full grid's total bit for bit, at a
    # quarter of the evaluations
    cfg = QuadratureConfig(level=level, depth=depth)
    value, _, evals = integrate_box(_even, -math.pi, math.pi, 2, cfg)
    folded, _, folded_evals = integrate_box(_even, -math.pi, math.pi, 2, cfg, fold="even")
    assert folded == value and 4 * folded_evals == evals


@pytest.mark.parametrize("fold", engine.FOLDS)
def test_adaptive_estimate_bounds_the_error_where_kronrod_and_gauss_agree(fold):
    # K and G agree to the last bits on this smooth integrand's first regions (unfolded,
    # |K - G| is 0.0), so only the rounding floor log2(N) eps sum |f w| bounds the error
    cfg = QuadratureConfig(rule="adaptive_gk", prec=12)
    value, err, _ = integrate_box(_even, -math.pi, math.pi, 2, cfg, fold=fold)
    assert err >= abs(value - (2 * math.pi**3 / 3) ** 2)


@pytest.mark.parametrize("fold", ["even", "central"])
def test_adaptive_fold_agrees_with_the_unfolded_rule_within_its_estimate(fold):
    # a peak at the centre makes the adaptive rule split; folded, it splits on the part
    # of the box that stands for the mirror orbits only
    f = lambda p: 1 / (0.05 + p[:, 0] ** 2 + p[:, 1] ** 2)
    cfg = QuadratureConfig(rule="adaptive_gk", prec=8)
    value, err, evals = integrate_box(f, -1.0, 1.0, 2, cfg)
    folded, _, folded_evals = integrate_box(f, -1.0, 1.0, 2, cfg, fold=fold)
    assert abs(folded - value) <= err and folded_evals < evals


def _slices_by_monomial(slices, theta):
    """The coefficient slices at x_j = e^(i theta_j), one exp(i e theta_j) per factor."""
    C = np.zeros((len(theta), len(slices)), dtype=np.complex128)
    for k, terms in enumerate(slices):
        for exps, c in terms.items():
            mono = complex(c) * np.ones(len(theta))
            for j, e in enumerate(exps):
                if e:
                    mono = mono * np.exp(1j * e * theta[:, j])
            C[:, k] += mono
    return C


@pytest.mark.parametrize(
    "poly, variables, ulps",
    [("x + x^-1 + y + y^-1 + 1", "xy", 0), ("(1+x)^2*(1+y) + z*x^-2 + y^3", "xyz", 4)],
)
def test_eval_slices_on_coordinates_matches_monomial_exponentials(poly, variables, ulps):
    # exponents +-1 are x and conj(x), equal to exp(+-i theta); higher powers are
    # products, within a few units of the slice's scale sum |c|
    slices, _ = _coeff_table(parse_poly(poly, list(variables)))
    theta = np.random.default_rng(3).uniform(-math.pi, math.pi, (2000, len(variables) - 1))
    got = _eval_slices(slices, np.exp(1j * theta))
    want = _slices_by_monomial(slices, theta)
    scale = np.array([sum(abs(c) for c in terms.values()) for terms in slices], dtype=float)
    assert np.all(np.abs(got - want) <= ulps * np.finfo(float).eps * scale)
    assert all(got[:, k].flags.c_contiguous for k in range(len(slices)))


def test_eval_slices_frees_its_batch_without_the_cycle_collector():
    # the cached powers view the points: a reference cycle would hold every
    # batch in memory until the cyclic collector runs
    slices, _ = _coeff_table(parse_poly("(1+x)^2*(1+y) + z*x^-2 + y^3", list("xyz")))
    xs = np.exp(1j * np.random.default_rng(4).uniform(-math.pi, math.pi, (1000, 2)))
    gc.collect()
    gc.disable()
    try:
        _eval_slices(slices, xs)
        assert gc.collect() == 0
    finally:
        gc.enable()


def _within_ulps(got, want, ulps=2):
    return abs(got - want) <= ulps * math.ulp(want)


@pytest.mark.parametrize(
    "poly, variables, prec, evaluations, value, error",
    [
        ("1+x+y+z", "xyz", 8, 979_902, 0.42627839777934173, 3.129080732655075e-09),
        ("1+x+y", "xy", 12, 693, 0.3230659472194979, 3.8290129639302144e-13),
    ],
)
def test_adaptive_rule_pinned_on_smith_cases(poly, variables, prec, evaluations, value, error):
    # the adaptive rule's splits, value and error estimate on m(1+x+y+z) and m(1+x+y)
    cfg = QuadratureConfig(rule="adaptive_gk", prec=prec)
    res = mahler_measure(parse_poly(poly, list(variables)), cfg)
    assert res.evaluations == evaluations
    assert _within_ulps(float(res.value), value)
    assert _within_ulps(float(res.error_estimate), error)


def test_univariate_mahler_exact_cases():
    # cyclotomic: m = 0
    assert abs(float(univariate_mahler([1, 1], 30))) < 1e-28
    assert abs(float(univariate_mahler([1, 1, 1], 30))) < 1e-28
    # m(2x) = log 2
    assert abs(float(univariate_mahler([0, 2], 30)) - math.log(2)) < 1e-28
    # m(x^2 - 4) = log 4: both roots outside the disk, lead 1
    assert abs(float(univariate_mahler([-4, 0, 1], 30)) - math.log(4)) < 1e-28


@pytest.mark.parametrize("prec", [15, 30])
@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_repeated_unit_circle_roots(k, prec):
    # a k-fold root on |x| = 1: m((1+x)^k) = 0 within the reported error
    res = mahler_measure(parse_poly(f"(1+x)^{k}", ["x"]), QuadratureConfig(prec=prec))
    assert abs(float(res.value)) <= float(res.error_estimate)
    # 10^(1 - prec) exactly, not a binary float's digits
    assert mpmath.nstr(res.error_estimate.mpf(), prec) == f"1.0e{1 - prec}"


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


# m(1 + x + y) = (3 sqrt(3) / 4 pi) L(chi_-3, 2)
SMITH2 = float(
    3 * mpmath.sqrt(3) / (4 * mpmath.pi) * (
        mpmath.zeta(2, mpmath.mpf(1) / 3) - mpmath.zeta(2, mpmath.mpf(2) / 3)
    ) / 9
)
# m(1 + x + y + z) = 7 zeta(3) / (2 pi^2)
SMITH3 = float(7 * mpmath.zeta(3) / (2 * mpmath.pi**2))


def test_mahler_two_variables_smith():
    P = parse_poly("1+x+y", ["x", "y"])
    cfg = QuadratureConfig(rule="adaptive_gk", prec=12)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # converges without an IntegrationWarning
        res = mahler_measure(P, cfg)
    assert abs(float(res.value) - SMITH2) < 1e-9


def test_mahler_three_variables_smith():
    P = parse_poly("1+x+y+z", ["x", "y", "z"])
    cfg = QuadratureConfig(rule="adaptive_gk", prec=8)
    res = mahler_measure(P, cfg)
    assert abs(float(res.value) - SMITH3) < 1e-6


def test_mahler_laurent_rodriguez_villegas():
    # m(x + 1/x + y + 1/y + 1) = 15/(4 pi^2) L(E15, 2) (Rodriguez-Villegas,
    # "Modular Mahler measures I", 1999): a Laurent polynomial end to end
    P = parse_poly("x + x^-1 + y + y^-1 + 1", ["x", "y"])
    res = mahler_measure(P, QuadratureConfig(rule="adaptive_gk", prec=10))
    want = 15 / (4 * math.pi**2) * float(lvalue(F15, 2, 20))
    assert abs(float(res.value) - want) < 1e-9


@pytest.mark.parametrize(
    "poly, prec", [("1+x+y", p) for p in (6, 8, 10, 12)] + [("1+x+y+z", p) for p in (5, 6, 7, 8)]
)
def test_adaptive_error_estimate_bounds_true_error(poly, prec):
    variables, want = {"1+x+y": ("xy", SMITH2), "1+x+y+z": ("xyz", SMITH3)}[poly]
    P = parse_poly(poly, list(variables))
    res = mahler_measure(P, QuadratureConfig(rule="adaptive_gk", prec=prec))
    assert float(res.error_estimate) >= abs(float(res.value) - want)


# (poly, level) at which the tensor rule's half-level delta, a heuristic, misses
# the truth on the kinked Jensen integrands of the Smith cases
_GL_SMITH_MISSES = {
    ("1+x+y", L) for L in (15, 18, 36, 41, 45, 58)
} | {("1+x+y+z", L) for L in (11, 13, 43)}


@pytest.mark.parametrize(
    "poly, level",
    [
        pytest.param(
            poly,
            level,
            marks=[pytest.mark.xfail(strict=True, reason="the half-level delta misses")]
            if (poly, level) in _GL_SMITH_MISSES
            else [],
        )
        for poly in ("1+x+y", "1+x+y+z")
        for level in range(8, 65)
    ],
)
def test_gl_error_estimate_bounds_true_error_on_smith_cases(poly, level):
    # the adaptive rule's half of this gate is test_adaptive_error_estimate_bounds_true_error
    variables, want = {"1+x+y": ("xy", SMITH2), "1+x+y+z": ("xyz", SMITH3)}[poly]
    res = mahler_measure(parse_poly(poly, list(variables)), QuadratureConfig(level=level))
    assert float(res.error_estimate) >= abs(float(res.value) - want)


def test_adaptive_stops_on_a_nan_integrand():
    # the first region's sum is NaN: no split, and the value is left to the caller,
    # whose to_decimal refuses it
    cfg = QuadratureConfig(rule="adaptive_gk")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        val, _, evals = integrate_box(
            lambda p: np.where(p[:, 0] < 0.5, np.nan, 1.0), 0.0, 1.0, 1, cfg
        )
    assert not math.isfinite(val)
    assert evals == 21


def test_adaptive_reports_the_error_it_reached_at_the_split_cap():
    # sin(1e8 x) looks like noise at every width the split cap reaches: each region
    # keeps an error of its own length, so the total never falls below 1e-12
    cfg = QuadratureConfig(rule="adaptive_gk", prec=12)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, err, evals = integrate_box(lambda p: np.sin(1e8 * p[:, 0]), 0.0, 1.0, 1, cfg)
    assert err > 1e-12
    assert evals == 21 * (1 + 2 * 10000)  # the first region and the children of 10000 splits


def test_gk21_table_degrees_of_exactness():
    x, wk, wg = engine.gk21()
    assert np.all(np.diff(x) > 0) and x[10] == 0.0
    assert np.all(wg[0::2] == 0.0)
    # x^k on [-1, 1]: exact up to degree 31 (Kronrod) and 19 (Gauss), and not for the
    # next even degree (odd ones vanish by symmetry)
    for k in range(34):
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert (abs(np.sum(wk * x**k) - exact) < 1e-15) == (k <= 31 or k % 2 == 1), k
        assert (abs(np.sum(wg * x**k) - exact) < 1e-15) == (k <= 19 or k % 2 == 1), k


def test_adaptive_smooth_integrand_converges_on_the_first_region():
    # degree 8 in each variable: the Gauss-10 product rule is already exact
    cfg = QuadratureConfig(rule="adaptive_gk", prec=12)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        val, err, evals = integrate_box(lambda p: (p[:, 0] * p[:, 1]) ** 8, 0.0, 1.0, 2, cfg)
    assert evals == 21**2
    assert abs(val - 1 / 81) < 1e-15 and err < 1e-15


def _kinked(sizes):
    """|x - 1/3| + |y - 0.3|, recording the number of points of each call in ``sizes``."""

    def f(p):
        sizes.append(len(p))
        return np.abs(p[:, 0] - 1 / 3) + np.abs(p[:, 1] - 0.3)

    return f


def test_adaptive_is_deterministic():
    cfg = QuadratureConfig(rule="adaptive_gk", prec=6)
    a = integrate_box(_kinked([]), 0.0, 1.0, 2, cfg)
    b = integrate_box(_kinked([]), 0.0, 1.0, 2, cfg)
    assert a == b


def test_adaptive_batches_each_round():
    # every round's regions go to the integrand together, in chunks of at most
    # CHUNK points that hold whole regions
    sizes = []
    cfg = QuadratureConfig(rule="adaptive_gk", prec=6)
    _, _, evals = integrate_box(_kinked(sizes), 0.0, 1.0, 2, cfg)
    assert sum(sizes) == evals
    assert all(s % 441 == 0 and s <= engine.CHUNK for s in sizes)
    assert len(sizes) < evals // 441 / 4


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
    last = P.ring.gens[-1]
    lead = P.coeff_wrt(last, P.degree(last)).drop(last)
    m_lead = float(mahler_measure(lead, cfg).value)

    def f(points):
        out = np.zeros(len(points))
        for i, theta in enumerate(points[:, 0]):
            x = np.exp(1j * theta)
            row = _eval_slices(slices, np.array([[x]]))[0]
            drow = _eval_slices(
                [{e: c * 1j * e[0] for e, c in t.items() if e[0]} for t in slices],
                np.array([[x]]),
            )[0]
            for r in np.roots(np.trim_zeros(row, "b")[::-1]):
                if abs(r) < 1.0:
                    continue
                pows = r ** np.arange(degree + 1)
                dr = -np.sum(drow * pows) / np.sum(row[1:] * np.arange(1, degree + 1) * pows[:-1])
                eta = eta_eval([Jet(x, [1j * x]), Jet(r, [dr])])[0]
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


# m((1+x)(1+y)(1+z)+t) = -6 L'(f7,-1) - (48/7) zeta'(-2)
M_P = 0.604165831102476806712691
FLAGSHIP = "(1+x)*(1+y)*(1+z)+t"


@pytest.mark.parametrize(
    "cfg",
    [dict(level=L) for L in (8, 12, 16, 24, 32, 40, 48, 64)]
    + [dict(level=16, depth=3)]
    + [dict(rule="adaptive_gk", prec=p) for p in (8, 12)],
    ids=lambda cfg: ",".join(f"{k}={v}" for k, v in cfg.items()),
)
def test_kink_chart_error_estimate_bounds_true_error(cfg):
    res = mahler_measure(parse_poly(FLAGSHIP, list("xyzt")), QuadratureConfig(**cfg))
    assert float(res.error_estimate) >= abs(float(res.value) - M_P)


def test_kink_chart_n3_matches_boundary_integral():
    cfg = QuadratureConfig(level=48)
    direct = mahler_measure(parse_poly("(1+x)*(1+y)+z", list("xyz")), cfg)
    assert direct.evaluations == 48 + 24  # a 1-D rule: the chart
    boundary = regulator_boundary_integral(_xi(3), cfg)
    assert abs(float(direct.value) - float(boundary.value)) < 1e-13


def test_kink_chart_matches_generic_path_flagship():
    # the same polynomial with t first is not recognised and takes the torus integral
    cfg = QuadratureConfig(level=10, depth=3)
    chart = mahler_measure(parse_poly(FLAGSHIP, list("xyzt")), cfg)
    generic = mahler_measure(parse_poly(FLAGSHIP, list("txyz")), cfg)
    assert chart.evaluations == 80**2 + 40**2
    assert generic.evaluations == (80**3 + 40**3) // 2  # the central fold's half grids
    assert abs(float(chart.value) - float(generic.value)) <= float(generic.error_estimate)


def test_kink_chart_matches_generic_path_n3():
    cfg = QuadratureConfig(rule="adaptive_gk", prec=8)
    chart = mahler_measure(parse_poly("(1+x)*(1+y)+z", list("xyz")), cfg)
    generic = mahler_measure(parse_poly("(1+x)*(1+y)+z", list("zxy")), cfg)
    assert abs(float(chart.value) - float(generic.value)) < 1e-6


@pytest.mark.parametrize(
    "poly, variables, chart",
    [
        (FLAGSHIP, "xyzt", True),
        ("(1+x)*(1+y)+z", "xyz", True),
        ("(1+x)*(1+y)*(1+z)+2*t", "xyzt", False),
        ("(1+x)*(1+y)+z^2", "xyz", False),
        ("(1+x)*(1-y)+z", "xyz", False),
    ],
)
def test_kink_chart_recogniser(poly, variables, chart):
    # a 1-D rule fewer on the chart, and the torus rule centrally folded onto half
    # its grid: evaluations tell the two paths apart
    dims = len(variables) - 1 - chart
    res = mahler_measure(parse_poly(poly, list(variables)), QuadratureConfig(level=8))
    assert res.evaluations == (8**dims + 4**dims) // (1 if chart else 2)


@pytest.mark.parametrize("n", [3, 4])
def test_direct_chart_takes_the_boundary_chart_jets_values(n):
    # the jet-free chart of the direct rule gives c, V and the Jacobian, the product of
    # the diagonal gradients d theta_j / d u_j, of boundary.kink_chart bit for bit
    rng = np.random.default_rng(n)
    u = np.vstack([rng.uniform(-math.pi / 2, math.pi / 2, (2000, n - 2)),
                   np.full((3, n - 2), [[0.0], [math.pi / 2], [-math.pi / 2]])])
    thetas, c, V = boundary.kink_chart(u)
    jac = math.prod(theta.grad[:, j].real for j, theta in enumerate(thetas))
    got = mahler._chart(u)
    for a, b in zip(got, (jac, c.val.real, V.val.real)):
        assert np.array_equal(a, b)


def _xi(n):
    doc = load_decomposition(os.path.join(data_dir(), f"decomposition_n{n}.json"))
    xi, _, lam = build_xi(doc)
    return lam


def test_boundary_integral_n3_matches_mahler():
    lam = _xi(3)
    cfg = QuadratureConfig(level=48, prec=12)
    res = regulator_boundary_integral(lam, cfg)
    P = parse_poly("(1+x)*(1+y)+z", ["x", "y", "z"])
    direct = mahler_measure(P, QuadratureConfig(level=24))  # the kink chart
    assert abs(float(res.value) - float(direct.value)) < 1e-10


def test_n3_oracles_match_brunault():
    # m((1+x)(1+y)+z) = -2 L'(E15, -1) (Brunault 2016): a reference from outside
    # the kink chart that the direct value and the boundary integral share
    want = -2 * float(lprime_minus1(F15, 20))
    direct = mahler_measure(parse_poly("(1+x)*(1+y)+z", list("xyz")), QuadratureConfig(level=24))
    assert abs(float(direct.value) - want) < 1e-13
    boundary = regulator_boundary_integral(_xi(3), QuadratureConfig(level=40))
    assert abs(float(boundary.value) - want) < 1e-13


@pytest.mark.parametrize("n", [3, 4])
def test_lowest_level_estimate_bounds_the_error_of_both_oracles(n):
    # at level 3 the half-level run is level 2, a different rule, so the estimate is a
    # delta and not the rounding floor alone (level 2 would compare the rule with itself)
    cfg = QuadratureConfig(level=3)
    want = M_P if n == 4 else -2 * float(lprime_minus1(F15, 20))
    P = parse_poly(FLAGSHIP if n == 4 else "(1+x)*(1+y)+z", list("xyzt"[:n]))
    for res in (mahler_measure(P, cfg), regulator_boundary_integral(_xi(n), cfg)):
        assert abs(float(res.value) - want) <= float(res.error_estimate)


def test_boundary_integral_n4_flagship_quick():
    lam = _xi(4)
    cfg = QuadratureConfig(level=24, prec=12)
    res = regulator_boundary_integral(lam, cfg)
    assert abs(float(res.value) - 0.604165831102477) < 1e-6


def test_boundary_integral_n4_level40_pinned():
    # the value verify-main reports at --level 40
    res = regulator_boundary_integral(_xi(4), QuadratureConfig(level=40))
    assert res.evaluations == 500  # the folded rule: 20^2 + 10^2 nodes with u_j >= 0
    assert abs(float(res.value) - 0.6041658311024739) < 1e-13


def _boundary_integrand(n, monkeypatch):
    """The integrand regulator_boundary_integral hands the rule, for n = 3 or 4."""
    seen = []
    engine_box = boundary.integrate_box

    def capturing(f, *args, **kwargs):
        seen.append(f)
        return engine_box(f, *args, **kwargs)

    monkeypatch.setattr(boundary, "integrate_box", capturing)
    regulator_boundary_integral(_xi(n), QuadratureConfig(level=4))
    (f,) = seen
    return f


@pytest.mark.parametrize("n", [3, 4])
def test_boundary_integrand_is_even_in_every_coordinate(n, monkeypatch):
    # u_j -> -u_j flips theta_j and leaves the kink and the sheet difference as they are,
    # so the integrand takes bit-identical values at each pair of mirror nodes
    f = _boundary_integrand(n, monkeypatch)
    u = np.random.default_rng(n).uniform(-math.pi / 2, math.pi / 2, size=(2000, n - 2))
    values = f(u)
    for axis in range(n - 2):
        mirrored = u.copy()
        mirrored[:, axis] *= -1
        assert np.array_equal(f(mirrored), values), axis


@pytest.mark.parametrize("n", [3, 4])
def test_gl_total_is_the_half_box_sum_of_the_even_boundary_integrand(n, monkeypatch):
    # the tensor GL total is the correctly rounded sum of its terms, so on an integrand
    # even in every u_j the rule folded onto the nodes with u_j >= 0 gives, bit for bit,
    # the total and the error estimate of the full box, at 1/2^dims of the evaluations
    f = _boundary_integrand(n, monkeypatch)
    dims = n - 2
    box = (-math.pi / 2, math.pi / 2)
    for level in (40, 41):
        sums = []
        for lev in (level // 2, level):
            x, w = engine.gl_rule(*box, lev, 0)
            pts = np.array(list(itertools.product(x, repeat=dims)))
            wt = np.array([math.prod(c) for c in itertools.product(w, repeat=dims)])
            terms = f(pts) * wt
            sums.append(math.fsum(terms.tolist()))
        floor = math.log2(len(wt)) * np.finfo(float).eps * np.abs(terms).sum()
        full = (sums[1], max(abs(sums[1] - sums[0]), floor))
        value, err, evals = integrate_box(f, *box, dims, QuadratureConfig(level=level), fold="even")
        assert (value, err) == full, level
        # ceil(L/2) folded nodes per axis at level L, an odd level's node at 0 among them
        assert evals == ((level + 1) // 2) ** dims + ((level // 2 + 1) // 2) ** dims


def _counting_integrand(monkeypatch, module):
    """Record the rows of each call to the integrands that ``module`` hands the rule."""
    calls = []
    engine_box = module.integrate_box

    def counted(f, *args, **kwargs):
        def g(points):
            calls.append(len(points))
            return f(points)

        return engine_box(g, *args, **kwargs)

    monkeypatch.setattr(module, "integrate_box", counted)
    return calls


@pytest.mark.parametrize("n, rows", [(3, 30), (4, 500)])
def test_boundary_rule_calls_its_integrand_once_on_the_folded_nodes(n, rows, monkeypatch):
    calls = _counting_integrand(monkeypatch, boundary)
    res = regulator_boundary_integral(_xi(n), QuadratureConfig(level=40))
    assert calls == [rows] and res.evaluations == rows


def test_flagship_kink_rule_calls_its_integrand_once(monkeypatch):
    calls = _counting_integrand(monkeypatch, mahler)
    res = mahler_measure(parse_poly(FLAGSHIP, list("xyzt")), QuadratureConfig(level=40))
    assert calls == [40**2 + 20**2] and res.evaluations == 2000


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
    # z^12 - 20^12: an Aberth iteration started on the radius bound 20^12 is
    # still far out after 80 steps; companion eigenvalues have no such start
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
    with np.errstate(invalid="ignore"), pytest.raises(NumericalFailure) as info:
        _inner_mahler_batch(broken)
    assert info.value.residuals is not None

    broken = C.copy()
    broken[1, 0] = np.inf
    with np.errstate(invalid="ignore"), pytest.raises(NumericalFailure) as info:
        _inner_mahler_batch(broken)
    assert info.value.residuals is not None


def test_inner_mahler_mixed_batch_matches_per_row_roots():
    C = np.array(
        [
            [1, 2, 3, 0],  # leading coefficient exactly 0
            [2, 3, 0, 0],  # top two coefficients 0
            [0.5, 3, 0, 0],  # degree 1, root inside the disk
            [5, 0, 0, 0],  # degree 0
            [0, 1, -3, 1],  # zero constant term
            [1, 1, 1, 1e-14],
            [2, -1, 1, 1e-11],
            [-(20.0**3), 0, 0, 1],  # z^3 - 20^3
            [1 + 2j, -0.5j, 3, 1 - 1j],
        ],
        dtype=np.complex128,
    )
    got = _inner_mahler_batch(C)
    for i, c in enumerate(C):
        c = np.trim_zeros(c, "b")
        r = np.roots(c[::-1])
        want = np.log(np.abs(c[-1])) + np.sum(np.log(np.maximum(np.abs(r), 1.0)))
        assert abs(got[i] - want) < 1e-12, i
        if len(c) == 2:  # Jensen's closed form, m(c0 + c1 t) = log max(|c0|, |c1|)
            assert got[i] == np.log(max(abs(c[0]), abs(c[1]))), i
    assert abs(got[7] - 3 * math.log(20)) < 1e-12

    with pytest.raises(NumericalFailure, match="vanishes identically"):
        _inner_mahler_batch(np.vstack([C, np.zeros(4)]))


def test_inner_mahler_degree_one_rows_take_the_closed_form():
    # |c0| > |c1| and |c0| < |c1| at degree 1, in one batch with degree-0, -2 and -3 rows
    C = np.array(
        [
            [3, 0.5, 0, 0],
            [-4j, 1 + 1j, 0, 0],
            [0.25, -2 + 1j, 0, 0],
            [2.5, -2.5, 0, 0],  # root on the circle
            [7, 0, 0, 0],
            [1, -3, 1, 0],
            [2 - 1j, 0.5, 3j, 1],
            [1e-3, 5, 0, 0],
        ],
        dtype=np.complex128,
    )
    got = _inner_mahler_batch(C)
    for i, c in enumerate(C):
        c = np.trim_zeros(c, "b")
        r = np.roots(c[::-1])
        want = np.log(np.abs(c[-1])) + np.sum(np.log(np.maximum(np.abs(r), 1.0)))
        assert abs(got[i] - want) < 1e-12, i
        if len(c) == 2:
            assert got[i] == np.log(max(abs(c[0]), abs(c[1]))), i
    # the same rows alone, without the higher degrees, give the same values
    ones = [0, 1, 2, 3, 7]
    assert (_inner_mahler_batch(C[ones, :2]) == got[ones]).all()


def test_inner_mahler_degree_one_needs_no_finite_root():
    # the root -1e600 overflows a double; the closed form does not form it
    got = _inner_mahler_batch(np.array([[1e300, 1e-300], [1, 2]], dtype=np.complex128))
    assert got[0] == np.log(1e300)
    assert got[1] == np.log(2)
    # the root step, which deninger_gamma_check takes, still flags it
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericalFailure) as info:
        _roots(np.array([[1e300, 1e-300]], dtype=np.complex128))
    assert math.isnan(info.value.residuals[0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, np.inf)])
@pytest.mark.parametrize("width", [2, 3])
def test_inner_mahler_non_finite_rows_raise(bad, width):
    C = np.ones((4, width), dtype=np.complex128)
    C[2, 0] = bad
    with np.errstate(invalid="ignore"), pytest.raises(NumericalFailure) as info:
        _inner_mahler_batch(C)
    residuals = info.value.residuals
    assert len(residuals) == 4 and math.isnan(residuals[2])
    assert [w for i, w in enumerate(residuals) if i != 2] == [0.0] * 3
    # a row that vanishes identically is a numerical failure too, NaN rows or not
    with pytest.raises(NumericalFailure, match="vanishes identically"):
        _inner_mahler_batch(np.vstack([C, np.zeros(width)]))


def test_batched_roots_flag_failed_eigenvalues_and_inaccurate_roots(monkeypatch):
    # roots {1, 2}, {i, -i} and {-2, -3}; each row has degree 2
    C = np.array([[2, -3, 1], [1, 0, 1], [6, 5, 1]], dtype=np.complex128)
    want = _inner_mahler_batch(C)
    eigvals = np.linalg.eigvals

    def fail(a):
        raise np.linalg.LinAlgError("QR iteration did not converge")

    monkeypatch.setattr(np.linalg, "eigvals", fail)
    with pytest.raises(NumericalFailure) as info:
        _inner_mahler_batch(C)
    assert all(math.isnan(w) for w in info.value.residuals)

    # roots off by 1e-6 fail the 2^-26 backward-error test; off by 1e-12 they pass
    monkeypatch.setattr(np.linalg, "eigvals", lambda a: eigvals(a) * (1 + 1e-6))
    with pytest.raises(NumericalFailure) as info:
        _inner_mahler_batch(C)
    assert min(info.value.residuals) > 2.0**-26
    monkeypatch.setattr(np.linalg, "eigvals", lambda a: eigvals(a) * (1 + 1e-12))
    assert np.allclose(_inner_mahler_batch(C), want, rtol=0, atol=1e-11)


@pytest.mark.parametrize("poly", ["(x-1)*(y+2)", "x-1"])
def test_polynomial_vanishing_at_a_node_raises(poly):
    # the odd rule has a node at theta = 0, where x - 1 vanishes; the measure
    # without the content split, which deninger_gamma_check takes for the
    # leading coefficient, still stops there
    P = parse_poly(poly, ["x", "y"])
    with pytest.raises(NumericalFailure, match="vanishes identically"):
        _measure(P, QuadratureConfig(level=33))
    assert math.isfinite(float(_measure(P, QuadratureConfig(level=32)).value))


def test_polynomial_without_content_vanishing_at_a_node_raises(monkeypatch):
    # the odd rule keeps its centre node x = y = 1 in the central fold, where both
    # coefficients in z vanish; P has no content in z to split off
    P = parse_poly("(x-1)+(y-1)*z", ["x", "y", "z"])
    with pytest.raises(NumericalFailure, match="vanishes identically"):
        mahler_measure(P, QuadratureConfig(level=33))
    assert math.isfinite(float(mahler_measure(P, QuadratureConfig(level=32)).value))
    # the adaptive rule's half box [0, pi] x [-pi, pi] puts every theta_j = 0 on a
    # region's edge, so no node has x_j = 1 (sin theta_j is 0 only at theta_j = 0, +-pi)
    seen = []
    engine_box = mahler.integrate_box

    def recording(f, *args, **kwargs):
        def g(xs):
            seen.append(xs.imag != 0)
            return f(xs)

        return engine_box(g, *args, **kwargs)

    monkeypatch.setattr(mahler, "integrate_box", recording)
    res = mahler_measure(P, QuadratureConfig(rule="adaptive_gk", prec=8))
    assert all(nonzero.all() for nonzero in seen)
    assert float(res.error_estimate) >= abs(float(res.value) - SMITH3)


@pytest.mark.parametrize(
    "poly, want",
    [("(x-1)*(y+2)", math.log(2)), ("x-1", 0.0), ("(x-1)^2*(1+x+y)", None)],
    ids=["(x-1)*(y+2)", "x-1", "(x-1)^2*(1+x+y)"],
)
@pytest.mark.parametrize(
    "cfg", [dict(level=33), dict(rule="adaptive_gk")], ids=["level=33", "adaptive_gk"]
)
def test_content_in_other_variables_is_split_off(poly, want, cfg):
    # the content x - 1 vanishes at a node of each rule; m(P) = m(content) + m(P/content)
    cfg = QuadratureConfig(**cfg)
    if want is None:
        want = float(mahler_measure(parse_poly("1+x+y", ["x", "y"]), cfg).value)
    res = mahler_measure(parse_poly(poly, ["x", "y"]), cfg)
    assert abs(float(res.value) - want) < 1e-12
