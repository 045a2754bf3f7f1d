import math
import os

import numpy as np
import pytest

from reglab import kernels
from reglab.forms import (
    Dual,
    Parametrization,
    coordinate,
    diarg,
    dlog_abs,
    eta_eval,
    eta_form,
    factored_callable,
    log_abs,
    rho_eval,
    rho_of_element_at,
    rnn_eval,
    wedge_value,
)
from reglab.k3 import data_dir
from reglab.symbolic import build_xi, load_decomposition


def _random_duals(rng, n, k):
    """Coordinates with well-conditioned random gradients."""
    out = []
    for _ in range(n):
        val = complex(rng.normal(), rng.normal()) + 0.3
        grad = rng.normal(size=k) + 1j * rng.normal(size=k)
        out.append(Dual(val, grad))
    return out


def _frame(rng, k):
    return [rng.normal(size=k) for _ in range(k)]


def test_dual_arithmetic():
    e = np.eye(1)
    x = Dual(2.0 + 1.0j, e[0])
    y = x * x
    assert abs(y.val - (2 + 1j) ** 2) < 1e-14
    assert abs(y.grad[0] - 2 * (2 + 1j)) < 1e-14
    z = 1 / x
    assert abs(z.grad[0] + 1 / (2 + 1j) ** 2) < 1e-14
    w = x**-2
    assert abs(w.val - (2 + 1j) ** -2) < 1e-14


def test_eta_two_variables_closed_form():
    # n = 2: eta(x, y) = i (log|x| d arg y - log|y| d arg x)
    rng = np.random.default_rng(0)
    for _ in range(20):
        xs = _random_duals(rng, 2, 1)
        t = _frame(rng, 1)
        got = eta_eval(xs, t)
        x, y = xs
        want = log_abs(x) * diarg(y, t[0]) - log_abs(y) * diarg(x, t[0])
        assert abs(got - want) < 1e-12 * max(1, abs(want))


def test_eta_antisymmetric_in_arguments():
    rng = np.random.default_rng(1)
    xs = _random_duals(rng, 3, 2)
    t = _frame(rng, 2)
    a = eta_eval(xs, t)
    b = eta_eval([xs[1], xs[0], xs[2]], t)
    assert abs(a + b) < 1e-12 * max(1, abs(a))


def test_eta_vanishes_on_repeated_argument():
    rng = np.random.default_rng(2)
    xs = _random_duals(rng, 2, 2)
    t = _frame(rng, 2)
    assert abs(eta_eval([xs[0], xs[0], xs[1]], t)) < 1e-12


def test_eta_equals_minus_rnn():
    rng = np.random.default_rng(3)
    for n in (2, 3, 4):
        for _ in range(30):
            xs = _random_duals(rng, n, n - 1)
            t = _frame(rng, n - 1)
            a = eta_eval(xs, t)
            b = rnn_eval(xs, t)
            scale = max(abs(a), abs(b), 1e-8)
            assert abs(a + b) < 1e-10 * scale, (n, a, b)


def test_rho_matches_explicit_display_n4():
    # rho({f}_2 (x) g1 ^ g2) = i D(f) (diarg g1 ^ diarg g2
    #   + 1/3 dlog|g1| ^ dlog|g2|)
    #   + 1/3 theta(1-f, f) ^ (log|g1| diarg g2 - log|g2| diarg g1)
    rng = np.random.default_rng(4)
    for _ in range(20):
        f = _random_duals(rng, 1, 3)[0]
        g1, g2 = _random_duals(rng, 2, 3)
        t = [rng.normal(size=3) for _ in range(2)]
        got = rho_eval(f, [g1, g2], t)

        one_minus_f = 1 - f

        def theta(a, b):
            return lambda v: log_abs(a) * dlog_abs(b, v) - log_abs(b) * dlog_abs(a, v)

        D = kernels.bloch_wigner(f.val)
        term1 = 1j * D * (
            wedge_value([lambda v: diarg(g1, v), lambda v: diarg(g2, v)], t)
            + wedge_value(
                [lambda v: dlog_abs(g1, v) / 3, lambda v: dlog_abs(g2, v)], t
            )
        )
        term2 = wedge_value(
            [
                theta(one_minus_f, f),
                lambda v: (log_abs(g1) * diarg(g2, v) - log_abs(g2) * diarg(g1, v))
                / 3,
            ],
            t,
        )
        want = term1 + term2
        assert abs(got - want) < 1e-11 * max(1, abs(want))


def _flagship_points(rng, count):
    """Random points on the zero locus of (1+x)(1+y)(1+z)+t with coordinate
    Duals carrying the tangent frame of (x, y, z)."""
    pts = []
    for _ in range(count):
        e = np.eye(3)
        vals = [complex(rng.normal(), rng.normal()) + 0.4 for _ in range(3)]
        xs = [Dual(vals[i], e[i]) for i in range(3)]
        prod = (1 + xs[0]) * (1 + xs[1]) * (1 + xs[2])
        tv = -prod  # t is determined by the surface equation
        pts.append(xs + [tv])
    return pts


def test_d_rho_xi_equals_eta_finite_difference():
    """Exterior derivative of rho(xi) reproduces eta on the zero locus."""
    doc = load_decomposition(os.path.join(data_dir(), "decomposition_n4.json"))
    xi, _, _ = build_xi(doc)
    rng = np.random.default_rng(7)

    def surface_coords(u):
        # chart: x, y, z free; t = -(1+x)(1+y)(1+z)
        e = np.eye(3)
        xs = [Dual(u[i], e[i]) for i in range(3)]
        t = -((1 + xs[0]) * (1 + xs[1]) * (1 + xs[2]))
        return xs, t

    failures = 0
    for _ in range(10):
        u0 = np.array(
            [complex(rng.normal(), rng.normal()) + 0.5 for _ in range(3)]
        )
        t3 = [rng.normal(size=3) for _ in range(3)]

        def eta_at(u):
            xs, t = surface_coords(u)
            return eta_eval(xs + [t], t3)

        def rho_pair(u, ta, tb):
            xs, _ = surface_coords(u)
            return rho_of_element_at(xi, xs, [ta, tb])

        def d_rho(u, h):
            total = 0.0
            for i in range(3):
                ta, tb = t3[(i + 1) % 3], t3[(i + 2) % 3]
                # central difference along t3[i]
                up = rho_pair(u + h * t3[i], ta, tb)
                dn = rho_pair(u - h * t3[i], ta, tb)
                total += (up - dn) / (2 * h)
            return total

        target = eta_at(u0)
        errs = []
        for h in (1e-2, 5e-3, 2.5e-3):
            errs.append(abs(d_rho(u0, h) - target))
        if errs[0] > 1e-12:
            order = math.log(errs[0] / errs[-1]) / math.log(4)
            if order < 1.5 and errs[-1] > 1e-9 * max(1, abs(target)):
                failures += 1
    assert failures == 0
