import math
import os

import numpy as np
import pytest

from reglab import kernels
from reglab.forms import (
    Jet,
    diarg,
    dlog_abs,
    eta_eval,
    log_abs,
    rho_eval,
    rho_of_element_at,
    rnn_eval,
    wedge_value,
)
from reglab.k3 import data_dir
from reglab.symbolic import build_xi, load_decomposition


def _random_jets(rng, n, k, size=None):
    """Coordinates with well-conditioned random gradients; one point, or a
    batch of ``size`` points."""
    out = []
    shape = () if size is None else (size,)
    for _ in range(n):
        val = rng.normal(size=shape) + 1j * rng.normal(size=shape) + 0.3
        grad = rng.normal(size=shape + (k,)) + 1j * rng.normal(size=shape + (k,))
        out.append(Jet(val, grad))
    return out


def _point(jet, i):
    """Point i of a batch as a batch of one."""
    return Jet(jet.val[i], jet.grad[i])


def _frame(rng, k):
    return [rng.normal(size=k) for _ in range(k)]


def _on_frame(jets, frame):
    """The jets with parameter j moved along frame[j]: gradient column j is the
    directional derivative along frame[j]."""
    t = np.transpose(frame)
    return [Jet(g.val, g.grad @ t) for g in jets]


def test_dual_arithmetic():
    e = np.eye(1)
    x = Jet(2.0 + 1.0j, e[0])
    assert x.val.shape == (1,) and x.grad.shape == (1, 1)
    y = x * x
    assert abs(y.val[0] - (2 + 1j) ** 2) < 1e-14
    assert abs(y.grad[0, 0] - 2 * (2 + 1j)) < 1e-14
    z = 1 / x
    assert abs(z.grad[0, 0] + 1 / (2 + 1j) ** 2) < 1e-14
    w = x**-2
    assert abs(w.val[0] - (2 + 1j) ** -2) < 1e-14
    # a batch with a shared gradient, mixed with numbers and per-point arrays
    v = np.array([1.0, 2.0, 3.0])
    c = np.array([1.0, 1.0, 2.0])
    b = Jet(v, [1.0, 0.0])
    assert b.grad.shape == (3, 2)
    u = (c * b - 1) / (b + 1.5) ** 2
    assert np.allclose(u.val, (c * v - 1) / (v + 1.5) ** 2, rtol=1e-14)
    du = c / (v + 1.5) ** 2 - 2 * (c * v - 1) / (v + 1.5) ** 3
    assert np.allclose(u.grad[:, 0], du, rtol=1e-14)
    assert np.all(u.grad[:, 1] == 0)


def _closed_form_wedge(rows):
    """The determinants of order 0 to 3 written out."""
    if len(rows) == 0:
        return 1.0 + 0j
    if len(rows) == 1:
        return rows[0][:, 0]
    if len(rows) == 2:
        a, b = rows
        return a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]
    a, b, c = rows
    return (
        a[:, 0] * (b[:, 1] * c[:, 2] - b[:, 2] * c[:, 1])
        - a[:, 1] * (b[:, 0] * c[:, 2] - b[:, 2] * c[:, 0])
        + a[:, 2] * (b[:, 0] * c[:, 1] - b[:, 1] * c[:, 0])
    )


def _random_rows(rng, m, N):
    """m rows of 1-form values at N points, real and complex mixed as the forms mix them."""
    rows = []
    for i in range(m):
        r = rng.normal(size=(N, m))
        rows.append(r if i % 2 else r + 1j * rng.normal(size=(N, m)))
    return rows


@pytest.mark.parametrize("m", [0, 1, 2, 3])
def test_wedge_value_is_bit_identical_to_the_closed_forms(m):
    rng = np.random.default_rng(20 + m)
    for _ in range(20):
        rows = _random_rows(rng, m, 64)
        got, want = np.asarray(wedge_value(rows)), np.asarray(_closed_form_wedge(rows))
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("m", [4, 5])
def test_wedge_value_above_degree_3_is_the_determinant(m):
    rng = np.random.default_rng(30 + m)
    rows = _random_rows(rng, m, 256)
    want = np.linalg.det(np.stack(rows, axis=1))  # [point, row, column]
    got = wedge_value(rows)
    assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))


def test_wedge_value_needs_as_many_columns_as_rows():
    rng = np.random.default_rng(40)
    with pytest.raises(ValueError, match="wedge degree"):
        wedge_value([rng.normal(size=(4, 3)) for _ in range(2)])
    with pytest.raises(ValueError, match="wedge degree"):
        wedge_value([rng.normal(size=(4, 2)), rng.normal(size=(4, 3))])


def test_eta_two_variables_closed_form():
    # n = 2: eta(x, y) = i (log|x| d arg y - log|y| d arg x)
    rng = np.random.default_rng(0)
    for _ in range(20):
        xs = _on_frame(_random_jets(rng, 2, 1), _frame(rng, 1))
        got = eta_eval(xs)[0]
        x, y = xs
        want = (log_abs(x) * diarg(y)[:, 0] - log_abs(y) * diarg(x)[:, 0])[0]
        assert abs(got - want) < 1e-12 * max(1, abs(want))


def test_eta_antisymmetric_in_arguments():
    rng = np.random.default_rng(1)
    xs = _on_frame(_random_jets(rng, 3, 2), _frame(rng, 2))
    a = eta_eval(xs)[0]
    b = eta_eval([xs[1], xs[0], xs[2]])[0]
    assert abs(a + b) < 1e-12 * max(1, abs(a))


def test_eta_vanishes_on_repeated_argument():
    rng = np.random.default_rng(2)
    xs = _on_frame(_random_jets(rng, 2, 2), _frame(rng, 2))
    assert abs(eta_eval([xs[0], xs[0], xs[1]])[0]) < 1e-12


def test_eta_equals_minus_rnn():
    rng = np.random.default_rng(3)
    for n in (2, 3, 4):
        for _ in range(30):
            xs = _on_frame(_random_jets(rng, n, n - 1), _frame(rng, n - 1))
            a = eta_eval(xs)[0]
            b = rnn_eval(xs)[0]
            scale = max(abs(a), abs(b), 1e-8)
            assert abs(a + b) < 1e-10 * scale, (n, a, b)


def test_rho_matches_explicit_display_n4():
    # rho({f}_2 (x) g1 ^ g2) = i D(f) (diarg g1 ^ diarg g2
    #   + 1/3 dlog|g1| ^ dlog|g2|)
    #   + 1/3 theta(1-f, f) ^ (log|g1| diarg g2 - log|g2| diarg g1)
    rng = np.random.default_rng(4)
    for _ in range(20):
        f = _random_jets(rng, 1, 3)[0]
        g1, g2 = _random_jets(rng, 2, 3)
        # a 2-form on the plane spanned by two random directions in the 3 parameters
        f, g1, g2 = _on_frame([f, g1, g2], [rng.normal(size=3) for _ in range(2)])
        got = rho_eval(f, [g1, g2])[0]

        one_minus_f = 1 - f

        def theta(a, b):
            return log_abs(a)[:, None] * dlog_abs(b) - log_abs(b)[:, None] * dlog_abs(a)

        D = kernels.bloch_wigner(f.val)
        term1 = 1j * D * (
            wedge_value([diarg(g1), diarg(g2)])
            + wedge_value([dlog_abs(g1) / 3, dlog_abs(g2)])
        )
        term2 = wedge_value(
            [
                theta(one_minus_f, f),
                (log_abs(g1)[:, None] * diarg(g2) - log_abs(g2)[:, None] * diarg(g1)) / 3,
            ]
        )
        want = (term1 + term2)[0]
        assert abs(got - want) < 1e-11 * max(1, abs(want))


def test_batched_forms_match_pointwise():
    """eta, r_n(n) and rho on a batch equal the same forms point by point."""
    rng = np.random.default_rng(11)
    N = 16
    for k in (1, 2, 3):
        t = _frame(rng, k)
        xs = _on_frame(_random_jets(rng, k + 1, k, N), t)
        f = _on_frame(_random_jets(rng, 1, k, N), t)[0]
        gs = _on_frame(_random_jets(rng, k, k, N), t)
        batched = {
            "eta": eta_eval(xs),
            "rnn": rnn_eval(xs),
            "rho": rho_eval(f, gs),
        }
        for name, got in batched.items():
            assert got.shape == (N,), (name, k)
        for i in range(N):
            single = {
                "eta": eta_eval([_point(x, i) for x in xs]),
                "rnn": rnn_eval([_point(x, i) for x in xs]),
                "rho": rho_eval(_point(f, i), [_point(g, i) for g in gs]),
            }
            for name, want in single.items():
                assert want.shape == (1,)
                scale = max(abs(want[0]), 1e-300)
                assert abs(batched[name][i] - want[0]) <= 1e-14 * scale, (name, k, i)


def test_degenerate_point_in_batch_raises():
    rng = np.random.default_rng(12)
    t = _frame(rng, 2)
    xs = _on_frame(_random_jets(rng, 3, 2, 5), t)
    f = _on_frame(_random_jets(rng, 1, 2, 5), t)[0]
    gs = _on_frame(_random_jets(rng, 2, 2, 5), t)
    for bad in (0.0, 1.0):
        fv = Jet(np.where(np.arange(5) == 3, bad, f.val), f.grad)
        with pytest.raises(ValueError, match="Steinberg degeneracy"):
            rho_eval(fv, gs)
    zero = Jet(np.where(np.arange(5) == 1, 0.0, gs[0].val), gs[0].grad)
    with pytest.raises(ValueError, match="wedge entry vanishes"):
        rho_eval(f, [zero, gs[1]])
    with pytest.raises(ValueError, match="wedge entry vanishes"):
        rnn_eval([xs[0], zero, xs[2]])
    with pytest.raises(ValueError, match="coordinate vanishes"):
        eta_eval([xs[0], zero, xs[2]])


@pytest.mark.parametrize("k", [1, 2, 3])
def test_forms_reject_jets_with_the_wrong_number_of_parameters(k):
    """A k-form is a density in k parameters: jets in k - 1 or k + 1 parameters, or
    one jet of another parameter count among them, are refused."""
    rng = np.random.default_rng(13)
    for wrong in (k - 1, k + 1):
        xs = _random_jets(rng, k + 1, wrong, 4)
        with pytest.raises(ValueError, match="eta is a"):
            eta_eval(xs)
        with pytest.raises(ValueError, match="r_n\\(n\\) is a"):
            rnn_eval(xs)
        f = _random_jets(rng, 1, k, 4)[0]
        gs = _random_jets(rng, k, k, 4)
        with pytest.raises(ValueError, match="r_n\\(n-1\\) is a"):
            rho_eval(_random_jets(rng, 1, wrong, 4)[0], gs)
        with pytest.raises(ValueError, match="r_n\\(n-1\\) is a"):
            rho_eval(f, gs[:-1] + _random_jets(rng, 1, wrong, 4))


def test_d_rho_xi_equals_eta_finite_difference():
    """Exterior derivative of rho(xi) reproduces eta on the zero locus."""
    doc = load_decomposition(os.path.join(data_dir(), "decomposition_n4.json"))
    xi, _, _ = build_xi(doc)
    rng = np.random.default_rng(7)

    def surface_coords(u, frame):
        # chart: x, y, z free; t = -(1+x)(1+y)(1+z); parameter j moves u along frame[j]
        xs = [Jet(u[i], [v[i] for v in frame]) for i in range(3)]
        t = -((1 + xs[0]) * (1 + xs[1]) * (1 + xs[2]))
        return xs, t

    failures = 0
    for _ in range(10):
        u0 = np.array(
            [complex(rng.normal(), rng.normal()) + 0.5 for _ in range(3)]
        )
        t3 = [rng.normal(size=3) for _ in range(3)]

        def eta_at(u):
            xs, t = surface_coords(u, t3)
            return eta_eval(xs + [t])[0]

        def rho_pair(u, ta, tb):
            xs, _ = surface_coords(u, [ta, tb])
            return rho_of_element_at(xi, xs)[0]

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
