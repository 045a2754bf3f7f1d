import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reglab import kernels
from reglab.numerics import HPReal, bloch_wigner, li2


def test_hpreal_roundtrip_and_format():
    x = HPReal("0.25", 20)
    assert float(x) == 0.25
    s = x.to_decimal()
    assert s.startswith("+2.5")
    assert "e-1" in s
    assert float(HPReal(s, 20)) == 0.25


def test_hpreal_carries_value_and_precision():
    x = HPReal(Fraction(1, 3), 30)
    assert x.prec == 30
    with mpmath.mp.workprec(200):
        assert abs(3 * x.mpf() - 1) < 1e-30
    assert float(x) == 1 / 3


def test_li2_against_mpmath():
    for z in (0.3, -0.7, 0.5 + 0.5j, -2.0 + 1.0j, 3.0 - 0.25j, 1e-3j):
        got = li2(complex(z), 25)
        want = mpmath.polylog(2, mpmath.mpc(z))
        assert abs(complex(got) - complex(want)) < 1e-20, z


def test_li2_near_one():
    got = complex(li2(1 - 1e-8 + 1e-8j, 30))
    want = complex(mpmath.polylog(2, mpmath.mpc(1 - 1e-8, 1e-8)))
    assert abs(got - want) < 1e-22


def test_bloch_wigner_basic_values():
    # D(i) is Catalan's constant; D vanishes on the real line
    assert abs(float(bloch_wigner(1j, 25)) - 0.915965594177219015) < 1e-20
    assert float(bloch_wigner(0.73, 25)) == 0.0
    assert float(bloch_wigner(-4.2, 25)) == 0.0


def test_bloch_wigner_symmetries():
    rng = np.random.default_rng(3)
    for _ in range(50):
        z = complex(rng.normal(), rng.normal())
        if abs(z) < 1e-3 or abs(z - 1) < 1e-3:
            continue
        D = float(bloch_wigner(z, 20))
        assert abs(D + float(bloch_wigner(z.conjugate(), 20))) < 1e-15
        assert abs(D + float(bloch_wigner(1 / z, 20))) < 1e-14
        assert abs(D - float(bloch_wigner(1 - 1 / z, 20))) < 1e-14


def test_kernels_match_high_precision():
    rng = np.random.default_rng(11)
    z = rng.normal(size=200) + 1j * rng.normal(size=200)
    fast = kernels.li2(z)
    for zi, fi in zip(z, fast):
        want = complex(mpmath.polylog(2, mpmath.mpc(zi)))
        assert abs(fi - want) < 5e-14 * max(1, abs(want))


def test_kernels_wide_magnitude_match_mpmath():
    # |z| from e^-3 to e^3 exercises every branch: the power series, the
    # reflection near 1, the Debye series and the inversion outside the disk
    rng = np.random.default_rng(5)
    z = (rng.normal(size=500) + 1j * rng.normal(size=500)) * np.exp(
        rng.uniform(-3, 3, 500)
    )
    L, D = kernels.li2(z), kernels.bloch_wigner(z)
    assert L.shape == D.shape == z.shape
    with mpmath.workdps(30):
        for zi, li, di in zip(z, L, D):
            want_l = mpmath.polylog(2, mpmath.mpc(zi))
            want_d = float(bloch_wigner(complex(zi), 25))
            assert abs(li - complex(want_l)) < 5e-14 * max(1, abs(want_l))
            assert abs(di - want_d) < 5e-14

    # 2-d input keeps its shape and matches the flat evaluation elementwise
    # (array_equal also compares shapes)
    grid = z[:60].reshape(6, 10)
    assert np.array_equal(kernels.li2(grid), L[:60].reshape(6, 10))
    assert np.array_equal(kernels.bloch_wigner(grid), D[:60].reshape(6, 10))

    # a Python scalar gives a NumPy scalar with the same value as the batch
    for i in (0, 7, 123):
        zi = complex(z[i])
        li, di = kernels.li2(zi), kernels.bloch_wigner(zi)
        assert isinstance(li, np.complex128) and li == L[i]
        assert isinstance(di, np.float64) and di == D[i]
    assert isinstance(kernels.li2(0.5), np.complex128)
    assert isinstance(kernels.bloch_wigner(2), np.float64)


def test_kernel_bloch_wigner_matches_mp():
    for z in (0.4 + 0.9j, -1.3 + 0.2j, 2.5 - 1.5j):
        assert abs(kernels.bloch_wigner(z) - float(bloch_wigner(z, 25))) < 5e-14


@given(
    st.complex_numbers(
        min_magnitude=1e-2, max_magnitude=50, allow_nan=False, allow_infinity=False
    )
)
@settings(max_examples=200, deadline=None)
def test_bloch_wigner_inversion_property(z):
    if abs(z.imag) < 1e-9 or abs(z - 1) < 1e-6:
        return
    D = kernels.bloch_wigner(z)
    assert abs(D + kernels.bloch_wigner(1 / z)) < 1e-11 * max(1.0, abs(D))


def test_five_term_relation_double():
    rng = np.random.default_rng(17)
    for _ in range(100):
        x = complex(rng.normal(), rng.normal()) * 0.5
        y = complex(rng.normal(), rng.normal()) * 0.5
        if abs(1 - x * y) < 1e-3:
            continue
        total = (
            kernels.bloch_wigner(x)
            + kernels.bloch_wigner(y)
            + kernels.bloch_wigner((1 - x) / (1 - x * y))
            + kernels.bloch_wigner(1 - x * y)
            + kernels.bloch_wigner((1 - y) / (1 - x * y))
        )
        assert abs(total) < 1e-12


def test_kernels_exact_at_special_points():
    # no 0 * log(0) on the way: every floating-point warning is an error here
    with np.errstate(all="raise"):
        assert kernels.li2(1.0) == kernels.PI2_6
        assert abs(kernels.PI2_6 - math.pi**2 / 6) < 1e-15
        assert kernels.li2(0.0) == 0
        assert abs(kernels.li2(-1.0) + math.pi**2 / 12) < 1e-15
        arr = kernels.li2(np.array([1.0, 0.0, -1.0]))
        assert arr[0] == kernels.PI2_6 and arr[1] == 0
        assert abs(arr[2] + math.pi**2 / 12) < 1e-15
        real_axis = np.array([0.0, 1.0, -3.0, -1.0, 0.5, 2.0, 7.5])
        for z in real_axis:
            assert kernels.bloch_wigner(z) == 0.0
        assert np.all(kernels.bloch_wigner(real_axis) == 0.0)
        assert np.all(kernels.bloch_wigner(real_axis + 0j) == 0.0)
