import math
from fractions import Fraction

import mpmath
from mpmath.libmp import to_rational
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reglab import kernels, numerics
from reglab.numerics import HPReal, bloch_wigner


def polylog_D(z, dps=30):
    """Reference D(z) = Im Li2(z) + arg(1-z) log|z| from mpmath.polylog."""
    with mpmath.workdps(dps):
        z = mpmath.mpc(z)
        return mpmath.polylog(2, z).imag + mpmath.arg(1 - z) * mpmath.log(abs(z))


def test_hpreal_roundtrip_and_format():
    x = HPReal("0.25", 20)
    assert float(x) == 0.25
    s = x.to_decimal()
    assert s.startswith("+2.5")
    assert "e-1" in s
    assert float(HPReal(s, 20)) == 0.25


@pytest.mark.parametrize(
    "value, prec, text",
    [
        (math.log(13500), 1, "+1e+1"),  # 9.51 rounds up into the next decade
        (0.6041, 1, "+6e-1"),
        (-9.96, 1, "-1e+1"),
        (0, 1, "+0e+0"),
        (math.log(13500), 2, "+9.5e+0"),
        (9.96, 2, "+1.0e+1"),
        (0.6041, 2, "+6.0e-1"),
        (0, 3, "+0.00e+0"),
        (0.6041, 3, "+6.04e-1"),
        (0.125, 2, "+1.2e-1"),  # an exact tie rounds to even
        (-7.772753797462163e-18, 21, "-7.77275379746216284604e-18"),
    ],
)
def test_to_decimal_prints_prec_significant_digits(value, prec, text):
    assert HPReal(value, prec).to_decimal() == text


@given(st.floats(-1e30, 1e30, allow_nan=False), st.integers(1, 30))
@settings(max_examples=300, deadline=None)
def test_to_decimal_parses_back_within_half_a_unit(value, prec):
    x = HPReal(value, prec)
    text = x.to_decimal()
    mantissa, exponent = text[1:].split("e")
    digits = mantissa.replace(".", "")
    assert len(digits) == prec
    assert digits[0] != "0" or value == 0
    # exactly: the printed decimal against the stored binary value
    error = abs(Fraction(text) - Fraction(*to_rational(x.mpf()._mpf_)))
    assert error <= Fraction(10) ** (int(exponent) - prec + 1) / 2


def test_hpreal_carries_value_and_precision():
    x = HPReal(Fraction(1, 3), 30)
    assert x.prec == 30
    with mpmath.mp.workprec(200):
        assert abs(3 * x.mpf() - 1) < 1e-30
    assert float(x) == 1 / 3


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
    fast = kernels.bloch_wigner(z)
    for zi, fi in zip(z, fast):
        assert abs(fi - float(polylog_D(zi))) < 5e-14


def test_kernels_wide_magnitude_match_mpmath():
    # |z| from e^-3 to e^3 exercises both the inversion and the reflection
    # step, and their four combinations
    rng = np.random.default_rng(5)
    z = (rng.normal(size=500) + 1j * rng.normal(size=500)) * np.exp(
        rng.uniform(-3, 3, 500)
    )
    D = kernels.bloch_wigner(z)
    assert D.shape == z.shape
    for zi, di in zip(z, D):
        assert abs(di - float(polylog_D(zi))) < 5e-14

    # 2-d input keeps its shape and matches the flat evaluation elementwise
    # (array_equal also compares shapes)
    grid = z[:60].reshape(6, 10)
    assert np.array_equal(kernels.bloch_wigner(grid), D[:60].reshape(6, 10))

    # a Python scalar gives a NumPy scalar with the same value as the batch
    for i in (0, 7, 123):
        di = kernels.bloch_wigner(complex(z[i]))
        assert isinstance(di, np.float64) and di == D[i]
    assert isinstance(kernels.bloch_wigner(2), np.float64)


def test_kernel_bloch_wigner_matches_mp():
    for z in (0.4 + 0.9j, -1.3 + 0.2j, 2.5 - 1.5j):
        assert abs(kernels.bloch_wigner(z) - float(polylog_D(z))) < 5e-14


D_POINTS = (
    0.3 + 0.4j,  # no step
    0.8 + 0.3j,  # reflection only
    -2.0 + 1.0j,  # inversion only
    1.2 + 0.3j,  # inversion, then reflection
    1e-12 + 3e-12j,  # near 0
    1 + 1e-10j,  # near 1
    1 - 1e-9 + 1e-9j,
    complex(np.exp(1j * math.pi / 3)),  # where both steps meet
    1e8 * complex(np.exp(0.7j)),
    1e-8 * complex(np.exp(2.1j)),
)


def test_bloch_wigner_40_digits_against_polylog():
    for z in D_POINTS:
        got = bloch_wigner(z, 40).mpf()
        with mpmath.workdps(70):
            assert abs(got - polylog_D(z, 70)) < mpmath.mpf("1e-38"), z


@pytest.mark.parametrize("prec", [15, 30, 60, 100])
def test_bloch_wigner_across_precisions(prec, monkeypatch):
    # at e^(i pi/3) (1 +- 1e-12) |u| sits at the pi/3 corner that fixes the term count
    corner = complex(np.exp(1j * math.pi / 3))
    table = numerics._li2_series_table
    widths = set()

    def recording_table(wp):
        widths.add(wp)
        return table(wp)

    monkeypatch.setattr(numerics, "_li2_series_table", recording_table)
    for z in D_POINTS + (corner * (1 + 1e-12), corner * (1 - 1e-12)):
        got = bloch_wigner(z, prec).mpf()
        with mpmath.workdps(prec + 30):
            assert abs(got - polylog_D(z, prec + 30)) < mpmath.mpf(10) ** -prec, z
    assert widths
    for wp in widths:
        j = len(table(wp))
        c = numerics.li2_series_coef(j)
        with mpmath.workprec(wp + 64):
            last = mpmath.mpf(c.numerator) / c.denominator * (mpmath.pi / 3) ** (2 * j + 1)
            assert abs(last) < mpmath.mpf(2) ** (-wp - 5), wp


@pytest.mark.parametrize("prec", [15, 40])
def test_bloch_wigner_keeps_relative_precision_near_zero_and_the_real_line(prec):
    # D is of the size of Im w there, so an absolute error bound says little
    points = (0.3 + 1e-25j, -2.5 - 3e-18j, 4.0 + 1e-30j, 1e-20 + 2e-20j, 1e15 * complex(np.exp(0.4j)))
    for z in points:
        got = bloch_wigner(z, prec).mpf()
        with mpmath.workdps(prec + 40):
            want = polylog_D(z, prec + 40)
            assert abs(got - want) < abs(want) * mpmath.mpf(10) ** (1 - prec), z


@pytest.mark.parametrize("prec", [30, 60])
def test_bloch_wigner_keeps_relative_precision_near_one_outside_the_disc(prec):
    # both symmetry steps apply, and w = 1 - 1/z must keep the digits of z - 1
    z = 1.000000000000001 - 9.723882561222697e-16j
    assert abs(z) > 1 and (1 / z).real > 0.5
    got = bloch_wigner(z, prec).mpf()
    with mpmath.workdps(120):
        want = polylog_D(z, 120)
        assert abs(got - want) <= abs(want) * mpmath.mpf(10) ** -prec


def test_kernel_keeps_relative_precision_near_one_outside_the_disc():
    z = 1 + 1e-9 * np.exp(1j * np.array([-1.2, -0.5, 0.4, 1.1]))
    assert (np.abs(z) > 1).all()
    for zi, di in zip(z, kernels.bloch_wigner(z)):
        want = float(polylog_D(complex(zi), 40))
        assert abs(di - want) < 1e-14 * abs(want), zi


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
        real_axis = np.array([0.0, 1.0, -3.0, -1.0, 0.5, 2.0, 7.5])
        for z in real_axis:
            assert kernels.bloch_wigner(z) == 0.0
        assert np.all(kernels.bloch_wigner(real_axis) == 0.0)
        assert np.all(kernels.bloch_wigner(real_axis + 0j) == 0.0)
        # the maximum of D, at e^(i pi/3), where |z| = 1 and Re z = 1/2 meet
        d_max = 1.01494160640965362502
        rot = np.exp(1j * math.pi / 3)
        assert abs(kernels.bloch_wigner(rot) - d_max) < 1e-15
        assert abs(kernels.bloch_wigner(rot.conjugate()) + d_max) < 1e-15
