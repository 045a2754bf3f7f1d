import math

import mpmath
import pytest
import sympy
from hypothesis import given, settings, strategies as st

from reglab import lfunctions
from reglab.lfunctions import (
    CHI_M3,
    CHI_M4,
    CHI_M7,
    F7,
    F15,
    CM_DISCRIMINANTS,
    DirichletChar,
    NewformSpec,
    cm_newform,
    completed_lambda,
    dirichlet_L,
    dirichlet_L_continued,
    dirichlet_Lprime_neg,
    lprime_minus1,
    lvalue,
    zeta_prime_minus2,
)
from reglab.numerics import HPReal


def test_kronecker_basic():
    # (-7|n) table for n = 1..7
    chi = DirichletChar(-7)
    assert [chi(n) for n in range(1, 8)] == [1, 1, -1, 1, -1, -1, 0]
    assert DirichletChar(-4)(3) == -1
    assert DirichletChar(-4)(5) == 1


def test_character_tables():
    assert CHI_M3.parity == "odd"
    assert CHI_M4.parity == "odd"
    assert CHI_M7.parity == "odd"
    assert [CHI_M3(n) for n in range(3)] == [0, 1, -1]
    assert [CHI_M4(n) for n in range(4)] == [0, 1, 0, -1]


def test_character_validation():
    with pytest.raises(ValueError):
        DirichletChar(0)  # modulus 0


@pytest.mark.parametrize("D", [0, 3, -1, -12, 9, 16, 20])
def test_quadratic_rejects_non_fundamental_discriminants(D):
    # (3|.) tabulated mod 3 is not a character: 3 = 3 mod 4 is no discriminant
    with pytest.raises(ValueError, match="fundamental discriminant"):
        DirichletChar(D)


@pytest.mark.parametrize("D", [1, -3, -4, -7, -8, 5, 8, 12])
def test_quadratic_accepts_fundamental_discriminants(D):
    chi = DirichletChar(D)
    assert chi.modulus == abs(D)
    assert chi.parity == ("even" if D > 0 else "odd")
    assert chi(-1) == (1 if D > 0 else -1)  # the table agrees with the parity


def test_dirichlet_L_against_known_series():
    # L(chi_-4, 2) is Catalan's constant
    got = float(dirichlet_L(CHI_M4, 2, 25))
    assert abs(got - float(mpmath.catalan)) < 1e-20
    with pytest.raises(ValueError):
        dirichlet_L(CHI_M4, 0.5)


@pytest.mark.parametrize("s", [1e12, 1e17])
def test_dirichlet_L_keeps_its_digits_at_large_s(s):
    # L(chi_-3, s) -> 1; without guard bits for the size of s the error grows
    # like s 2^-wp: 8.3e-13 at s = 1e12, and 1e-7 at s = 1e17
    assert abs(dirichlet_L(CHI_M3, s, 15).mpf() - 1) < 1e-15


@pytest.mark.parametrize("s", [100, 200, 1e6])
@pytest.mark.parametrize("chi", [CHI_M3, CHI_M4])
def test_dirichlet_series_route_agrees_with_hurwitz_route(chi, s, monkeypatch):
    # above s = wp the series itself is summed; the Hurwitz-zeta sum at the same
    # working precision agrees to the digits asked for
    prec, wp = 15, 90
    with mpmath.mp.workprec(wp):
        direct = lfunctions._dirichlet_series(chi, mpmath.mpf(s), wp)
        hurwitz = lfunctions._hurwitz_sum(chi, mpmath.mpf(s))
    assert abs(direct - hurwitz) < mpmath.mpf(10) ** -prec
    monkeypatch.setattr(lfunctions, "_hurwitz_sum", None)  # the route is not taken
    assert dirichlet_L_continued(chi, s, prec).mpf() == HPReal(direct, prec).mpf()


@pytest.mark.parametrize("s", [math.inf, -math.inf, math.nan])
def test_non_finite_s_is_refused(s):
    # the message names s; dirichlet_L refuses s = nan already as not > 1
    for L in (dirichlet_L, dirichlet_L_continued):
        with pytest.raises(ValueError, match=f"s = {s}"):
            L(CHI_M3, s)
    with pytest.raises(ValueError, match=f"s = {s} is not finite"):
        completed_lambda(F7, s)


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
    chi5 = DirichletChar(5)
    assert chi5.parity == "even"
    with pytest.raises(ValueError):
        dirichlet_Lprime_neg(chi5)


def test_zeta_prime_minus2():
    want = float(-mpmath.zeta(3) / (4 * mpmath.pi**2))
    assert abs(float(zeta_prime_minus2(30)) - want) < 1e-25
    # cross-check against mpmath's zeta derivative
    assert abs(float(zeta_prime_minus2(25)) - float(mpmath.zeta(-2, derivative=1))) < 1e-20


def eta_product(factors, n_terms):
    """a_0 .. a_n_terms of prod_d eta(d z)^(r_d) for sum(d r_d) = 24, that is of
    q prod_d prod_n (1 - q^(d n))^(r_d), by the naive power-series product."""
    c = [1] + [0] * (n_terms - 1)  # c[i] multiplies q^(i + 1)
    for d, r in factors:
        for k in range(d, n_terms, d):
            for _ in range(r):
                c[k:] = [x - y for x, y in zip(c[k:], c)]  # times (1 - q^k)
    return [0] + c


@pytest.mark.parametrize(
    "f, factors",
    [
        (F7, ((1, 3), (7, 3))),
        (F15, ((1, 1), (3, 1), (5, 1), (15, 1))),
        (cm_newform(-8), ((1, 2), (2, 1), (4, 1), (8, 2))),
    ],
)
def test_newforms_equal_their_eta_products(f, factors):
    assert f.coefficients(1000) == eta_product(factors, 1000)


@pytest.mark.parametrize("d_K", CM_DISCRIMINANTS)
def test_cm_newforms_pass_split_and_functional_equation(d_K):
    f = cm_newform(d_K)
    assert (f.level, f.weight, f.eps, f.chi) == (-d_K, 3, +1, DirichletChar(d_K))
    # Lambda is independent of the split A and satisfies Lambda(s) = Lambda(3 - s)
    # only at the true level, sign and coefficients
    lam = float(completed_lambda(f, 1, 15, A=1))
    assert abs(lam - float(completed_lambda(f, 1, 15, A=1.3))) < 1e-13 * abs(lam)
    lam = float(completed_lambda(f, 1.2, 15))
    assert abs(lam - float(completed_lambda(f, 1.8, 15))) < 1e-13 * abs(lam)


@pytest.mark.parametrize("d_K", [-3, -4, -15, -20, -23])
def test_cm_newform_rejects_other_discriminants(d_K):
    # -3 and -4 have extra units, -15, -20 and -23 class number 2 or 3
    with pytest.raises(ValueError):
        cm_newform(d_K)


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
    for p in sympy.primerange(2, 1000):
        if p == 7:
            continue
        assert abs(a[p]) <= 2 * p, p


def test_newform_validation_catches_corruption():
    # an a_p rule with a_11 = 99 > 2 * 11 breaks the Deligne bound
    bad = NewformSpec(7, 3, +1, CHI_M7, lambda p: 99 if p == 11 else F7.ap(p))
    with pytest.raises(ValueError, match="Deligne bound fails at p = 11"):
        bad.coefficients(20)


def test_deligne_bound_is_checked_beyond_p_1000():
    bad = NewformSpec(7, 3, +1, CHI_M7, lambda p: 3000 if p == 1009 else F7.ap(p))
    with pytest.raises(ValueError, match="Deligne bound fails at p = 1009"):
        bad.coefficients(1100)


def test_deligne_bound_is_checked_on_a_longer_request():
    # the a_p that a later, longer request adds are checked too
    bad = NewformSpec(7, 3, +1, CHI_M7, lambda p: 300 if p == 101 else F7.ap(p))
    assert bad.coefficients(50) == F7.coefficients(50)
    with pytest.raises(ValueError, match="Deligne bound fails at p = 101"):
        bad.coefficients(200)


def test_deligne_bound_allows_equality():
    # weight 3 at p = 2: a_2^2 <= 4 * 2^2 holds with equality at a_2 = +-4
    for a2 in (4, -4):
        assert NewformSpec(7, 3, +1, CHI_M7, lambda p: a2 if p == 2 else 0).coefficients(2)[2] == a2
    with pytest.raises(ValueError, match="Deligne bound fails at p = 2"):
        NewformSpec(7, 3, +1, CHI_M7, lambda p: 5 if p == 2 else 0).coefficients(2)


def test_coefficients_compute_each_ap_once():
    # a longer request redoes the multiplicative build, not the a_p
    calls = []

    def ap(p):
        calls.append(p)
        return F7.ap(p)

    f = NewformSpec(7, 3, +1, CHI_M7, ap)
    assert f.coefficients(1000) == F7.coefficients(1000)
    assert f.coefficients(4000) == NewformSpec(7, 3, +1, CHI_M7, F7.ap).coefficients(4000)
    assert sorted(calls) == list(sympy.primerange(2, 4001))


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


# the stored binary values, (sign, mantissa, exponent, bit count), of L-values that
# verify-main, the CLI and the benchmark print; a change to how the series is
# summed must leave every bit of them as it is
PINNED_LVALUES = [
    (lambda: lprime_minus1(F7, 20), (1, 19915864668962495911903, -78, 75)),
    (lambda: lprime_minus1(F7, 30), (1, 85537987424755786192157649203471, -110, 107)),
    (
        lambda: lprime_minus1(F7, 40),
        (1, 1469531434219941449928341900020592629888817, -144, 141),
    ),
    (
        lambda: lprime_minus1(F7, 60),
        (1, 216864562202612821790289794993155710021673089772313128654520169, -211, 208),
    ),
    (lambda: lprime_minus1(F15, 20), (1, 73139705847435330732913, -78, 76)),
    (lambda: lvalue(F7, 2, 30), (0, 606475549962207624779557551587227, -110, 109)),
    # s = 5.5 > k - 1: the s-side terms do not decay like e^(-x) at first
    (lambda: lvalue(F7, 5.5, 20), (0, 1105040384236636445055, -70, 70)),
    (lambda: completed_lambda(F7, 2, 20, 0.7), (0, 1564846548739880546147, -74, 71)),
    (lambda: completed_lambda(F7, 2, 20, 1.3), (0, 1564846548739880546147, -74, 71)),
]


@pytest.mark.parametrize("case", range(len(PINNED_LVALUES)))
def test_lvalues_are_pinned_bit_for_bit(case):
    compute, want = PINNED_LVALUES[case]
    assert compute().mpf()._mpf_ == want


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
