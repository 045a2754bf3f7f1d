import math
import random

import pytest
import sympy

from reglab.k3 import (
    WeierstrassCurveQt,
    _cm_level,
    _imaginary_quadratic_field,
    all_fibers,
    fiber_at_infinity,
    finite_fibers,
    kodaira_type,
    load_curve,
    shioda_tate_rho,
    surface_invariants,
    transcendental_det,
)
from reglab.lfunctions import F7, NewformSpec, cm_newform, completed_lambda
from reglab.symbolic import format_factored, parse_poly

T = sympy.Symbol("t")


def _flagship():
    curve, rank, torsion = load_curve()
    return curve, rank, torsion


def test_discriminant_identity_and_factorization():
    curve, _, _ = _flagship()
    disc, c4, c6 = (p.as_expr() for p in curve.discriminant())
    assert sympy.expand(c4**3 - c6**2 - 1728 * disc) == 0
    want = sympy.expand(T**7 * (T - 1) ** 7 * (T**3 - 8 * T**2 + 5 * T + 1))
    assert sympy.expand(disc - want) == 0


def test_discriminant_simple_curve():
    cv = WeierstrassCurveQt("0", "0", "0", "0", "t")
    disc, _, _ = cv.discriminant()
    assert sympy.expand(disc.as_expr() + 432 * T**2) == 0


def test_singular_curve_rejected():
    with pytest.raises(ValueError):
        WeierstrassCurveQt("0", "0", "0", "0", "0")


def test_constant_coefficients_no_finite_bad_fibers():
    cv = WeierstrassCurveQt("0", "0", "0", "1", "1")
    for f in finite_fibers(cv):
        assert f.v_delta == 0 or f.kodaira == "I0"


def test_kodaira_table_entries():
    assert kodaira_type(0, 0, 7).kodaira == "I7"
    assert kodaira_type(0, 0, 1).kodaira == "I1"
    assert kodaira_type(1, 1, 2).kodaira == "II"
    assert kodaira_type(1, 2, 3).kodaira == "III"
    assert kodaira_type(2, 2, 4).kodaira == "IV"
    assert kodaira_type(2, 3, 6).kodaira == "I0*"
    assert kodaira_type(2, 3, 9).kodaira == "I3*"
    assert kodaira_type(3, 4, 8).kodaira == "IV*"
    assert kodaira_type(3, 5, 9).kodaira == "III*"
    assert kodaira_type(4, 5, 10).kodaira == "II*"
    # I_n bookkeeping
    f = kodaira_type(0, 0, 7)
    assert f.components == 7 and f.simple_components == 7
    # a smooth fiber, also when given by a non-minimal model: one component
    for orders in [(0, 0, 0), (4, 6, 12)]:
        f = kodaira_type(*orders)
        assert (f.kodaira, f.v_delta, f.components, f.simple_components) == ("I0", 0, 1, 1)
    # components m_s and simple components m_s^(1) of the other types (Silverman,
    # Advanced Topics, IV.9)
    counts = {
        (1, 1, 2): ("II", 1, 1),
        (1, 2, 3): ("III", 2, 2),
        (2, 2, 4): ("IV", 3, 3),
        (3, 4, 6): ("I0*", 5, 4),
        (2, 3, 9): ("I3*", 8, 4),
        (3, 4, 8): ("IV*", 7, 3),
        (3, 5, 9): ("III*", 8, 2),
        (4, 5, 10): ("II*", 9, 1),
    }
    for orders, want in counts.items():
        f = kodaira_type(*orders)
        assert (f.kodaira, f.components, f.simple_components) == want, orders


def test_kodaira_minimalization():
    # non-minimal triple reduces by (4, 6, 12)
    assert kodaira_type(4, 6, 19).kodaira == "I7"
    with pytest.raises(ValueError):
        kodaira_type(1, 1, 5)


def test_kodaira_u_transform_invariance():
    rng = random.Random(5)
    for _ in range(20):
        vc4, vc6, vd = rng.choice(
            [(0, 0, 3), (1, 1, 2), (2, 3, 8), (3, 5, 9), (0, 0, 1)]
        )
        k = rng.randint(1, 3)
        a = kodaira_type(vc4, vc6, vd).kodaira
        b = kodaira_type(vc4 + 4 * k, vc6 + 6 * k, vd + 12 * k).kodaira
        assert a == b


def test_flagship_fiber_configuration():
    curve, _, _ = _flagship()
    fibers = all_fibers(curve)
    types = sorted(f.kodaira for f in fibers for _ in range(f.degree))
    assert types == ["I1", "I1", "I1", "I7", "I7", "I7"]
    assert sum(f.degree * f.v_delta for f in fibers) == 24


def test_infinity_fiber_is_I7():
    curve, _, _ = _flagship()
    inf = fiber_at_infinity(curve)
    assert inf is not None
    assert inf.kodaira == "I7"


def test_shioda_tate_formula():
    curve, rank, _ = _flagship()
    fibers = all_fibers(curve)
    assert shioda_tate_rho(rank, fibers) == 20
    assert shioda_tate_rho(0, [kodaira_type(0, 0, 1)]) == 2
    assert shioda_tate_rho(2, [kodaira_type(0, 0, 2), kodaira_type(0, 0, 2)]) == 6


def test_transcendental_det():
    curve, _, torsion = _flagship()
    fibers = all_fibers(curve)
    assert transcendental_det(fibers, torsion) == 7
    assert transcendental_det([kodaira_type(0, 0, 1)] * 4, 1) == 1
    with pytest.raises(ValueError):
        transcendental_det([kodaira_type(0, 0, 3)], 2)  # 3/4 not integral


def test_schuett_level():
    # (squarefree d, d_K) of Q(sqrt(-d)) and the level |d_K|, as surface_invariants
    # derives them from det T
    assert _imaginary_quadratic_field(7) == (7, -7) and _cm_level(7, -7) == 7
    assert _imaginary_quadratic_field(2) == (2, -8) and _cm_level(2, -8) == 8
    assert _imaginary_quadratic_field(28) == (7, -7)  # squarefree reduction
    for d, dK in ((1, -4), (3, -3)):
        with pytest.raises(ValueError, match=rf"^d_K = {dK} is excluded "):
            _cm_level(*_imaginary_quadratic_field(d))
    # the constant curve has det T = 1, but it is refused before its d_K = -4: its
    # surface has no singular fiber, so it is not a K3
    with pytest.raises(ValueError, match="not a singular K3") as refused:
        surface_invariants(WeierstrassCurveQt.from_string("0,0,0,1,1"))
    assert "is excluded" not in str(refused.value)


@pytest.mark.parametrize(
    "text, euler, rho",
    [
        ("0,0,0,t,1", 12, 9),  # rational: I1 over a cubic place and III* at oo
        ("0,0,0,0,t^7+1", 24, 10),  # a K3 (II at 7 points, II* at oo), but not singular
    ],
)
def test_surface_invariants_require_a_singular_k3(text, euler, rho):
    curve = WeierstrassCurveQt.from_string(text)
    with pytest.raises(ValueError, match=f"Euler number {euler}, rho = {rho}$"):
        surface_invariants(curve)


NONIC = (
    "25*t^9 - 64*t^8 + 40*t^7 - 125*t^6 + 376*t^5 - 300*t^4 + 288*t^3 - 240*t^2 - 432*t - 64"
)


@pytest.mark.parametrize(
    "text, fibers, rho, det, field",
    [
        ("t,t^2+1,0,t^3,t", [("t", "I1", 1), (NONIC, "I1", 9), ("t = oo", "I2", 1)], 3, 2, (2, -8)),
        ("0,0,0,1,1", [], 2, 1, (1, -4)),
        ("0,0,0,t,0", [("t", "III", 1), ("t = oo", "III*", 1)], 10, 4, (1, -4)),
    ],
)
def test_fibers_of_surfaces_that_are_not_singular_k3(text, fibers, rho, det, field):
    # all_fibers classifies any curve, also one whose surface surface_invariants refuses
    found = all_fibers(WeierstrassCurveQt.from_string(text))
    assert [(f.place, f.kodaira, f.degree) for f in found] == fibers
    assert shioda_tate_rho(0, found) == rho
    assert transcendental_det(found, 1) == det
    assert _imaginary_quadratic_field(det) == field


def test_schuett_level_of_an_even_discriminant_is_its_eta_product_level():
    # the CM form of Q(sqrt(-2)) is eta(z)^2 eta(2z) eta(4z) eta(8z)^2; its completed
    # L-function is independent of the split A only at its true level
    f8 = cm_newform(-8)

    def split_defect(level):
        f = NewformSpec(level, 3, +1, f8.chi, f8.ap)
        return abs(float(completed_lambda(f, 1, 15, 1)) - float(completed_lambda(f, 1, 15, 1.3)))

    level = _cm_level(*_imaginary_quadratic_field(2))
    assert split_defect(level) < 1e-12
    assert split_defect(2) > 1e-4


def test_surface_invariants_flagship():
    curve, rank, torsion = _flagship()
    inv = surface_invariants(curve, rank, torsion)
    assert inv.rho == 20
    assert inv.det_T == 7
    assert inv.level == 7
    assert inv.euler_sum == 24


def test_k3_stage_names_the_l_function_of_the_flagship():
    inv = surface_invariants(*load_curve())
    f = cm_newform(inv.d_K)
    assert f.level == inv.level
    assert f.coefficients(1000) == F7.coefficients(1000)


def test_k3_rank_bound_enforced():
    curve, _, torsion = _flagship()
    with pytest.raises(ValueError):
        surface_invariants(curve, 5, torsion)


@pytest.mark.parametrize("rank, torsion", [(0, 0), (-3, 1)])
def test_surface_invariants_reject_impossible_rank_or_torsion(rank, torsion):
    curve, _, _ = _flagship()
    with pytest.raises(ValueError):
        surface_invariants(curve, rank, torsion)


# curves whose discriminants have a content of 1, -1, an integer or a fraction, and one
# or several factors with multiplicity
FACTORED_CURVES = [
    "1,0,t,0,t^3-2",
    "0,0,0,t,1",
    "t,t^2+1,0,t^3,t",
    "1+t-t^2,t^2-t^3,t^2-t^3,0,0",
    "0,0,0,t/2,t^3/3+1",
    "0,0,0,1,1",
    "0,t,0,-t^2/5,0",
    "0,0,0,0,-(t-1)^2",
    "0,0,0,0,t/3+1/3",
    "0,0,0,-t^2,0",
    "0,0,0,0,t",
]


def _random_curve(rng):
    def poly(degree):
        coeffs = [rng.choice(["0", "1", "-1", "2", "-3", "1/2", "-2/3"]) for _ in range(degree + 1)]
        return "+".join(f"({c})*t^{e}" for e, c in enumerate(coeffs))

    return ",".join(poly(d) for d in (1, 2, 1, 3, 4))


def _delta(text):
    """Delta of the curve as the ``reglab k3`` document prints it."""
    return format_factored(WeierstrassCurveQt.from_string(text).discriminant()[0])


def test_k3_document_strings_parse_back():
    """Delta and each finite place, as the ``reglab k3`` document prints them, parse back
    with parse_poly to the polynomial they print."""
    rng = random.Random(17)
    for text in FACTORED_CURVES + [_random_curve(rng) for _ in range(20)]:
        curve = WeierstrassCurveQt.from_string(text)
        disc = curve.discriminant()[0]
        assert parse_poly(_delta(text), ["t"]) == disc, text
        places = [f.place for f in finite_fibers(curve)]
        assert [parse_poly(p, ["t"]) for p in places] == [g for g, _ in disc.factor_list()[1]]
    # a content of -1 stays in front of a single factor
    assert _delta("1,0,t,0,t^3-2") == (
        "-(432*t^6 + 216*t^5 - 9*t^4 - 1728*t^3 - 432*t^2 + 72*t + 1726)"
    )
    assert _delta("0,0,0,t,1") == "-16*(4*t^3 + 27)"
