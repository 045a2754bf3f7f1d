import math
import random

import pytest
import sympy

from reglab.k3 import (
    ExcludedDiscriminantError,
    WeierstrassCurveQt,
    all_fibers,
    fiber_at_infinity,
    finite_fibers,
    kodaira_type,
    load_curve,
    schuett_level,
    shioda_tate_rho,
    surface_invariants,
    transcendental_det,
)

T = sympy.Symbol("t")


def _flagship():
    curve, rank, torsion = load_curve()
    return curve, rank, torsion


def test_discriminant_identity_and_factorization():
    curve, _, _ = _flagship()
    disc, c4, c6 = curve.discriminant()
    assert sympy.expand(c4**3 - c6**2 - 1728 * disc) == 0
    want = sympy.expand(T**7 * (T - 1) ** 7 * (T**3 - 8 * T**2 + 5 * T + 1))
    assert sympy.expand(disc - want) == 0


def test_discriminant_simple_curve():
    cv = WeierstrassCurveQt("0", "0", "0", "0", "t")
    disc, _, _ = cv.discriminant()
    assert sympy.expand(disc + 432 * T**2) == 0


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
    assert schuett_level(7) == (7, -7, 7)
    assert schuett_level(2) == (2, -8, 2)
    assert schuett_level(28) == (7, -7, 7)  # squarefree reduction
    with pytest.raises(ExcludedDiscriminantError):
        schuett_level(1)
    with pytest.raises(ExcludedDiscriminantError):
        schuett_level(3)


def test_surface_invariants_flagship():
    curve, rank, torsion = _flagship()
    inv = surface_invariants(curve, rank, torsion)
    assert inv.rho == 20
    assert inv.det_T == 7
    assert inv.level == 7
    assert inv.euler_sum == 24


def test_k3_rank_bound_enforced():
    curve, _, torsion = _flagship()
    with pytest.raises(ValueError):
        surface_invariants(curve, 5, torsion, require_k3=True)


@pytest.mark.parametrize("rank, torsion", [(0, 0), (-3, 1)])
def test_surface_invariants_reject_impossible_rank_or_torsion(rank, torsion):
    curve, _, _ = _flagship()
    with pytest.raises(ValueError):
        surface_invariants(curve, rank, torsion)
