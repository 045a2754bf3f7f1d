"""Invariants of elliptic surfaces over Q(t): Weierstrass quantities,
Kodaira fiber types at the places of Q(t) (including t = infinity),
Shioda-Tate Picard rank, the transcendental-lattice determinant

    |det T| = prod_s m_s^(1) / torsion^2,

and the weight-3 newform level attached to a singular K3 surface: the CM
form of K = Q(sqrt(-d)), d = |det T|, has level |d_K|, d_K the discriminant
of K. The a_i and (Delta, c4, c6) are elements of the ring QQ[t]; place
names and Delta are printed in the grammar of ``parse_poly``.

The base field has characteristic 0, so the Kodaira type is read off the
minimalized vanishing orders (v(c4), v(c6), v(Delta)); no wild ramification
cases arise.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple

from .lfunctions import fundamental_discriminant
from .symbolic import format_poly, multiplicity, parse_poly


def _discriminant(a1, a2, a3, a4, a6):
    """(Delta, c4, c6) of the a_i; the identity c4^3 - c6^2 = 1728 Delta is verified."""
    b2 = a1**2 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3**2 + 4 * a6
    b8 = a1**2 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3**2 - a4**2
    c4 = b2**2 - 24 * b4
    c6 = -(b2**3) + 36 * b2 * b4 - 216 * b6
    disc = -(b2**2) * b8 - 8 * b4**3 - 27 * b6**2 + 9 * b2 * b4 * b6
    if c4**3 - c6**2 != 1728 * disc:
        raise RuntimeError("internal error: c4^3 - c6^2 != 1728 Delta")
    return disc, c4, c6


class WeierstrassCurveQt:
    """y^2 + a1 x y + a3 y = x^3 + a2 x^2 + a4 x + a6 with a_i in Q[t], each an
    element of the ring QQ[t]."""

    def __init__(self, a1, a2, a3, a4, a6):
        coeffs = []
        for text in (a1, a2, a3, a4, a6):
            p = parse_poly(text, ["t"])
            if any(e < 0 for (e,) in p.itermonoms()):
                raise ValueError("curve coefficients must be polynomials in t")
            coeffs.append(p)
        self.a1, self.a2, self.a3, self.a4, self.a6 = coeffs
        self._invariants = _discriminant(*coeffs)
        if not self._invariants[0]:
            raise ValueError("discriminant is identically zero (singular curve)")

    @classmethod
    def from_string(cls, text: str) -> "WeierstrassCurveQt":
        parts = [p.strip() for p in text.split(",")]
        if len(parts) != 5:
            raise ValueError("expected 5 comma-separated polynomials a1,a2,a3,a4,a6")
        return cls(*parts)

    def discriminant(self):
        """(Delta, c4, c6), ring elements of QQ[t]."""
        return self._invariants


@dataclass
class FiberData:
    place: str
    v_c4: float
    v_c6: float
    v_delta: int
    kodaira: str
    components: int  # m_s
    simple_components: int  # m_s^(1)
    degree: int = 1  # degree of the place: number of conjugate geometric fibers

    def to_dict(self) -> dict:
        return {
            "place": self.place,
            "v_c4": None if math.isinf(self.v_c4) else int(self.v_c4),
            "v_c6": None if math.isinf(self.v_c6) else int(self.v_c6),
            "v_delta": self.v_delta,
            "kodaira": self.kodaira,
            "m": self.components,
            "m_simple": self.simple_components,
            "degree": self.degree,
        }


def _minimalize(vc4, vc6, vd):
    """Strip u-transforms (a_i -> u^i a_i shifts orders by (4, 6, 12))."""
    while vc4 >= 4 and vc6 >= 6 and vd >= 12:
        vc4 -= 4
        vc6 -= 6
        vd -= 12
    return vc4, vc6, vd


# the additive types that v(Delta) alone decides: (symbol, m_s, m_s^(1))
_ADDITIVE = {2: ("II", 1, 1), 3: ("III", 2, 2), 4: ("IV", 3, 3),
             8: ("IV*", 7, 3), 9: ("III*", 8, 2), 10: ("II*", 9, 1)}


def kodaira_type(v_c4, v_c6, v_delta, place: str = "?", degree: int = 1) -> FiberData:
    """Characteristic-0 Kodaira classification from minimal vanishing orders."""
    vc4, vc6, vd = _minimalize(v_c4, v_c6, v_delta)
    if vd == 0 or vc4 == 0:
        symbol, m, m1 = f"I{vd}", max(vd, 1), max(vd, 1)
    elif vd == 6 and (vc4 >= 3 or vc6 >= 4):
        symbol, m, m1 = "I0*", 5, 4
    elif (vc4, vc6) == (2, 3) and vd >= 6:
        symbol, m, m1 = f"I{vd - 6}*", vd - 1, 4
    elif vd in _ADDITIVE:
        symbol, m, m1 = _ADDITIVE[vd]
    else:
        raise ValueError(f"inconsistent vanishing orders ({v_c4}, {v_c6}, {v_delta})")
    return FiberData(place, vc4, vc6, vd, symbol, m, m1, degree)


def _order(poly, factor) -> float:
    """Order of vanishing of poly along the irreducible factor; inf for poly = 0."""
    return multiplicity(poly, factor)[0] if poly else math.inf


def finite_fibers(curve: WeierstrassCurveQt) -> List[FiberData]:
    disc, c4, c6 = curve.discriminant()
    _, factors = disc.factor_list()
    out = []
    for f, mult in factors:
        place = format_poly(f)
        out.append(kodaira_type(_order(c4, f), _order(c6, f), mult, place, degree=f.degree()))
    return out


def fiber_at_infinity(curve: WeierstrassCurveQt) -> Optional[FiberData]:
    """Type at t = infinity via t -> 1/t and the weight twist a_i -> t^{m i} a_i(1/t),
    m the least integer with deg a_i <= m i for all i: exponent e goes to m i - e."""
    weighted = list(zip((1, 2, 3, 4, 6), (curve.a1, curve.a2, curve.a3, curve.a4, curve.a6)))
    m = max((-(-a.degree() // i) for i, a in weighted if a), default=0)  # ceil
    R = curve.a1.ring
    twisted = [R({(m * i - e,): c for (e,), c in a.items()}) for i, a in weighted]
    disc, c4, c6 = _discriminant(*twisted)
    t = R.gens[0]
    vd = _order(disc, t)
    if vd == 0:
        return None
    return kodaira_type(_order(c4, t), _order(c6, t), vd, "t = oo")


def all_fibers(curve: WeierstrassCurveQt) -> List[FiberData]:
    out = [f for f in finite_fibers(curve) if f.v_delta > 0]
    inf = fiber_at_infinity(curve)
    if inf is not None:
        out.append(inf)
    return out


def shioda_tate_rho(mw_rank: int, fibers: List[FiberData]) -> int:
    """rho = r + 2 + sum_s (m_s - 1), over geometric fibers (place degree counts)."""
    return mw_rank + 2 + sum(f.degree * (f.components - 1) for f in fibers)


def transcendental_det(fibers: List[FiberData], torsion_order: int) -> Fraction:
    """prod m_s^(1) / torsion^2 over geometric fibers, flagged if non-integral."""
    num = 1
    for f in fibers:
        num *= f.simple_components**f.degree
    d = Fraction(num, torsion_order**2)
    if d.denominator != 1:
        raise ValueError(f"transcendental determinant {d} is not integral")
    return d


class ExcludedDiscriminantError(ValueError):
    pass


def _imaginary_quadratic_field(d: int) -> Tuple[int, int]:
    """(squarefree d, fundamental discriminant d_K of Q(sqrt(-d)))."""
    if d <= 0:
        raise ValueError("determinant must be positive")
    dK = fundamental_discriminant(-d)
    return (-dK // 4 if dK % 4 == 0 else -dK), dK


def _cm_level(d0: int, dK: int) -> int:
    """The level |d_K| of the weight-3 CM newform with rational coefficients of
    K = Q(sqrt(-d0)) (Schuett, "CM newforms with rational coefficients", 2009);
    d_K = -3, -4 are excluded."""
    if dK in (-3, -4):
        raise ExcludedDiscriminantError(
            f"d_K = {dK} is excluded (extra units in Q(sqrt({-d0})))"
        )
    return -dK


@dataclass
class SurfaceInvariants:
    mw_rank: int
    torsion_order: int
    rho: int
    det_T: int
    d: int
    d_K: int
    level: Optional[int]  # None for d_K = -3, -4, which only require_k3=False admits
    fibers: List[FiberData]
    euler_sum: int

    def to_dict(self) -> dict:
        return {
            "mw_rank": self.mw_rank,
            "torsion_order": self.torsion_order,
            "rho": self.rho,
            "detT": self.det_T,
            "d": self.d,
            "d_K": self.d_K,
            "level": self.level,
            "sum_v_delta": self.euler_sum,
            "fibers": [f.to_dict() for f in self.fibers],
        }


def surface_invariants(
    curve: WeierstrassCurveQt,
    mw_rank: int = 0,
    torsion_order: int = 1,
    require_k3: bool = True,
) -> SurfaceInvariants:
    """The invariants of the surface. It must be a singular K3, with Euler number 24 (the
    sum of v(Delta) over the singular fibers) and rho = 20, so a rank-2 transcendental
    lattice, unless ``require_k3=False``, which also admits d_K = -3, -4 with level None."""
    if mw_rank < 0 or torsion_order < 1:
        raise ValueError(
            f"need Mordell-Weil rank >= 0 and torsion order >= 1, got {mw_rank}, {torsion_order}"
        )
    fibers = all_fibers(curve)
    rho = shioda_tate_rho(mw_rank, fibers)
    euler_sum = sum(f.degree * f.v_delta for f in fibers)
    if require_k3 and (euler_sum, rho) != (24, 20):
        raise ValueError(f"not a singular K3 surface: Euler number {euler_sum}, rho = {rho}")
    det = int(transcendental_det(fibers, torsion_order))
    d0, dK = _imaginary_quadratic_field(det)
    level = None if not require_k3 and dK in (-3, -4) else _cm_level(d0, dK)
    return SurfaceInvariants(
        mw_rank=mw_rank,
        torsion_order=torsion_order,
        rho=rho,
        det_T=det,
        d=d0,
        d_K=dK,
        level=level,
        fibers=fibers,
        euler_sum=euler_sum,
    )


def data_dir() -> str:
    env = os.environ.get("REGLAB_DATA_DIR")
    if env:
        return env
    return os.path.join(os.path.dirname(__file__), "data")


def load_curve(path: Optional[str] = None):
    """The shipped pencil (a_i, Mordell-Weil rank, torsion order)."""
    path = path or os.path.join(data_dir(), "k3_curve.json")
    with open(path) as fh:
        doc = json.load(fh)
    curve = WeierstrassCurveQt(doc["a1"], doc["a2"], doc["a3"], doc["a4"], doc["a6"])
    return curve, doc.get("mw_rank", 0), doc.get("torsion_order", 1)
