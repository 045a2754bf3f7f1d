import math
import random
from fractions import Fraction

import mpmath
import pytest

from reglab.lattice import (
    RelationReport,
    find_integer_relation,
    lll_reduce,
    lovasz_holds,
)
from reglab.numerics import HPReal


def test_identity_fixed_point():
    I = [[1, 0], [0, 1]]
    assert lll_reduce(I) == I


def test_dim2_shear_example():
    B = [[1, 0], [10, 1]]
    red = lll_reduce(B)
    assert B == [[1, 0], [10, 1]]  # the input rows are left as they were
    l1 = 1  # the rows span Z^2
    first = sum(x * x for x in red[0])
    assert first <= 2 * l1
    assert lovasz_holds(red)


def test_dependent_rows_rejected():
    with pytest.raises(ValueError):
        lll_reduce([[1, 2], [2, 4]])


@pytest.mark.parametrize(
    "rows, reason",
    [
        ([], "empty"),
        ([[1, 0], [0]], "ragged"),
        ([[1.5, 0], [0, 1]], "integers"),
        ([[1, 0], [0, 1.0]], "integers"),
        ([[Fraction(1, 2), 0], [0, 1]], "integers"),
    ],
)
def test_malformed_rows_rejected(rows, reason):
    # a fractional entry used to be truncated silently by int()
    for check in (lll_reduce, lovasz_holds):
        with pytest.raises(ValueError, match=reason):
            check(rows)


def test_golden_ratio_relation():
    with mpmath.mp.workprec(150):
        phi = (1 + mpmath.sqrt(5)) / 2
        rep = find_integer_relation([mpmath.mpf(1), phi, phi**2], 10, 30)
    assert rep is not None
    assert rep.coefficients == [1, 1, -1]
    assert rep.confidence >= 5


def test_pi_relation():
    with mpmath.mp.workprec(150):
        rep = find_integer_relation([mpmath.pi, mpmath.pi / 3], 10, 30)
    assert rep.coefficients == [1, -3]


def test_relation_accepts_hpreal():
    vals = [HPReal("1.0", 30), HPReal("0.5", 30)]
    rep = find_integer_relation(vals, 10, 25)
    assert rep.coefficients == [1, -2]


def test_insufficient_precision_refused():
    with pytest.raises(ValueError):
        find_integer_relation([1.0, 0.5], max_height=10**20, prec=10)


def test_planted_relations_recovered():
    rng = random.Random(7)
    with mpmath.mp.workprec(200):
        for _ in range(60):
            k = rng.randint(3, 5)
            w = [mpmath.mpf(rng.random()) for _ in range(k - 1)]
            c = [rng.randint(-30, 30) for _ in range(k - 1)]
            noise = mpmath.mpf(rng.random()) * mpmath.mpf(10) ** -25
            v = sum(ci * wi for ci, wi in zip(c, w)) + noise
            rep = find_integer_relation(w + [v], 30, 30)
            assert rep is not None
            want = c + [-1]
            assert rep.coefficients in (want, [-x for x in want])


def test_no_false_positives_on_random_reals():
    rng = random.Random(99)
    with mpmath.mp.workprec(200):
        for _ in range(40):
            vals = [mpmath.mpf(rng.random()) for _ in range(4)]
            assert find_integer_relation(vals, 100, 30) is None


def test_report_residual_consistent():
    with mpmath.mp.workprec(150):
        phi = (1 + mpmath.sqrt(5)) / 2
        vals = [mpmath.mpf(1), phi, phi**2]
        rep = find_integer_relation(vals, 10, 30)
        recomputed = abs(sum(c * v for c, v in zip(rep.coefficients, vals)))
    assert abs(rep.residual - float(recomputed)) <= 1e-25


def test_exact_relation_has_finite_confidence():
    # the residual is exactly 0; the confidence is floored at the working resolution
    rep = find_integer_relation(["1", "2", "3"], 10, 30)
    assert rep.coefficients == [1, 1, -1]
    assert rep.residual == 0.0
    assert math.isfinite(rep.confidence) and rep.confidence > 30
