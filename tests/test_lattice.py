import math
import random
from fractions import Fraction

import mpmath
import pytest

from reglab import lattice
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


def _textbook_lll(rows):
    """LLL with delta = 3/4 as in Hoffstein, Pipher and Silverman, "An Introduction
    to Mathematical Cryptography", 2008, Fig. 6.7: b_k -= round(mu_kj) b_j for j from
    k - 1 down, then the Lovasz test, with the rational Gram-Schmidt recomputed
    after every change of the basis."""
    b = [list(r) for r in rows]

    def gram_schmidt():
        bstar, mu = [], [[Fraction(0)] * len(b) for _ in b]
        for i, v in enumerate(b):
            w = [Fraction(x) for x in v]
            for j in range(i):
                mu[i][j] = sum(x * y for x, y in zip(v, bstar[j])) / sum(y * y for y in bstar[j])
                w = [x - mu[i][j] * y for x, y in zip(w, bstar[j])]
            bstar.append(w)
        return [sum(x * x for x in w) for w in bstar], mu

    k = 1
    norms, mu = gram_schmidt()
    while k < len(b):
        for j in range(k - 1, -1, -1):
            q = round(mu[k][j])
            if q:
                b[k] = [x - q * y for x, y in zip(b[k], b[j])]
                norms, mu = gram_schmidt()
        if norms[k] >= (Fraction(3, 4) - mu[k][k - 1] ** 2) * norms[k - 1]:
            k += 1
        else:
            b[k - 1], b[k] = b[k], b[k - 1]
            norms, mu = gram_schmidt()
            k = max(k - 1, 1)
    return b


def _random_lattice(rng):
    n = rng.randint(2, 5)
    if rng.random() < 0.5:
        # a relation lattice: a scaled column beside an identity block
        scale = 10 ** rng.randint(2, 6)
        return [[rng.randint(-scale, scale)] + [int(i == j) for j in range(n)] for i in range(n)]
    width = n + rng.randint(0, 2)
    return [
        [rng.randint(-(10 ** rng.randint(1, 5)), 10 ** rng.randint(1, 5)) for _ in range(width)]
        for _ in range(n)
    ]


def test_lll_reduce_equals_a_textbook_rational_lll():
    rng = random.Random(23)
    checked = 0
    while checked < 200:
        rows = _random_lattice(rng)
        try:
            got = lll_reduce(rows)
        except ValueError:  # linearly dependent rows
            continue
        assert got == _textbook_lll(rows), rows
        checked += 1


def test_lll_reduce_runs_the_rational_gram_schmidt_once(monkeypatch):
    # the planted [7, 42, 48] among -6 L'(f7,-1) - (48/7) zeta'(-2), L'(f7,-1) and
    # zeta'(-2) at 30 digits: 27 swaps, after none of which the Gram-Schmidt data is
    # rebuilt; the one rational Gram-Schmidt is the final Lovasz check
    calls = []
    gram_schmidt = lattice._gram_schmidt

    def counting(rows):
        calls.append(len(rows))
        return gram_schmidt(rows)

    monkeypatch.setattr(lattice, "_gram_schmidt", counting)
    with mpmath.mp.workprec(160):
        lp = mpmath.mpf("-0.0658960685455823964175419901205245779387630125")
        zp = mpmath.zeta(-2, derivative=1)
        value = -6 * lp - mpmath.mpf(48) / 7 * zp
        rep = find_integer_relation([value, lp, zp], 64, 30)
    assert rep.coefficients == [7, 42, 48]
    assert calls == [3]
