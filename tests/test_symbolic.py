import gc
import json
import os
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from reglab.k3 import data_dir
from reglab.symbolic import (
    B2WedgeElement,
    MultiplicativeBasis,
    NotFactorable,
    ParseError,
    apply_tau,
    build_xi,
    check_decomposition,
    eval_poly,
    factor_over_basis,
    format_poly,
    load_decomposition,
    multiplicity,
    parse_poly,
    poly_ring,
    split_laurent,
    wedge_normalize,
)
from reglab.symbolic.poly import rational_function

VARS3 = ["x", "y", "z"]


def test_parse_roundtrip():
    p = parse_poly("(1+x)*(1+y)*(1+z)+t", ["x", "y", "z", "t"])
    q = parse_poly("1 + x + y + z + x*y + x*z + y*z + x*y*z + t", ["x", "y", "z", "t"])
    assert p == q


def test_parse_rational_and_power():
    p = parse_poly("3/2*x^2 - x + 1/2", ["x"])
    assert eval_poly(p, {"x": Fraction(2)}) == Fraction(3, 2) * 4 - 2 + Fraction(1, 2)
    # '/' is the ring's exact division
    assert parse_poly("(x^2-1)/(x-1)", ["x"]) == parse_poly("x + 1", ["x"])


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_poly("1 + * x", ["x"])
    with pytest.raises(ParseError):
        parse_poly("w + 1", ["x"])
    with pytest.raises(ParseError):
        parse_poly("1/0", ["x"])
    with pytest.raises(ParseError):
        parse_poly("x/y", ["x", "y"])  # not exact


_TOKENS = ["x", "y", "s", "0", "1", "2", "+", "-", "*", "/", "^", "^-", "(", ")", ".", " "]


@given(st.lists(st.sampled_from(_TOKENS), min_size=1, max_size=9).map("".join))
@settings(max_examples=300, deadline=None)
def test_malformed_input_raises_only_parse_error(text):
    # ring or field, a bad quotient, 0^-1 or a bad power is a ParseError, not a
    # ZeroDivisionError, ExactQuotientFailed or TypeError from the domain
    for parse in (lambda t: parse_poly(t, ["x", "y"]), lambda t: rational_function(t, "s")):
        try:
            parse(text)
        except ParseError:
            pass


def test_laurent_terms():
    p = parse_poly("x^-1 + x", ["x"])
    assert min(e for (e,) in p.itermonoms()) == -1
    num, den = split_laurent(p)
    assert num == parse_poly("1 + x^2", ["x"])
    assert den == parse_poly("x", ["x"])


@st.composite
def sparse_laurent_polys(draw):
    terms = {}
    for _ in range(draw(st.integers(0, 5))):
        e = tuple(draw(st.integers(-3, 3)) for _ in VARS3)
        terms[e] = Fraction(draw(st.integers(-9, 9)), draw(st.integers(1, 4)))
    return poly_ring(VARS3)(terms)


@given(sparse_laurent_polys())
@settings(max_examples=200, deadline=None)
def test_printer_parser_roundtrip(p):
    assert parse_poly(format_poly(p), VARS3) == p


def _basis(entries, variables):
    return MultiplicativeBasis([parse_poly(e, variables) for e in entries], variables)


def test_basis_names_are_printed_with_carets():
    # basis names key the divisor records, so the printer's form is part of the format
    assert _basis(["x^2 + x + 1"], ["x", "y"]).names == ["x^2 + x + 1"]
    assert _basis(["1+x", "y"], ["x", "y"]).names == ["x + 1", "y"]


@pytest.mark.parametrize(
    "entries, reason",
    [
        (["3"], "non-constant"),
        (["x^-1 + 1"], "must be polynomials"),
        (["x^2 - 1"], "factors over Q"),
        (["y^2 + 2*y + 1"], "factors over Q"),
        (["x", "2*x"], "associates or nested"),
        (["x", "x*y + x"], "associates or nested"),
        # no entry divides another, yet b0 * b1 = b2 * b3
        (["(x+1)*(y+1)", "(x+2)*(y+2)", "(x+1)*(y+2)", "(x+2)*(y+1)"], "factors over Q"),
    ],
)
def test_basis_rejects_constant_laurent_reducible_and_nested_entries(entries, reason):
    with pytest.raises(ValueError, match=reason):
        _basis(entries, ["x", "y"])


def test_factor_over_basis_flagship():
    basis = _basis(["x", "y", "z", "1+x", "1+y", "1+z"], VARS3)
    t = parse_poly("-(1+x)*(1+y)*(1+z)", VARS3)
    fe = factor_over_basis(t, basis)
    assert fe.const == -1
    num, den = fe.expand()
    assert num == t * den
    # a Laurent monomial denominator factors over the basis too
    laurent = parse_poly("-2*x^-2*y^-1*(1+x)^3", VARS3)
    fe = factor_over_basis(laurent, basis)
    assert (fe.const, fe.exps) == (-2, {0: -2, 1: -1, 3: 3})
    with pytest.raises(NotFactorable):
        factor_over_basis(parse_poly("1+x+y", VARS3), basis)


def test_multiplicity_counts_a_factor_by_exact_division():
    p = parse_poly("3*x^2*(1+x)^3*(1+y)", ["x", "y"])
    for factor, k in [("1+x", 3), ("x", 2), ("1+y", 1), ("1+x+y", 0), ("(1+x)^2", 1)]:
        f = parse_poly(factor, ["x", "y"])
        got, rest = multiplicity(p, f)
        assert got == k and rest * f**k == p, factor
    # every power of f divides 0, and every power of a constant divides p
    for p, f in [("0", "x"), ("x", "3")]:
        with pytest.raises(ValueError):
            multiplicity(parse_poly(p, ["x"]), parse_poly(f, ["x"]))


def test_factored_inverse_and_pow():
    basis = _basis(["x", "1+x"], ["x"])
    fe = factor_over_basis(parse_poly("x^2", ["x"]), basis)
    inv = fe.inverse()
    num, den = (fe * inv).expand()
    assert num == den


def test_wedge_antisymmetry():
    basis = _basis(["x", "y", "1+x", "1+y"], ["x", "y"])
    x = factor_over_basis(parse_poly("x", ["x", "y"]), basis)
    y = factor_over_basis(parse_poly("y", ["x", "y"]), basis)
    w1 = wedge_normalize([(Fraction(1), [x, y])], basis)
    w2 = wedge_normalize([(Fraction(1), [y, x])], basis)
    assert (w1 + w2).is_zero()
    # f ^ f = 0
    assert wedge_normalize([(Fraction(1), [x, x])], basis).is_zero()


def test_wedge_multilinearity():
    basis = _basis(["x", "y", "1+x", "1+y"], ["x", "y"])
    x = factor_over_basis(parse_poly("x", ["x", "y"]), basis)
    y = factor_over_basis(parse_poly("y", ["x", "y"]), basis)
    xy = factor_over_basis(parse_poly("x*y", ["x", "y"]), basis)
    lhs = wedge_normalize([(Fraction(1), [xy, y])], basis)
    rhs = wedge_normalize([(Fraction(1), [x, y])], basis)
    assert lhs == rhs  # (xy) ^ y = x ^ y + y ^ y = x ^ y


def test_wedge_expansion_frees_its_terms_without_the_cycle_collector():
    # a nested function that calls itself is a reference cycle: every expansion
    # would be left for the cyclic collector
    basis = _basis(["x", "y", "1+x", "1+y"], ["x", "y"])
    x, y, xy = (factor_over_basis(parse_poly(s, ["x", "y"]), basis) for s in ("x", "y", "x*y"))
    gc.collect()
    gc.disable()
    try:
        for _ in range(100):
            wedge_normalize([(Fraction(3), [xy, y]), (Fraction(-1), [x, xy])], basis)
        assert gc.collect() == 0
    finally:
        gc.enable()


def _load(n):
    name = f"decomposition_n{n}.json"
    return load_decomposition(os.path.join(data_dir(), name))


def test_decomposition_n4_exact():
    doc = _load(4)
    equal, diff = check_decomposition(doc)
    assert equal, str(diff)


def test_decomposition_n3_exact():
    doc = _load(3)
    equal, diff = check_decomposition(doc)
    assert equal, str(diff)


def test_decomposition_corruption_detected():
    doc = _load(4)
    import json

    with open(os.path.join(data_dir(), "decomposition_n4.json")) as fh:
        raw = json.load(fh)
    raw["terms"][0][0] = 2  # corrupt one coefficient
    bad = load_decomposition(raw)
    equal, diff = check_decomposition(bad)
    assert not equal
    assert not diff.is_zero()


def test_build_xi_refuses_a_decomposition_that_does_not_hold():
    with open(os.path.join(data_dir(), "decomposition_n4.json")) as fh:
        raw = json.load(fh)
    raw["terms"][0][0] = 2  # corrupt one coefficient
    with pytest.raises(ValueError, match="decomposition does not hold"):
        build_xi(load_decomposition(raw))


def test_xi_tau_symmetry_n4():
    doc = _load(4)
    xi, xi_star, lam = build_xi(doc)
    # tau pullback acts as -1 on the n = 4 cocycle
    assert (xi + xi_star).is_zero()
    assert lam == xi
    # involution
    assert apply_tau(xi_star) == xi


def test_build_xi_keeps_no_reference_to_the_basis():
    # apply_tau must not hold the basis (or anything built on it) once the
    # caller drops the document and xi
    doc = _load(4)
    xi = build_xi(doc)
    basis = weakref.ref(doc.basis)
    del doc, xi
    gc.collect()
    assert basis() is None


def test_xi_tau_symmetry_n3():
    doc = _load(3)
    xi, xi_star, lam = build_xi(doc)
    assert xi_star == xi
    assert lam == xi


def test_b2_inversion_relation():
    # {1/f}_2 = -{f}_2 under the canonical-representative normalization
    doc = _load(4)
    basis = doc.basis
    fe = factor_over_basis(parse_poly("x", doc.variables), basis)
    ge = factor_over_basis(parse_poly("y", doc.variables), basis)
    w = wedge_normalize([(Fraction(1), [ge])], basis)
    e1 = B2WedgeElement(basis, 1)
    e1.add_term(Fraction(1), fe, w)
    e2 = B2WedgeElement(basis, 1)
    e2.add_term(Fraction(1), fe.inverse(), w)
    assert (e1 + e2).is_zero()
