import functools
import hashlib
import itertools
import json
import math
import os
from fractions import Fraction

import pytest
import sympy

from reglab.k3 import data_dir
from reglab.residues import (
    INFINITY,
    ROOT_OF_UNITY,
    UNDECIDABLE,
    UNKNOWN_NEGATIVE,
    UNKNOWN_POSITIVE,
    DivisorData,
    FunctionRecord,
    B2Residue,
    _restrict_factored,
    certify_all_residues,
    load_divisors,
    residue_43,
    tame_symbol,
)
from reglab.symbolic import (
    B2WedgeElement,
    FactoredElement,
    MultiplicativeBasis,
    WedgeElement,
    build_xi,
    load_decomposition,
    parse_poly,
)
from reglab.symbolic.poly import (
    FracElement,
    format_rational_function,
    rational_field,
    rational_function,
)

S = sympy.Symbol("s")
QS = rational_field("s")


def rec(order, value):
    if value is not None and value is not INFINITY:
        value = rational_function(value, "s")
    return FunctionRecord(order, value)


def test_tame_symbol_spec_cases():
    # both orders 0: exponents vanish
    assert tame_symbol(rec(0, 5), rec(0, 7), QS) == 1
    # f a uniformizer (leading coefficient 1), g restricting to c: 1/c
    assert tame_symbol(rec(1, 1), rec(0, 7), QS) == rational_function("1/7", "s")
    # f = g with order 1: (-1)^{1*1} * 1
    assert tame_symbol(rec(1, 1), rec(1, 1), QS) == -1


def test_tame_symbol_of_two_units_is_the_fields_one():
    # equal results must collapse in a set or a dict key, as residue_43 keys its pairs
    t = tame_symbol(rec(0, 5), rec(0, 7), QS)
    assert isinstance(t, type(QS(1)))
    assert {t, QS(1)} == {QS(1)}
    assert {t: 1, QS(1): 2} == {QS(1): 2}


def test_tame_symbol_antisymmetry():
    cases = [
        (rec(0, 3), rec(2, 5)),
        (rec(1, 2), rec(0, "s + 1")),
        (rec(2, 3), rec(3, 7)),
    ]
    for f, g in cases:
        a = tame_symbol(f, g, QS)
        b = tame_symbol(g, f, QS)
        assert a * b == 1


def test_tame_symbol_bimultiplicative():
    # f1 ~ 2 s, f2 ~ 3 s^2, f1 f2 ~ 6 s^3 against g of order 0
    f1 = rec(1, 2)
    f2 = rec(2, 3)
    g = rec(0, 5)
    f12 = rec(3, 6)
    lhs = tame_symbol(f12, g, QS)
    rhs = tame_symbol(f1, g, QS) * tame_symbol(f2, g, QS)
    assert lhs == rhs


def test_tame_symbol_unknown_order_root_of_unity():
    # other order 0, base value -1: (-1)^(+-k) is a root of unity regardless
    out = tame_symbol(rec(UNKNOWN_POSITIVE, 0), rec(0, -1), QS)
    assert out is ROOT_OF_UNITY
    # base value 2: depends on the unknown order
    out = tame_symbol(rec(UNKNOWN_POSITIVE, 0), rec(0, 2), QS)
    assert out is UNDECIDABLE


_GRID_ORDERS = [-2, -1, 0, 1, 2, UNKNOWN_POSITIVE, UNKNOWN_NEGATIVE]
_GRID_VALUES = [ROOT_OF_UNITY, INFINITY, None] + [
    rational_function(v, "s") for v in ("0", "1", "-1", "2", "-3", "s - 1", "1/(s + 1)")
]
_UNRECORDED = [rational_function(v, "s") for v in ("2", "-1/3")]
_UNITS = [rational_function(v, "s") for v in ("1", "-1")]


def _grid_records():
    """Every record FunctionRecord accepts with an order and a value from the grid."""
    out = []
    for order in _GRID_ORDERS:
        for value in _GRID_VALUES:
            try:
                out.append(FunctionRecord(order, value))
            except ValueError:
                pass
    return out


def _admissible(record):
    """(order, leading value) pairs the record allows: orders 1..3 or -3..-1 for an
    unknown order, +-1 for the root-of-unity marker, a few rationals for an unrecorded
    leading coefficient."""
    orders = {UNKNOWN_POSITIVE: [1, 2, 3], UNKNOWN_NEGATIVE: [-3, -2, -1]}
    v = record.value
    if v is ROOT_OF_UNITY:
        values = _UNITS
    elif v is None or v is INFINITY or v == 0:
        values = _UNRECORDED
    else:
        values = [v]
    return [(o, x) for o in orders.get(record.order, [record.order]) for x in values]


@functools.lru_cache(maxsize=None)
def _defined_tame_symbol(m, f, n, g):
    """(-1)^(mn) f^n / g^m for integer orders m, n and leading values f, g."""
    value = f**n if n >= 0 else 1 / f**-n
    value = value / g**m if m >= 0 else value * g**-m
    return -value if (m * n) % 2 else value


def test_tame_symbol_against_its_definition():
    # T{f, g} = (-1)^(mn) f^n / g^m on leading values, m = ord f and n = ord g, under
    # every admissible choice of what the records leave unknown
    grid = [(r, _admissible(r)) for r in _grid_records()]
    assert len(grid) == 61
    verdicts = set()
    for f, f_choices in grid:
        for g, g_choices in grid:
            t = tame_symbol(f, g, QS)
            verdicts.add(t if t is ROOT_OF_UNITY or t is UNDECIDABLE else "value")
            defined = {
                _defined_tame_symbol(m, fv, n, gv) for m, fv in f_choices for n, gv in g_choices
            }
            if t is ROOT_OF_UNITY:
                assert defined <= set(_UNITS), (f, g)
            elif t is UNDECIDABLE:  # some admissible choice is not a root of unity
                assert not defined <= set(_UNITS), (f, g)
            else:
                assert all(d == t for d in defined), (f, g, t)
    assert verdicts == {ROOT_OF_UNITY, UNDECIDABLE, "value"}


def _xi():
    doc = load_decomposition(os.path.join(data_dir(), "decomposition_n4.json"))
    xi, _, _ = build_xi(doc)
    return xi


def _divisors():
    return load_divisors(os.path.join(data_dir(), "divisors_n4.json"))


def test_residue_steinberg_kill():
    # x = 0 on the divisor makes {-x}_2 = {0}_2 = 0 for the first term,
    # and the constructed records make the rest trivial too
    xi = _xi()
    d = DivisorData(
        "test",
        "s",
        {
            "x": rec(0, -1),
            "y": rec(0, -1),
            "z": rec(0, "s - 1"),
        },
    )
    res = residue_43(xi, d)
    assert not res.terms
    assert not res.undecidable


def test_all_shipped_certificates_trivial():
    xi = _xi()
    report = certify_all_residues(xi, _divisors())
    assert report["overall"] == "trivial"
    assert len(report["divisors"]) == 48
    for cert in report["divisors"]:
        assert cert["verdict"] == "trivial"
        assert cert["reasons"], cert["divisor"]
        assert set(cert["reasons"]) <= {
            "steinberg_degenerate",
            "torsion_tensor_factor",
            "exact_cancellation",
        }


def test_nontrivial_control_case():
    # {s}_2 (x) T{x, z} with ord x = 1, z = 2: residue survives
    xi = _xi()
    d = DivisorData(
        "control",
        "s",
        {
            "x": rec(1, 0),
            "y": rec(0, "s"),
            "z": rec(0, 2),
        },
    )
    report = certify_all_residues(xi, [d])
    assert report["overall"] == "nontrivial"


def test_residue_linearity():
    xi = _xi()
    xi2 = xi.scale(Fraction(3))
    d = DivisorData(
        "lin",
        "s",
        {
            "x": rec(1, 0),
            "y": rec(0, "s"),
            "z": rec(0, 2),
        },
    )
    r1 = residue_43(xi, d)
    r3 = residue_43(xi2, d)
    t1 = {(str(a), str(t)): c for c, a, t in r1.terms}
    t3 = {(str(a), str(t)): c for c, a, t in r3.terms}
    assert set(t1) == set(t3)
    for k in t1:
        assert t3[k] == 3 * t1[k]


def test_zero_xi_trivial():
    xi = _xi()
    zero = xi - xi
    report = certify_all_residues(zero, _divisors())
    assert report["overall"] == "trivial"


def test_missing_function_record_errors():
    xi = _xi()
    d = DivisorData("incomplete", "s", {"x": rec(0, 2)})
    with pytest.raises(KeyError):
        residue_43(xi, d)


def _one_divisor(functions, parameter="s"):
    return load_divisors([{"name": "d", "parameter": parameter, "functions": functions}])[0]


def test_divisor_loader_validates():
    with pytest.raises((ValueError, KeyError)):
        load_divisors([{"name": "bad", "parameter": "s", "functions": {"x": {"order": "weird", "value": "1"}}}])
    contradictory = [
        (0, "inf"),  # order 0 at a pole
        (0, "0"),  # order 0 at a zero
        (2, "inf"),  # a zero recorded as a pole
        (-1, "0"),  # a pole recorded as a zero
        (UNKNOWN_POSITIVE, "inf"),
        (UNKNOWN_NEGATIVE, "0"),
        (0, "sqrt(2)"),  # outside QQ(s)
        (0, "s + t"),  # two parameters
        (0, "t"),  # not the divisor's parameter
        (0, "exp(s)"),
        (0, "0.5"),  # a decimal, not an exact value
        (0, "s**2"),  # the grammar's power is ^
        (0, "0^-1"),
        (0, "1/0"),
        (1.5, "2"),  # order neither an integer nor a tag
    ]
    for order, value in contradictory:
        with pytest.raises(ValueError):
            _one_divisor({"x": {"order": order, "value": value}})
    with pytest.raises(ValueError):
        FunctionRecord(0, sympy.Float(0.5))
    with pytest.raises(ValueError):
        FunctionRecord(0, INFINITY)
    with pytest.raises(ValueError):
        FunctionRecord(0, S)  # a sympy expression, not an element of QQ(s)
    with pytest.raises(ValueError):
        DivisorData("d", "u", {"x": rec(0, "s")})
    # the unknown-order records of the shipped data, and a positive order
    # whose leading coefficient is not recorded, are consistent
    d = _one_divisor(
        {
            "x": {"order": UNKNOWN_POSITIVE, "value": "0"},
            "y": {"order": UNKNOWN_NEGATIVE, "value": "inf"},
            "z": {"order": 0, "value": "-(s + 1)/s"},
        }
    )
    assert d.records["y"].value is INFINITY
    assert str(d.records["z"].value) == "(-s - 1)/s"
    # negative powers and quotients are the field's division
    s = rational_field("s").gens[0]
    field_values = [
        ("s^-1", 1 / s),
        ("(s+1)^-2", 1 / (s + 1) ** 2),
        ("(s-1)/(s+1)", (s - 1) / (s + 1)),
    ]
    for text, value in field_values:
        assert _one_divisor({"x": {"order": 0, "value": text}}).records["x"].value == value
    assert rec(1, 0).value == 0
    assert rec(1, 1).value == 1


def test_shipped_values_parse_as_sympy_reads_them():
    # sympy is only the reference here: each value string of the shipped records
    # parses to the element that sympify and from_expr give; "inf" is the pole marker
    with open(os.path.join(data_dir(), "divisors_n4.json")) as fh:
        texts = {r["value"] for d in json.load(fh) for r in d["functions"].values()}
    assert len(texts) == 6 and "inf" in texts
    field = rational_field("s")
    for text in sorted(texts - {"inf"}):
        assert rational_function(text, "s") == field.from_expr(sympy.sympify(text))


def test_loader_shares_one_record_per_distinct_string():
    divisors = _divisors()
    records = {id(r) for d in divisors for r in d.records.values()}
    strings = {
        (d.parameter, r.order, str(r.value)) for d in divisors for r in d.records.values()
    }
    assert len(records) == len(strings) == 6


# -- hand-made elements over the basis x, y, z ----------------------------------------

_BASIS = MultiplicativeBasis([parse_poly(v, ["x", "y", "z"]) for v in "xyz"], ["x", "y", "z"])


def _element(exps, wedge):
    """{f}_2 (x) g ^ h, f = prod basis_i^e_i, wedge a pair of basis indices."""
    xi = B2WedgeElement(_BASIS, 2)
    labels = tuple(("b", i) for i in wedge)
    xi.add_term(1, FactoredElement(_BASIS, 1, exps), WedgeElement(_BASIS, 2, {labels: 1}))
    return xi


def _verdict(xi, records):
    cert = certify_all_residues(xi, [DivisorData("d", "s", records)])["divisors"][0]
    return cert["verdict"], cert["terms"][0].get("why")


def test_cancelling_orders_with_unrecorded_leading_value_undecidable():
    # f = y/x with ord x = ord y = 1: f(p) is finite and nonzero, but the
    # leading coefficients are not recorded, so {f(p)}_2 (x) T{x, z} is unknown
    xi = _element({1: 1, 0: -1}, (0, 2))
    lead_unknown = {"x": rec(1, 0), "y": rec(1, 0)}
    verdict, why = _verdict(xi, {**lead_unknown, "z": rec(0, 2)})
    assert verdict == "undecidable"
    assert why == "f(p) is finite and nonzero but its value is not recorded"
    # with T{x, z} = 1/(-1) the term is torsion whatever f(p) is
    verdict, _ = _verdict(xi, {**lead_unknown, "z": rec(0, -1)})
    assert verdict == "trivial"
    # recorded leading coefficients 3 and 6 give f(p) = 2: nontrivial
    report = certify_all_residues(
        xi,
        [
            DivisorData(
                "d",
                "s",
                {
                    "x": rec(1, 3),
                    "y": rec(1, 6),
                    "z": rec(0, 2),
                },
            )
        ],
    )
    assert report["divisors"][0]["residue"] == [["-1", "1/2", "1/2"]]


def test_root_of_unity_factor_of_f_undecidable():
    # f = x restricts to an unknown root of unity; T{y, z} = 1/2
    xi = _element({0: 1}, (1, 2))
    records = {
        "x": FunctionRecord(0, ROOT_OF_UNITY),
        "y": rec(1, 1),
        "z": rec(0, 2),
    }
    verdict, why = _verdict(xi, records)
    assert verdict == "undecidable"
    assert why == "f(p) is finite and nonzero but its value is not recorded"


def test_undetermined_order_of_f_undecidable():
    # f = x/y with both orders positive but unknown: f(p) may be 0, finite or infinite
    xi = _element({0: 1, 1: -1}, (0, 2))
    records = {"x": rec(UNKNOWN_POSITIVE, 0), "y": rec(UNKNOWN_POSITIVE, 0), "z": rec(0, 2)}
    verdict, why = _verdict(xi, records)
    assert verdict == "undecidable"
    assert why == "order of f along the component is not determined"


def test_tame_symbol_of_an_unknown_order_undecidable():
    # f = z restricts to 2; T{x, y} = y^ord(x) needs ord x, which is only known positive
    xi = _element({2: 1}, (0, 1))
    records = {"x": rec(UNKNOWN_POSITIVE, 0), "y": rec(0, 2), "z": rec(0, 2)}
    verdict, why = _verdict(xi, records)
    assert verdict == "undecidable"
    assert why == "tame symbol depends on an unknown order"


def test_loader_reads_a_root_of_unity_and_a_missing_value():
    d = _one_divisor({"x": {"order": 0, "value": "root_of_unity"}, "y": {"order": 1}})
    assert d.records["x"] == FunctionRecord(0, ROOT_OF_UNITY)
    assert d.records["y"] == FunctionRecord(1, None)


# records for the definition test of _restrict_factored: every kind of order, with a
# recorded and an unrecorded leading coefficient
_RESTRICT_RECORDS = [
    rec(-2, "2*s"),
    rec(-1, INFINITY),
    FunctionRecord(0, ROOT_OF_UNITY),
    rec(0, "s + 1"),
    rec(1, 0),
    rec(2, "-3"),
    rec(UNKNOWN_POSITIVE, 0),
    rec(UNKNOWN_NEGATIVE, INFINITY),
]
_SUBSTITUTES = {UNKNOWN_POSITIVE: (1, 2, 3), UNKNOWN_NEGATIVE: (-3, -2, -1)}


def test_restrict_factored_against_its_definition():
    # ord_p(c prod f_i^e_i) = sum e_i ord f_i, and at order 0 the value is c prod
    # value_i^e_i, under every order 1..3 or -3..-1 the unknown-order tags allow
    names = ["x", "y", "z"]
    verdicts = set()
    for k in (1, 2, 3):
        for records in itertools.combinations_with_replacement(_RESTRICT_RECORDS, k):
            divisor = DivisorData("d", "s", dict(zip(names, records)))
            for exps in itertools.product((-2, -1, 1, 2), repeat=k):
                f = FactoredElement(_BASIS, Fraction(-3, 2), dict(enumerate(exps)))
                order, value = _restrict_factored(f, divisor)
                choices = [_SUBSTITUTES.get(r.order, (r.order,)) for r in records]
                sums = {
                    sum(o * e for o, e in zip(orders, exps))
                    for orders in itertools.product(*choices)
                }
                case = (records, exps)
                if order is UNDECIDABLE:
                    verdicts.add("undecidable")
                elif order in (UNKNOWN_POSITIVE, UNKNOWN_NEGATIVE):
                    verdicts.add(order)
                    sign = 1 if order == UNKNOWN_POSITIVE else -1
                    assert all(x * sign > 0 for x in sums), case
                else:
                    verdicts.add("nonzero" if order else "value" if value is not None else "zero")
                    assert sums == {order}, case
                if value is not None:
                    assert order == 0, case
                    want = QS(Fraction(-3, 2)) * math.prod(
                        r.value**e if e > 0 else 1 / r.value**-e for r, e in zip(records, exps)
                    )
                    assert value == want, case
                elif order == 0:  # a leading coefficient the value needs is not recorded
                    assert any(not isinstance(r.value, FracElement) or r.value == 0
                               for r in records), case
    assert verdicts == {
        "undecidable", UNKNOWN_POSITIVE, UNKNOWN_NEGATIVE, "nonzero", "zero", "value"
    }
    # a known part of -1 and an unknown positive order at exponent 2 stay undecided,
    # although their sum is at least 1
    divisor = DivisorData("d", "s", {"x": rec(1, 0), "y": rec(UNKNOWN_POSITIVE, 0)})
    f = FactoredElement(_BASIS, 1, {0: -1, 1: 2})
    assert _restrict_factored(f, divisor) == (UNDECIDABLE, None)


def test_tame_symbol_unrecorded_pole_coefficient():
    # infinity on a negative order marks an unrecorded leading coefficient
    assert tame_symbol(rec(-1, INFINITY), rec(-1, INFINITY), QS) is UNDECIDABLE
    assert tame_symbol(rec(-1, INFINITY), rec(0, 5), QS) == 5


# -- canonical form -------------------------------------------------------------------

# sha256 of the shipped report, taken before values were kept in cancelled form
SHIPPED_REPORT_SHA256 = "c162d43f180d714e86bc2721bfacc9cf82c867c75102893dcb41bf0175dee36e"


def test_shipped_report_pinned():
    report = certify_all_residues(_xi(), _divisors())
    blob = json.dumps(report, sort_keys=True, default=str).encode()
    assert hashlib.sha256(blob).hexdigest() == SHIPPED_REPORT_SHA256


# (records of x, y, z along one divisor, the residue the document prints)
CONTROL_CASES = [
    (
        {"x": (0, "(s + 1)/s"), "y": (1, "s - 1"), "z": (0, "-s")},
        [["1", "(-s - 1)/s", "-1/s"], ["-1", "1/s", "(s + 1)/s"]],
    ),
    (
        {"x": (1, 0), "y": (0, "s"), "z": (0, 2)},
        [["1", "-1/s", "1/2"], ["-1", "-1/2", "1/s"]],
    ),
    (
        {"x": (0, "s"), "y": (0, "s^2 - 1"), "z": (1, 3)},
        [["-1", "-1/s", "s^2 - 1"], ["1", "-1/(s^2 - 1)", "s"]],
    ),
    (
        {"x": (0, "-(s + 1)/s"), "y": (2, "s - 1"), "z": (-1, "2*s")},
        [["1", "(s + 1)/s", "1/(4*s^3 - 4*s^2)"]],
    ),
]


def _control(records):
    return DivisorData("control", "s", {k: rec(o, v) for k, (o, v) in records.items()})


@pytest.mark.parametrize("records, residue", CONTROL_CASES)
def test_control_residues_pinned(records, residue):
    cert = certify_all_residues(_xi(), [_control(records)])["divisors"][0]
    assert cert["verdict"] == "nontrivial"
    assert cert["residue"] == residue


@pytest.mark.parametrize("records", [records for records, _ in CONTROL_CASES])
def test_residue_document_values_parse_back(records):
    """Each QQ(s) value the certificate prints is read back by rational_function as the
    element it prints: the residue pairs against residue_43's elements, and every pair
    of the trace prints again as the same string."""
    d = _control(records)
    cert = certify_all_residues(_xi(), [d])["divisors"][0]
    parsed = [
        (Fraction(c), rational_function(a, "s"), rational_function(t, "s"))
        for c, a, t in cert["residue"]
    ]
    assert parsed == residue_43(_xi(), d).terms
    pairs = [text for entry in cert["terms"] for text in entry.get("pair", [])]
    assert pairs
    assert [format_rational_function(rational_function(text, "s")) for text in pairs] == pairs
