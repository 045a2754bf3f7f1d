"""Tame symbols and residues of B2-wedge elements along divisors.

The residue of {f}_2 (x) g ^ h along a codimension-one point p is
{f(p)}_2 (x) T_p{g, h}, where T_p is the tame symbol. Working modulo
torsion, a residue term is trivial as soon as f(p) lies in {0, 1, infinity}
(Steinberg degeneracy) or the tame symbol is a root of unity. Divisor data
records the order and leading restriction of each relevant function along
each component; orders along blown-up components may be recorded only as
"positive but unknown", and triviality is concluded only when the verdict
does not depend on the exact order.

Every recorded value is an element of QQ(s), s the component's parameter,
kept in the cancelled form of ``sympy.cancel``. That form is unique, so
two values are equal exactly when their ``sstr`` strings are, and the
residue pairs are collected under those strings. Records that contradict
themselves are rejected with ``ValueError``: order 0 with value 0 or
infinity, a positive order with value infinity, a negative order with
value 0, or a value outside QQ(s) (an irrational constant, a float, a
second symbol).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Tuple, Union

import sympy

from .symbolic import B2WedgeElement, FactoredElement

UNKNOWN_POSITIVE = "unknown_positive"
UNKNOWN_NEGATIVE = "unknown_negative"


class _Marker:
    """A named stand-in, compared by identity: ROOT_OF_UNITY, a root of unity whose
    exact value may be order-dependent, or UNDECIDABLE."""

    def __init__(self, name: str):
        self.name = name

    def __repr__(self):
        return self.name


ROOT_OF_UNITY = _Marker("root_of_unity")
UNDECIDABLE = _Marker("undecidable")

_INF = sympy.zoo


def _is_root_of_unity(v) -> bool:
    if v is ROOT_OF_UNITY:
        return True
    if isinstance(v, sympy.Expr):
        return v in (sympy.Integer(1), sympy.Integer(-1))
    return v in (1, -1)


def _cancelled(value: sympy.Expr) -> sympy.Expr:
    """``value`` in cancelled form; ValueError unless it lies in QQ(s) for one symbol s."""
    if value.is_Rational:
        return value
    symbols = value.free_symbols
    if len(symbols) > 1 or value.has(sympy.Float):
        raise ValueError(f"value {value} is not a rational function of one parameter over QQ")
    domain = sympy.QQ.frac_field(*symbols) if symbols else sympy.QQ
    try:
        domain.from_sympy(value)
    except (ValueError, sympy.CoercionFailed):
        raise ValueError(f"value {value} is not a rational function over QQ") from None
    return sympy.cancel(value)


@dataclass(frozen=True)
class FunctionRecord:
    """Order and leading restriction of one function along one component.

    A value of 0 on a positive order, or infinity on a negative one, means
    the leading coefficient is not recorded.
    """

    order: Union[int, str]  # int | unknown_positive | unknown_negative
    value: Optional[sympy.Expr]  # restriction/leading value; None if unknown

    def __post_init__(self):
        o, v = self.order, self.value
        if isinstance(o, str):
            if o not in (UNKNOWN_POSITIVE, UNKNOWN_NEGATIVE):
                raise ValueError(f"bad order tag {o!r}")
        elif not isinstance(o, int):
            raise ValueError(f"order {o!r} is neither an integer nor an unknown-order tag")
        positive = o == UNKNOWN_POSITIVE or (isinstance(o, int) and o > 0)
        negative = o == UNKNOWN_NEGATIVE or (isinstance(o, int) and o < 0)
        if o == 0 and (v is None or v == 0 or v is _INF):
            raise ValueError("order 0 requires a finite nonzero restriction value")
        if (positive and v is _INF) or (negative and v == 0):
            raise ValueError(f"order {o} contradicts value {v}")
        if v is None or v is ROOT_OF_UNITY or v is _INF:
            return
        if isinstance(v, (int, Fraction)):
            v = sympy.Rational(v)
        elif not isinstance(v, sympy.Expr):
            raise ValueError(f"value {v!r} is not a sympy expression")
        object.__setattr__(self, "value", _cancelled(v))


def _leading_known(rec: FunctionRecord) -> bool:
    """Whether the record pins down its leading coefficient."""
    v = rec.value
    return not (v is None or v is ROOT_OF_UNITY or v is _INF or v == 0)


@dataclass
class DivisorData:
    """One codimension-one component with per-function records."""

    name: str
    parameter: str
    records: Dict[str, FunctionRecord]

    def __post_init__(self):
        s = sympy.Symbol(self.parameter)
        for fname, rec in self.records.items():
            if isinstance(rec.value, sympy.Expr) and not rec.value.free_symbols <= {s}:
                raise ValueError(
                    f"divisor {self.name}: value {rec.value} of {fname!r} "
                    f"is not a function of {self.parameter}"
                )

    def record_for(self, fname: str) -> FunctionRecord:
        if fname not in self.records:
            raise KeyError(f"divisor {self.name}: no record for function {fname!r}")
        return self.records[fname]


def _parse_value(raw: Optional[str], parameter: str):
    if raw is None:
        return None
    if raw in ("inf", "infinity"):
        return _INF
    if raw == "root_of_unity":
        return ROOT_OF_UNITY
    s = sympy.Symbol(parameter)
    return sympy.sympify(raw, locals={parameter: s}, rational=True)


def load_divisors(path_or_list) -> List[DivisorData]:
    """Divisor records from a JSON file or list; each distinct record is parsed once."""
    if isinstance(path_or_list, (list, tuple)):
        docs = path_or_list
    else:
        with open(path_or_list) as fh:
            docs = json.load(fh)
    parsed: Dict[tuple, FunctionRecord] = {}  # records are frozen, so divisors share them
    out = []
    for d in docs:
        parameter = d.get("parameter", "s")
        recs = {}
        for fname, r in d["functions"].items():
            key = (parameter, r["order"], r.get("value"))
            if key not in parsed:
                parsed[key] = FunctionRecord(r["order"], _parse_value(r.get("value"), parameter))
            recs[fname] = parsed[key]
        out.append(DivisorData(d["name"], parameter, recs))
    return out


# -- tame symbol --------------------------------------------------------------------


def tame_symbol(fdata: FunctionRecord, gdata: FunctionRecord):
    """T_p{f,g} = (-1)^(ord f * ord g) (f^ord(g) / g^ord(f))|_p.

    Returns an exact sympy value in cancelled form when the orders pin it
    down, the ROOT_OF_UNITY marker when the value is a root of unity for
    every admissible choice of the unknown orders, else UNDECIDABLE.
    """
    m, n = fdata.order, gdata.order
    if isinstance(m, int) and isinstance(n, int):
        need_f = n != 0
        need_g = m != 0
        if (need_f and not _leading_known(fdata)) or (need_g and not _leading_known(gdata)):
            if (not need_f or _is_root_of_unity(fdata.value)) and (
                not need_g or _is_root_of_unity(gdata.value)
            ):
                return ROOT_OF_UNITY
            return UNDECIDABLE
        val = sympy.Integer(-1) ** (m * n)
        if need_f:
            val = val * fdata.value**n
        if need_g:
            val = val / gdata.value**m
        return sympy.cancel(val)
    # at least one order unknown: decided only if every order-dependent
    # factor is a root of unity
    f_ok = (n == 0) or _is_root_of_unity(fdata.value)
    g_ok = (m == 0) or _is_root_of_unity(gdata.value)
    if f_ok and g_ok:
        return ROOT_OF_UNITY
    return UNDECIDABLE


# -- evaluating factored elements along a divisor ------------------------------------


def _restrict_factored(
    f: FactoredElement, divisor: DivisorData
) -> Tuple[object, object]:
    """Restriction of a FactoredElement to the component.

    Returns (order, value): order is an int, UNKNOWN_POSITIVE,
    UNKNOWN_NEGATIVE, or UNDECIDABLE; value is f(p) in cancelled form when
    order == 0, the infinity marker for negative order, 0 for positive.
    When the known orders cancel but a leading coefficient is not recorded,
    f(p) is finite and nonzero but unknown: (0, None).
    """
    factors = [(divisor.record_for(f.basis.names[i]), e) for i, e in f.exps.items()]
    known = 0
    unknown_pos = 0  # count of factors contributing an unknown positive order
    unknown_neg = 0
    for rec, e in factors:
        o = rec.order
        if isinstance(o, int):
            known += o * e
        else:
            direction = 1 if o == UNKNOWN_POSITIVE else -1
            if direction * e > 0:
                unknown_pos += abs(e)
            else:
                unknown_neg += abs(e)
    if unknown_pos and unknown_neg:
        return UNDECIDABLE, None
    if unknown_pos:
        if known >= 0:
            return UNKNOWN_POSITIVE, sympy.Integer(0)
        return UNDECIDABLE, None
    if unknown_neg:
        if known <= 0:
            return UNKNOWN_NEGATIVE, _INF
        return UNDECIDABLE, None
    if known > 0:
        return known, sympy.Integer(0)
    if known < 0:
        return known, _INF
    val = sympy.Rational(f.const.numerator, f.const.denominator)
    for rec, e in factors:
        if not _leading_known(rec):
            return 0, None
        val = val * rec.value**e
    return 0, sympy.cancel(val)


def _label_record(label, basis, divisor: DivisorData) -> FunctionRecord:
    kind, key = label
    if kind == "p":
        return FunctionRecord(0, sympy.Integer(key))
    return divisor.record_for(basis.names[key])


# -- residue ------------------------------------------------------------------------


@dataclass
class B2Residue:
    """Residue value: Q-combination of ({a}_2, b) pairs, trivial parts removed.

    ``trace`` keeps one entry per input term so the verdict is re-checkable.
    """

    divisor: str
    terms: List[Tuple[Fraction, sympy.Expr, sympy.Expr]] = field(default_factory=list)
    trace: List[dict] = field(default_factory=list)
    undecidable: bool = False


def residue_43(xi: B2WedgeElement, divisor: DivisorData) -> B2Residue:
    """Residue of a B2-wedge element (wedge degree 2) along one component."""
    if xi.wedge_degree != 2:
        raise ValueError("residue_43 needs wedge degree 2")
    res = B2Residue(divisor.name)
    raw: Dict[tuple, Fraction] = {}
    raw_vals: Dict[tuple, tuple] = {}
    for c, f, labels in xi.terms_list():
        entry = {"coeff": str(c), "f": str(f), "wedge": [str(l) for l in labels]}
        order, fval = _restrict_factored(f, divisor)
        if order is UNDECIDABLE:
            entry["status"] = "undecidable"
            entry["why"] = "order of f along the component is not determined"
            res.undecidable = True
            res.trace.append(entry)
            continue
        if order != 0:
            entry["status"] = "trivial"
            entry["reason"] = "steinberg_degenerate"
            entry["why"] = "f restricts to 0 or infinity"
            res.trace.append(entry)
            continue
        if fval == 1:
            entry["status"] = "trivial"
            entry["reason"] = "steinberg_degenerate"
            entry["why"] = "f restricts to 1"
            res.trace.append(entry)
            continue
        g, h = labels
        t = tame_symbol(
            _label_record(g, xi.basis, divisor), _label_record(h, xi.basis, divisor)
        )
        if t is UNDECIDABLE:
            entry["status"] = "undecidable"
            entry["why"] = "tame symbol depends on an unknown order"
            res.undecidable = True
            res.trace.append(entry)
            continue
        if _is_root_of_unity(t):
            entry["status"] = "trivial"
            entry["reason"] = "torsion_tensor_factor"
            entry["why"] = "tame symbol is a root of unity, torsion in (x) Q"
            res.trace.append(entry)
            continue
        if fval is None:
            entry["status"] = "undecidable"
            entry["why"] = "f(p) is finite and nonzero but its value is not recorded"
            res.undecidable = True
            res.trace.append(entry)
            continue
        # canonicalize {a}_2 modulo inversion ({1/a}_2 = -{a}_2); the
        # cancelled form is unique, so equal pairs get equal string keys
        a, sign = fval, 1
        a_key, t_key = sympy.sstr(a), sympy.sstr(t)
        inv = sympy.cancel(1 / a)
        inv_key = sympy.sstr(inv)
        if inv_key < a_key:
            a, a_key, sign = inv, inv_key, -1
        key = (a_key, t_key)
        raw[key] = raw.get(key, Fraction(0)) + sign * c
        raw_vals[key] = (a, t)
        entry["status"] = "pending"
        entry["pair"] = list(key)
        res.trace.append(entry)
    for key, coeff in raw.items():
        if coeff != 0:
            res.terms.append((coeff, *raw_vals[key]))
    for entry in res.trace:
        if entry.get("status") == "pending":
            key = tuple(entry["pair"])
            if raw.get(key, Fraction(0)) == 0:
                entry["status"] = "trivial"
                entry["reason"] = "exact_cancellation"
                entry["why"] = "coefficients of this pair sum to zero"
            else:
                entry["status"] = "nontrivial"
    return res


def certify_all_residues(xi: B2WedgeElement, divisor_list: List[DivisorData]) -> dict:
    """Per-divisor triviality certificates plus an overall verdict."""
    report = {"divisors": [], "overall": "trivial"}
    for d in divisor_list:
        res = residue_43(xi, d)
        if res.undecidable:
            verdict = "undecidable"
        elif res.terms:
            verdict = "nontrivial"
        else:
            verdict = "trivial"
        reasons = sorted({e["reason"] for e in res.trace if "reason" in e})
        cert = {
            "divisor": d.name,
            "verdict": verdict,
            "reasons": reasons,
            "terms": res.trace,
        }
        if verdict == "nontrivial":
            cert["residue"] = [
                [str(c), sympy.sstr(a), sympy.sstr(t)] for c, a, t in res.terms
            ]
        report["divisors"].append(cert)
        if verdict != "trivial" and report["overall"] == "trivial":
            report["overall"] = verdict
    return report


def recheck_certificate(xi: B2WedgeElement, divisor_list: List[DivisorData], report: dict) -> bool:
    """Recompute every verdict and compare with a stored report."""
    fresh = certify_all_residues(xi, divisor_list)
    if fresh["overall"] != report.get("overall"):
        return False
    old = {c["divisor"]: c for c in report.get("divisors", [])}
    for cert in fresh["divisors"]:
        prev = old.get(cert["divisor"])
        if prev is None or prev["verdict"] != cert["verdict"]:
            return False
        if sorted(prev.get("reasons", [])) != cert["reasons"]:
            return False
    return True
