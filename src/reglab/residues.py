"""Tame symbols and residues of B2-wedge elements along divisors.

The residue of {f}_2 (x) g ^ h along a codimension-one point p is
{f(p)}_2 (x) T_p{g, h}, where T_p is the tame symbol. Working modulo
torsion, a residue term is trivial as soon as f(p) lies in {0, 1, infinity}
(Steinberg degeneracy) or the tame symbol is a root of unity. Divisor data
records the order and leading restriction of each relevant function along
each component; orders along blown-up components may be recorded only as
"positive but unknown", and triviality is concluded only when the verdict
does not depend on the exact order.
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


class _RootOfUnity:
    """Marker: a root of unity whose exact value may be order-dependent."""

    def __repr__(self):
        return "root_of_unity"

    def __eq__(self, other):
        return isinstance(other, _RootOfUnity)

    def __hash__(self):
        return hash("root_of_unity")


class _Undecidable:
    def __repr__(self):
        return "undecidable"

    def __eq__(self, other):
        return isinstance(other, _Undecidable)

    def __hash__(self):
        return hash("undecidable")


ROOT_OF_UNITY = _RootOfUnity()
UNDECIDABLE = _Undecidable()

_INF = sympy.zoo


def _is_root_of_unity(v) -> bool:
    if v is ROOT_OF_UNITY:
        return True
    if isinstance(v, sympy.Expr):
        return v in (sympy.Integer(1), sympy.Integer(-1))
    return v in (1, -1)


@dataclass
class FunctionRecord:
    """Order and leading restriction of one function along one component."""

    order: Union[int, str]  # int | unknown_positive | unknown_negative
    value: Optional[sympy.Expr]  # restriction/leading value; None if unknown

    def __post_init__(self):
        if isinstance(self.order, str) and self.order not in (
            UNKNOWN_POSITIVE,
            UNKNOWN_NEGATIVE,
        ):
            raise ValueError(f"bad order tag {self.order!r}")
        if self.order == 0 and (self.value is None or self.value == 0):
            raise ValueError("order 0 requires a nonzero restriction value")


@dataclass
class DivisorData:
    """One codimension-one component with per-function records."""

    name: str
    parameter: str
    records: Dict[str, FunctionRecord]

    def record_for(self, fname: str) -> FunctionRecord:
        if fname not in self.records:
            raise KeyError(f"divisor {self.name}: no record for function {fname!r}")
        return self.records[fname]


def load_divisors(path_or_list) -> List[DivisorData]:
    if isinstance(path_or_list, (list, tuple)):
        docs = path_or_list
    else:
        with open(path_or_list) as fh:
            docs = json.load(fh)
    out = []
    for d in docs:
        s = sympy.Symbol(d.get("parameter", "s"))
        recs = {}
        for fname, r in d["functions"].items():
            order = r["order"]
            raw = r.get("value")
            if raw is None:
                value = None
            elif raw in ("inf", "infinity"):
                value = _INF
            elif raw == "root_of_unity":
                value = ROOT_OF_UNITY
            else:
                value = sympy.sympify(raw, locals={str(s): s}, rational=True)
            recs[fname] = FunctionRecord(order, value)
        out.append(DivisorData(d["name"], str(s), recs))
    return out


# -- tame symbol --------------------------------------------------------------------


def tame_symbol(fdata: FunctionRecord, gdata: FunctionRecord):
    """T_p{f,g} = (-1)^(ord f * ord g) (f^ord(g) / g^ord(f))|_p.

    Returns an exact sympy value when the orders pin it down, the
    ROOT_OF_UNITY marker when the value is a root of unity for every
    admissible choice of the unknown orders, else UNDECIDABLE.
    """
    m, n = fdata.order, gdata.order
    if isinstance(m, int) and isinstance(n, int):
        need_f = n != 0
        need_g = m != 0
        # a zero "value" on a record of positive order means the leading
        # coefficient is not recorded, which is as good as unknown here
        f_unknown = fdata.value in (None, ROOT_OF_UNITY) or (
            m > 0 and fdata.value == 0
        )
        g_unknown = gdata.value in (None, ROOT_OF_UNITY) or (
            n > 0 and gdata.value == 0
        )
        if (need_f and f_unknown) or (need_g and g_unknown):
            if (not need_f or _is_root_of_unity(fdata.value)) and (
                not need_g or _is_root_of_unity(gdata.value)
            ):
                return ROOT_OF_UNITY
            return UNDECIDABLE
        sign = sympy.Integer(-1) ** (m * n)
        val = sign
        if need_f:
            val = val * fdata.value**n
        if need_g:
            val = val / gdata.value**m
        return sympy.simplify(val)
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
    UNKNOWN_NEGATIVE, or UNDECIDABLE; value is a sympy expression when
    order == 0, the infinity marker for negative order, 0 for positive.
    """
    known = 0
    unknown_pos = 0  # count of factors contributing an unknown positive order
    unknown_neg = 0
    for i, e in f.exps.items():
        rec = divisor.record_for(str(f.basis.polys[i]))
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
    for i, e in f.exps.items():
        rec = divisor.record_for(str(f.basis.polys[i]))
        if rec.order == 0:
            val = val * rec.value**e
        else:
            # known orders cancelled exactly; need leading values
            if rec.value in (None, ROOT_OF_UNITY) or rec.value == 0:
                return 0, None
            val = val * rec.value**e
    return 0, sympy.simplify(val)


def _label_record(label, basis, divisor: DivisorData) -> FunctionRecord:
    kind, key = label
    if kind == "p":
        return FunctionRecord(0, sympy.Integer(key))
    return divisor.record_for(str(basis.polys[key]))


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
        if order != 0 or fval is None or fval == _INF:
            entry["status"] = "trivial"
            entry["reason"] = "steinberg_degenerate"
            entry["why"] = "f restricts to 0 or infinity"
            res.trace.append(entry)
            continue
        if fval in (sympy.Integer(0), sympy.Integer(1)):
            entry["status"] = "trivial"
            entry["reason"] = "steinberg_degenerate"
            entry["why"] = f"f restricts to {fval}"
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
        if t is ROOT_OF_UNITY or _is_root_of_unity(t):
            entry["status"] = "trivial"
            entry["reason"] = "torsion_tensor_factor"
            entry["why"] = "tame symbol is a root of unity, torsion in (x) Q"
            res.trace.append(entry)
            continue
        # canonicalize {a}_2 modulo inversion ({1/a}_2 = -{a}_2)
        a, sign = fval, 1
        inv = sympy.simplify(1 / a)
        if sympy.sstr(inv) < sympy.sstr(a):
            a, sign = inv, -1
        key = (sympy.sstr(a), sympy.sstr(t))
        raw[key] = raw.get(key, Fraction(0)) + sign * c
        raw_vals[key] = (a, t)
        entry["status"] = "pending"
        entry["pair"] = [sympy.sstr(a), sympy.sstr(t)]
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
