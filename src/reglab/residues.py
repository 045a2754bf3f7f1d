"""Tame symbols and residues of B2-wedge elements along divisors.

The residue of {f}_2 (x) g ^ h along a codimension-one point p is
{f(p)}_2 (x) T_p{g, h}, where T_p is the tame symbol. Working modulo
torsion, a residue term is trivial as soon as f(p) lies in {0, 1, infinity}
(Steinberg degeneracy) or the tame symbol is a root of unity. Divisor data
records the order and leading restriction of each relevant function along
each component; orders along blown-up components may be recorded only as
"positive but unknown", and triviality is concluded only when the verdict
does not depend on the exact order. One rule gives T_p{f, g}
= (-1)^(mn) f^n / g^m, m = ord f and n = ord g: a leading value is needed
when the other function's order is nonzero; the value is computed when both
orders are integers and every needed leading coefficient is recorded, and
is otherwise a root of unity when every needed leading value is one, and
undecidable when not.

Every recorded value is an element of the one field QQ(s), s the parameter
of every component, read by ``symbolic.poly.rational_function``: the polynomial
grammar of ``parse_poly`` evaluated in QQ(s), with "inf" and
"root_of_unity" as markers. Certificates print their values back in the
same grammar (``format_rational_function``). Field arithmetic keeps its elements in lowest
terms, so equal values are equal elements and the residue pairs are
collected under the elements themselves. Records that contradict
themselves are rejected with ``ValueError``: order 0 with value 0 or
infinity, a positive order with value infinity, a negative order with
value 0, or a value outside the grammar (an irrational constant, a
decimal, a second symbol, a division by zero). A record whose "parameter"
is not s is refused too.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple, Union

from .symbolic import B2WedgeElement, FactoredElement
from .symbolic.poly import QS, FracElement, format_rational_function, rational_function

UNKNOWN_POSITIVE = "unknown_positive"
UNKNOWN_NEGATIVE = "unknown_negative"


class _Marker:
    """A named stand-in, compared by identity: ROOT_OF_UNITY, a root of unity whose
    exact value may be order-dependent; INFINITY, the value at a pole; or UNDECIDABLE."""

    def __init__(self, name: str):
        self.name = name

    def __repr__(self):
        return self.name


ROOT_OF_UNITY = _Marker("root_of_unity")
INFINITY = _Marker("infinity")
UNDECIDABLE = _Marker("undecidable")


def _is_root_of_unity(v) -> bool:
    return v is ROOT_OF_UNITY or v == 1 or v == -1


def _sign(order) -> int:
    """1, 0 or -1: the sign of an integer order, or of the order an unknown-order tag
    stands for."""
    if order == UNKNOWN_POSITIVE:
        return 1
    if order == UNKNOWN_NEGATIVE:
        return -1
    return (order > 0) - (order < 0)


def _power(v: FracElement, e: int) -> FracElement:
    """v**e in lowest terms, also for e < 0 (a negative power of a field element is not)."""
    return v**e if e >= 0 else 1 / v**-e


@dataclass(frozen=True)
class FunctionRecord:
    """Order and leading restriction of one function along one component.

    The value is an element of QQ(s), ROOT_OF_UNITY, INFINITY or None
    (unknown). A value of 0 on a positive order, or INFINITY on a negative
    one, means the leading coefficient is not recorded.
    """

    order: Union[int, str]  # int | unknown_positive | unknown_negative
    value: Optional[object]

    def __post_init__(self):
        o, v = self.order, self.value
        if isinstance(o, str):
            if o not in (UNKNOWN_POSITIVE, UNKNOWN_NEGATIVE):
                raise ValueError(f"bad order tag {o!r}")
        elif not isinstance(o, int):
            raise ValueError(f"order {o!r} is neither an integer nor an unknown-order tag")
        in_qs = isinstance(v, FracElement) and v.field == QS
        if not (v is None or v is ROOT_OF_UNITY or v is INFINITY or in_qs):
            raise ValueError(f"value {v!r} is neither an element of QQ(s) nor a marker")
        sign = _sign(o)
        if sign == 0 and (v is None or v is INFINITY or v == 0):
            raise ValueError("order 0 requires a finite nonzero restriction value")
        if (sign > 0 and v is INFINITY) or (sign < 0 and v == 0):
            raise ValueError(f"order {o} contradicts value {v}")


def _leading_known(rec: FunctionRecord) -> bool:
    """Whether the record pins down its leading coefficient."""
    return isinstance(rec.value, FracElement) and rec.value != 0


@dataclass
class DivisorData:
    """One codimension-one component with per-function records."""

    name: str
    records: Dict[str, FunctionRecord]

    def record_for(self, fname: str) -> FunctionRecord:
        if fname not in self.records:
            raise KeyError(f"divisor {self.name}: no record for function {fname!r}")
        return self.records[fname]


def _parse_value(raw: Optional[str]):
    if raw is None:
        return None
    if raw in ("inf", "infinity"):
        return INFINITY
    if raw == "root_of_unity":
        return ROOT_OF_UNITY
    return rational_function(raw)


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
        if d.get("parameter", "s") != "s":
            raise ValueError(f"divisor {d['name']}: parameter {d['parameter']!r} is not s")
        recs = {}
        for fname, r in d["functions"].items():
            key = (r["order"], r.get("value"))
            if key not in parsed:
                parsed[key] = FunctionRecord(r["order"], _parse_value(r.get("value")))
            recs[fname] = parsed[key]
        out.append(DivisorData(d["name"], recs))
    return out


# -- tame symbol --------------------------------------------------------------------


def tame_symbol(fdata: FunctionRecord, gdata: FunctionRecord):
    """T_p{f,g} = (-1)^(ord f * ord g) (f^ord(g) / g^ord(f))|_p by the rule in the
    module docstring (an unknown order is nonzero): an element of QQ(s), which is
    the field's 1 when both orders are 0; else ROOT_OF_UNITY or UNDECIDABLE."""
    m, n = fdata.order, gdata.order
    needed = [rec for rec, other in ((fdata, n), (gdata, m)) if other != 0]
    if isinstance(m, int) and isinstance(n, int) and all(map(_leading_known, needed)):
        val = -QS.one if (m * n) % 2 else QS.one
        if n:
            val = val * _power(fdata.value, n)
        if m:
            val = val * _power(gdata.value, -m)
        return val
    return ROOT_OF_UNITY if all(_is_root_of_unity(r.value) for r in needed) else UNDECIDABLE


# -- evaluating factored elements along a divisor ------------------------------------


def _restrict_factored(f: FactoredElement, divisor: DivisorData) -> Tuple[object, object]:
    """Order of a FactoredElement along the component, and its value there.

    Returns (order, value): order is an int, UNKNOWN_POSITIVE,
    UNKNOWN_NEGATIVE, or UNDECIDABLE; value is f(p) when order == 0, else
    None. When the known orders sum to 0 but a leading coefficient is not
    recorded, f(p) is finite and nonzero but unknown: (0, None).
    """
    factors = tuple((divisor.record_for(f.basis.names[i]), e) for i, e in f.exps.items())
    return _restrict(f.const, factors)


@functools.lru_cache(maxsize=None)
def _restrict(const: Fraction, factors: Tuple[Tuple[FunctionRecord, int], ...]):
    """``_restrict_factored`` of const * prod f_i^e_i, from the pairs (record of f_i, e_i).

    Every argument is immutable and divisors share their records, so the cache
    computes each distinct (const, factors) once: the flagship's 144 (term, divisor)
    pairs, terms -1/x, -1/y and -1/z, read 6.
    """
    known = sum(rec.order * e for rec, e in factors if isinstance(rec.order, int))
    unknown = [_sign(rec.order) * e for rec, e in factors if isinstance(rec.order, str)]
    if unknown:
        # the order is known + sum t_i k_i, t_i = sign(ord_i) e_i, over the unknown sizes
        # k_i = |ord_i| >= 1: when every t_i has one sign sigma, sigma * order is at least
        # sigma * known + sum |t_i| and grows without bound, so it has the sign sigma
        # exactly when that least value is positive
        signs = {_sign(t) for t in unknown}
        sigma = signs.pop()
        if signs or sigma * known + sum(map(abs, unknown)) <= 0:
            return UNDECIDABLE, None
        return (UNKNOWN_POSITIVE if sigma > 0 else UNKNOWN_NEGATIVE), None
    if known:
        return known, None
    val = QS(const)
    for rec, e in factors:
        if not _leading_known(rec):
            return 0, None
        val = val * _power(rec.value, e)
    return 0, val


def _label_record(label, basis, divisor: DivisorData) -> FunctionRecord:
    kind, key = label
    if kind == "p":
        return FunctionRecord(0, QS(key))
    return divisor.record_for(basis.names[key])


# -- residue ------------------------------------------------------------------------


@dataclass
class B2Residue:
    """Residue value: Q-combination of ({a}_2, b) pairs, trivial parts removed.

    ``trace`` keeps one entry per input term so the verdict is re-checkable.
    """

    divisor: str
    terms: List[Tuple[Fraction, FracElement, FracElement]]
    trace: List[dict]

    @property
    def undecidable(self) -> bool:
        return any(entry["status"] == "undecidable" for entry in self.trace)


_SUMS_TO_ZERO = ("trivial", "exact_cancellation", "coefficients of this pair sum to zero")
_NONTRIVIAL = ("nontrivial", None, None)


def _decide(f: FactoredElement, labels, basis, divisor: DivisorData):
    """One term {f}_2 (x) g ^ h along the component.

    Returns ((status, reason, why), None) when the term alone settles its
    status, else (None, (sign, a, t)): the term is sign * {a}_2 (x) t, with
    {f(p)}_2 taken modulo inversion ({1/a}_2 = -{a}_2) to the one of f(p)
    and 1/f(p) whose string is smaller.
    """
    order, fval = _restrict_factored(f, divisor)
    if order is UNDECIDABLE:
        return ("undecidable", None, "order of f along the component is not determined"), None
    if order != 0:
        return ("trivial", "steinberg_degenerate", "f restricts to 0 or infinity"), None
    if fval == 1:
        return ("trivial", "steinberg_degenerate", "f restricts to 1"), None
    g, h = labels
    t = tame_symbol(_label_record(g, basis, divisor), _label_record(h, basis, divisor))
    if t is UNDECIDABLE:
        return ("undecidable", None, "tame symbol depends on an unknown order"), None
    if _is_root_of_unity(t):
        why = "tame symbol is a root of unity, torsion in (x) Q"
        return ("trivial", "torsion_tensor_factor", why), None
    if fval is None:
        why = "f(p) is finite and nonzero but its value is not recorded"
        return ("undecidable", None, why), None
    inv = 1 / fval
    if format_rational_function(inv) < format_rational_function(fval):
        return None, (-1, inv, t)
    return None, (1, fval, t)


def residue_43(xi: B2WedgeElement, divisor: DivisorData) -> B2Residue:
    """Residue of a B2-wedge element (wedge degree 2) along one component."""
    if xi.degree != 2:
        raise ValueError("residue_43 needs wedge degree 2")
    decided = [
        (c, f, labels, *_decide(f, labels, xi.basis, divisor))
        for c, f, labels in xi.terms_list()
    ]
    sums: Dict[tuple, Fraction] = {}
    for c, _, _, _, pair in decided:
        if pair:
            sign, a, t = pair
            sums[a, t] = sums.get((a, t), Fraction(0)) + sign * c
    trace = []
    for c, f, labels, decision, pair in decided:
        entry = {"coeff": str(c), "f": str(f), "wedge": [str(l) for l in labels]}
        if pair:
            _, a, t = pair
            entry["pair"] = [format_rational_function(a), format_rational_function(t)]
            decision = _NONTRIVIAL if sums[a, t] else _SUMS_TO_ZERO
        entry["status"], reason, why = decision
        if reason:
            entry["reason"] = reason
        if why:
            entry["why"] = why
        trace.append(entry)
    terms = [(coeff, a, t) for (a, t), coeff in sums.items() if coeff]
    return B2Residue(divisor.name, terms, trace)


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
                [str(c), format_rational_function(a), format_rational_function(t)]
                for c, a, t in res.terms
            ]
        report["divisors"].append(cert)
        if verdict != "trivial" and report["overall"] == "trivial":
            report["overall"] = verdict
    return report

