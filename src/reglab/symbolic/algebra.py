"""Factored field elements, exterior algebra over Q, B2-with-wedge elements.

A FactoredElement is a rational function written multiplicatively over a
declared basis of polynomials plus rational primes; wedges live in the
exterior algebra with -1 and roots of unity dropped as torsion (the algebra
is over Q). This realizes a finite-rank piece of the multiplicative group of
the function field, enough for exactness decompositions and their tau
pullbacks.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from fractions import Fraction
from typing import Iterable, List, Optional, Sequence, Tuple

import sympy

from .poly import eval_poly, format_poly, multiplicity, parse_poly, poly_ring, split_laurent

Label = Tuple[str, object]  # ("b", basis index) or ("p", prime)


class NotFactorable(ValueError):
    """A factor outside the declared multiplicative basis remained."""

    def __init__(self, remainder):
        super().__init__(f"factor not in basis: {format_poly(remainder)}")
        self.remainder = remainder


def _prime_factors(n: int) -> dict:
    return {int(p): int(e) for p, e in sympy.factorint(n).items()}


class MultiplicativeBasis:
    """Ordered list of irreducible, pairwise non-associate polynomials.

    Rational primes are implicit extra basis vectors. Every entry is checked:
    non-constant, no negative exponent, no entry exactly dividing another, and
    one irreducible factor of multiplicity 1 over Q, content aside. Such
    entries are multiplicatively independent, so factoring over the basis is
    unique.
    """

    def __init__(self, polys: Sequence, variables: Sequence[str]):
        self.vars = tuple(variables)
        self.ring = poly_ring(self.vars)
        self.polys = [p.set_ring(self.ring) for p in polys]
        self.names = [format_poly(p) for p in self.polys]
        for p in self.polys:
            if p.is_ground:
                raise ValueError("basis entries must be non-constant")
            if any(e < 0 for m in p.itermonoms() for e in m):
                raise ValueError("basis entries must be polynomials")
        for i, p in enumerate(self.polys):
            for j, q in enumerate(self.polys[i + 1 :], i + 1):
                if multiplicity(q, p)[0] or multiplicity(p, q)[0]:
                    pair = f"{self.names[i]} and {self.names[j]}"
                    raise ValueError(f"basis entries {pair} are associates or nested")
        for p, name in zip(self.polys, self.names):
            _, factors = p.factor_list()
            if len(factors) != 1 or factors[0][1] != 1:
                raise ValueError(f"basis entry {name} factors over Q")

    def __len__(self):
        return len(self.polys)

    def label_name(self, label: Label) -> str:
        kind, key = label
        if kind == "b":
            return self.names[key]
        return str(key)


class FactoredElement:
    """constant * prod(basis_i ^ e_i): an element of the field written
    multiplicatively over the basis."""

    __slots__ = ("basis", "const", "exps")

    def __init__(self, basis: MultiplicativeBasis, const=1, exps: dict | None = None):
        self.basis = basis
        self.const = Fraction(const)
        if self.const == 0:
            raise ValueError("FactoredElement must be a nonzero field element")
        self.exps = {int(i): int(e) for i, e in (exps or {}).items() if e != 0}

    def __mul__(self, other: "FactoredElement") -> "FactoredElement":
        exps = dict(self.exps)
        for i, e in other.exps.items():
            exps[i] = exps.get(i, 0) + e
        return FactoredElement(self.basis, self.const * other.const, exps)

    def inverse(self) -> "FactoredElement":
        return FactoredElement(self.basis, 1 / self.const, {i: -e for i, e in self.exps.items()})

    def __pow__(self, n: int) -> "FactoredElement":
        return FactoredElement(
            self.basis, self.const**n, {i: e * n for i, e in self.exps.items()}
        )

    def is_constant(self) -> bool:
        return not self.exps

    def key(self) -> tuple:
        return (self.const, tuple(sorted(self.exps.items())))

    def __eq__(self, other):
        return isinstance(other, FactoredElement) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def expand(self) -> tuple:
        """Multiply out to a (numerator, denominator) pair of polynomials."""
        num = self.basis.ring(self.const.numerator)
        den = self.basis.ring(self.const.denominator)
        for i, e in self.exps.items():
            if e > 0:
                num = num * self.basis.polys[i] ** e
            else:
                den = den * self.basis.polys[i] ** (-e)
        return num, den

    def evaluate(self, values: dict):
        """Numeric evaluation (values keyed by variable name)."""
        out = self.const.numerator / self.const.denominator if self.const.denominator != 1 else self.const.numerator
        for i, e in self.exps.items():
            out = out * eval_poly(self.basis.polys[i], values) ** e
        return out

    def torsion_free_labels(self) -> dict:
        """Exponent vector over wedge labels, dropping the sign (torsion)."""
        vec = {("b", i): Fraction(e) for i, e in self.exps.items()}
        c = abs(self.const)
        if c != 1:
            for p, e in _prime_factors(c.numerator).items():
                vec[("p", p)] = vec.get(("p", p), Fraction(0)) + e
            for p, e in _prime_factors(c.denominator).items():
                vec[("p", p)] = vec.get(("p", p), Fraction(0)) - e
        return {k: v for k, v in vec.items() if v != 0}

    def __str__(self):
        parts = [] if self.const == 1 and self.exps else [str(self.const)]
        for i, e in sorted(self.exps.items()):
            name = f"({self.basis.names[i]})"
            parts.append(name if e == 1 else f"{name}^{e}")
        return " * ".join(parts) if parts else "1"

    def __repr__(self):
        return f"FactoredElement({self})"


def factor_over_basis(f, basis: MultiplicativeBasis) -> FactoredElement:
    """Factor a polynomial or rational function over the basis.

    Accepts a ring element (possibly Laurent) or a (numerator, denominator)
    pair of them. Raises NotFactorable when trial exact division leaves a
    non-constant remainder.
    """
    if isinstance(f, tuple):
        num, den = f
        return factor_over_basis(num, basis) * factor_over_basis(den, basis).inverse()
    if not hasattr(f, "ring"):
        raise TypeError(f"cannot factor {type(f).__name__}")
    f = f.set_ring(basis.ring)
    if not f:
        raise ValueError("cannot factor the zero element")
    num, mono = split_laurent(f)
    if not mono.is_ground:
        return factor_over_basis((num, mono), basis)
    exps = {}
    for i, b in enumerate(basis.polys):
        if num.is_ground:  # no basis entry divides a constant
            break
        exps[i], num = multiplicity(num, b)
    if not num.is_ground:
        raise NotFactorable(num)
    return FactoredElement(basis, Fraction(num.LC.numerator, num.LC.denominator), exps)


# -- Q-linear combinations ------------------------------------------------------------


class _LinearCombination:
    """Q-linear combination of hashable keys over one basis: ``terms`` maps each key
    to a nonzero Fraction; ``degree`` is the wedge degree of every key."""

    __slots__ = ("basis", "degree", "terms")

    def __init__(self, basis: MultiplicativeBasis, degree: int, terms: dict | None = None):
        self.basis = basis
        self.degree = degree
        self.terms = {}
        if terms:
            _accumulate(self.terms, terms.items())

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        if type(other) is not type(self) or other.degree != self.degree:
            raise ValueError("degree mismatch")
        out = type(self)(self.basis, self.degree, self.terms)
        _accumulate(out.terms, other.terms.items())
        return out

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        c = Fraction(c)
        return type(self)(self.basis, self.degree, {k: v * c for k, v in self.terms.items()})

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and self.degree == other.degree
            and self.terms == other.terms
        )

    def __repr__(self):
        return f"{type(self).__name__}({self})"


def _accumulate(terms: dict, items) -> None:
    """Add each (key, coefficient) of ``items`` into ``terms``, dropping keys that reach 0."""
    for key, c in items:
        c = terms.get(key, 0) + Fraction(c)
        if c:
            terms[key] = c
        else:
            terms.pop(key, None)


# -- exterior algebra -------------------------------------------------------------


class WedgeElement(_LinearCombination):
    """Q-linear combination of strictly increasing label tuples of fixed degree."""

    __slots__ = ()

    def __str__(self):
        if not self.terms:
            return "0"
        bits = []
        for key in sorted(self.terms):
            c = self.terms[key]
            body = " ^ ".join(self.basis.label_name(l) for l in key)
            bits.append(f"({c})·{body}")
        return " + ".join(bits)


def sorted_with_sign(labels: Sequence) -> Optional[Tuple[tuple, int]]:
    """Sort labels by insertion, tracking the permutation sign; None if a label repeats."""
    labels = list(labels)
    sign = 1
    for i in range(1, len(labels)):
        j = i
        while j > 0 and labels[j] < labels[j - 1]:
            labels[j], labels[j - 1] = labels[j - 1], labels[j]
            sign = -sign
            j -= 1
    for a, b in zip(labels, labels[1:]):
        if a == b:
            return None
    return tuple(labels), sign


def _wedge_of_vectors(coeff: Fraction, vectors: List[dict]) -> dict:
    """Expand coeff * v1 ^ ... ^ vk multilinearly into sorted-tuple terms."""
    out = {}
    for choice in itertools.product(*(v.items() for v in vectors)):
        s = sorted_with_sign([label for label, _ in choice])
        if s is not None:
            key, sign = s
            c = sign * Fraction(coeff) * math.prod(e for _, e in choice)
            out[key] = out.get(key, Fraction(0)) + c
    return {k: v for k, v in out.items() if v != 0}


def wedge_normalize(
    terms: Iterable[Tuple[object, Sequence[FactoredElement]]], basis: MultiplicativeBasis
) -> WedgeElement:
    """Canonical form of a sum of wedge products of FactoredElements.

    Multilinear over Q; repeated basis vectors kill a term; the sign part of
    constants is dropped (torsion); prime parts expand as extra basis labels.
    """
    degree = None
    acc: dict = {}
    for coeff, elts in terms:
        if degree is None:
            degree = len(elts)
        elif len(elts) != degree:
            raise ValueError("all wedge tuples must have equal length")
        vecs = [e.torsion_free_labels() for e in elts]
        _accumulate(acc, _wedge_of_vectors(Fraction(coeff), vecs).items())
    return WedgeElement(basis, degree if degree is not None else 0, acc)


# -- B2 (x) wedge ------------------------------------------------------------------


class B2WedgeElement(_LinearCombination):
    """Formal sum of c * ({f}_2 (x) g_1 ^ ... ^ g_degree) with B2 normalization.

    Terms are keyed by (f, wedge labels). Normalization applied on insert:
    {0}_2 = {1}_2 = {infinity}_2 = 0 and {1/f}_2 = -{f}_2 (f and its inverse
    share one canonical representative, the one with the smaller key).
    """

    __slots__ = ()

    def add_term(self, coeff, f: FactoredElement, wedge: WedgeElement) -> None:
        coeff = Fraction(coeff)
        if f.is_constant() and f.const == 1:
            return
        inv = f.inverse()
        if inv.key() < f.key():
            f, coeff = inv, -coeff
        _accumulate(self.terms, (((f, labels), coeff * c) for labels, c in wedge.terms.items()))

    def terms_list(self) -> List[Tuple[Fraction, FactoredElement, tuple]]:
        """(coefficient, f, wedge label tuple) triples, sorted by f's key, then labels."""
        items = sorted(self.terms.items(), key=lambda kv: (kv[0][0].key(), kv[0][1]))
        return [(c, f, labels) for (f, labels), c in items]

    def __str__(self):
        if not self.terms:
            return "0"
        bits = []
        for c, f, labels in self.terms_list():
            body = " ^ ".join(self.basis.label_name(l) for l in labels)
            bits.append(f"({c})·{{{f}}}_2 (x) {body}")
        return " + ".join(bits)


# -- tau ---------------------------------------------------------------------------


def _tau_rational_function(p) -> tuple:
    """p(1/x_1, ..., 1/x_n) written as numerator / monomial."""
    degs = p.degrees()
    num = p.ring({tuple(d - e for d, e in zip(degs, exps)): c for exps, c in p.items()})
    return num, p.ring({degs: 1})


def apply_tau(e: B2WedgeElement) -> B2WedgeElement:
    """Pullback by the involution x_i -> 1/x_i (all variables at once)."""
    basis = e.basis
    images = []  # tau of each basis polynomial, factored over the basis
    for b, name in zip(basis.polys, basis.names):
        try:
            images.append(factor_over_basis(_tau_rational_function(b), basis))
        except NotFactorable as exc:
            raise ValueError(
                f"basis is not tau-closed: tau({name}) needs factor "
                f"{format_poly(exc.remainder)}"
            ) from exc
    out = B2WedgeElement(basis, e.degree)
    for c, f, labels in e.terms_list():
        tf = FactoredElement(basis, f.const)
        for i, k in f.exps.items():
            tf = tf * images[i] ** k
        vecs = [
            {label: Fraction(1)} if label[0] == "p" else images[label[1]].torsion_free_labels()
            for label in labels
        ]
        out.add_term(c, tf, WedgeElement(basis, e.degree, _wedge_of_vectors(Fraction(1), vecs)))
    return out


# -- decompositions ------------------------------------------------------------------


class DecompositionDocument:
    """Parsed form of the structured decomposition JSON.

    Fields: the variable list, the multiplicative basis, substitutions that
    eliminate dependent variables (e.g. the last coordinate on the zero
    locus), and the Steinberg-shaped right-hand side terms (c, f, g-list).
    The terms are factored over the basis, and the decomposition checked,
    once each, on first use.
    """

    def __init__(self, variables, basis_polys, substitutions, terms, lhs=None, name=""):
        self.name = name
        self.variables = tuple(variables)
        self.basis = MultiplicativeBasis(basis_polys, variables)
        self.substitutions = dict(substitutions)  # var name -> polynomial
        self.terms = list(terms)  # (Fraction, polynomial f, [polynomial g...])
        self.lhs_names = tuple(lhs) if lhs else self.variables

    @property
    def n(self) -> int:
        return len(self.lhs_names)

    @functools.cached_property
    def factored_terms(self) -> List[tuple]:
        """Each term as (c, f, 1 - f, [g...]), factored over the basis."""
        out = []
        for c, f, gs in self.terms:
            fe = factor_over_basis(f, self.basis)
            num, den = fe.expand()
            one_minus = factor_over_basis((den - num, den), self.basis)
            ges = [factor_over_basis(g, self.basis) for g in gs]
            out.append((Fraction(c), fe, one_minus, ges))
        return out

    @functools.cached_property
    def difference(self) -> WedgeElement:
        """lhs - sum c_j f_j ^ (1 - f_j) ^ g_j1 ^ ...: zero exactly when the
        decomposition holds."""
        lhs = [
            factor_over_basis(
                self.substitutions[v] if v in self.substitutions
                else parse_poly(v, self.variables),
                self.basis,
            )
            for v in self.lhs_names
        ]
        rhs = [(c, [fe, one_minus] + ges) for c, fe, one_minus, ges in self.factored_terms]
        return wedge_normalize([(Fraction(1), lhs)], self.basis) - wedge_normalize(rhs, self.basis)


def load_decomposition(path_or_dict) -> DecompositionDocument:
    if isinstance(path_or_dict, dict):
        doc = path_or_dict
    else:
        with open(path_or_dict) as fh:
            doc = json.load(fh)
    variables = doc["variables"]
    basis_polys = [parse_poly(s, variables) for s in doc["basis"]]
    subs = {v: parse_poly(s, variables) for v, s in doc.get("substitutions", {}).items()}
    terms = [
        (Fraction(str(c)), parse_poly(f, variables), [parse_poly(g, variables) for g in gs])
        for c, f, gs in doc["terms"]
    ]
    return DecompositionDocument(
        variables, basis_polys, subs, terms, doc.get("lhs"), doc.get("name", "")
    )


def check_decomposition(doc: DecompositionDocument):
    """Verify lhs = sum c_j f_j ^ (1 - f_j) ^ g_j1 ^ ... exactly; the document
    keeps the result.

    Returns (equal: bool, difference: WedgeElement).
    """
    return doc.difference.is_zero(), doc.difference


def build_xi(doc: DecompositionDocument):
    """Build (xi, xi*, lambda) from a verified decomposition.

    xi = sum c_j {f_j}_2 (x) g_j1 ^ ... ^ g_j(n-2); xi* is its tau pullback;
    lambda = (xi + (-1)^(n-1) xi*) / 2.
    """
    if not doc.difference.is_zero():
        raise ValueError(f"decomposition does not hold; difference = {doc.difference}")
    n = doc.n
    xi = B2WedgeElement(doc.basis, n - 2)
    for c, fe, _one_minus, ges in doc.factored_terms:
        w = wedge_normalize([(Fraction(1), ges)], doc.basis) if ges else WedgeElement(
            doc.basis, 0, {(): Fraction(1)}
        )
        xi.add_term(c, fe, w)
    xi_star = apply_tau(xi)
    lam = (xi + xi_star.scale(Fraction((-1) ** (n - 1)))).scale(Fraction(1, 2))
    return xi, xi_star, lam
