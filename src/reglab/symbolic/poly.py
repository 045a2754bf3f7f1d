"""Exact (Laurent) polynomials over Q: the parser, the printers and a numeric evaluator.

A polynomial is an element of sympy's ring QQ[variables]
(``sympy.polys.rings``), which stores negative exponents as they are, so
x + x^-1 is one element; exact division, gcd and factoring are the ring's
methods. Rings built twice from the same variables are equal and their
elements mix. This module is the one place that builds such rings; the
symbolic layer, the k3 curves over QQ[t] and the Mahler measures (the
univariate one over QQ[x]) all compute on them. It also builds, once, the
field ``QS`` = QQ(s) of rational functions in the divisor parameter s, in
which the residue certificates compute. One parser reads both: polynomials
(``parse_poly``) and the divisor records' values (``rational_function``)
are the same grammar, evaluated in the ring or in the field. The printers
(``format_poly``, ``format_factored``, ``format_rational_function``) write
that grammar back. ``multiplicity`` is the one count of a factor by exact
division: factoring over a basis and the k3 vanishing orders both read it.
"""

from __future__ import annotations

import re
from fractions import Fraction

from sympy import QQ, ZZ
from sympy.polys.fields import FracElement, FracField, field
from sympy.polys.polyerrors import ExactQuotientFailed
from sympy.polys.rings import ring


class ParseError(ValueError):
    """Syntax error with position information."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


def poly_ring(variables):
    """The ring QQ[variables], variables in the given order; a repeated name is
    refused with ``ValueError``."""
    variables = list(variables)
    if len(set(variables)) < len(variables):
        raise ValueError(f"repeated variable name in {variables}")
    return ring(variables, QQ)[0]


# The field QQ(s), built as the fraction field of ZZ[s], which is the same field: its
# elements are held as quotients of integer polynomials, whose gcds are about five
# times faster than those over QQ.
QS = field("s", ZZ)[0]


def rational_function(value) -> FracElement:
    """``value`` (a string in the grammar of ``parse_poly``, or an int) as an element
    of QQ(s); ``/`` and negative powers are the field's division.

    Anything else raises ParseError, a ValueError: a decimal such as "0.5",
    another name, "s**2", a division by zero.
    """
    return _Parser(str(value), QS).parse()


def _exact(c):
    """A ring coefficient as an int when it is integral, else a Fraction."""
    return c.numerator if c.denominator == 1 else Fraction(c.numerator, c.denominator)


def split_laurent(p):
    """(numerator, monomial) with p = numerator / monomial and no negative exponent
    in the numerator; the monomial is 1 when p has none."""
    R = p.ring
    shifts = tuple(max([0] + [-m[i] for m in p.itermonoms()]) for i in range(R.ngens))
    if not any(shifts):
        return p, R.one
    mono = R({shifts: 1})
    return p * mono, mono


def multiplicity(p, f):
    """(k, p / f^k) for the largest k with f^k dividing p exactly in their ring.

    This is the order of p along f when f is irreducible. p = 0 and a constant f
    raise ValueError: every power of f divides them.
    """
    if not p or f.is_ground:
        raise ValueError("multiplicity needs p != 0 and a non-constant f")
    k = 0
    while True:
        q, r = p.div(f)
        if r:
            return k, p
        p, k = q, k + 1


def eval_poly(p, values: dict):
    """p at numbers or ``forms.Jet``s; ``values`` maps each variable name to one.

    The terms are summed in the element's own order, each coefficient an int
    or a Fraction.
    """
    names = [s.name for s in p.ring.symbols]
    out = None
    for exps, c in p.items():
        term = _exact(c)
        for v, e in zip(names, exps):
            if e != 0:
                term = term * values[v] ** e
        out = term if out is None else out + term
    if out is None:
        return 0
    return out


def format_poly(p) -> str:
    """p in the parser's syntax: terms by descending exponents, powers as ``^``.

    Basis entries are named by this string, and divisor records are keyed by
    those names.
    """
    if not p:
        return "0"
    names = [s.name for s in p.ring.symbols]
    parts = []
    for exps in sorted(p.keys(), reverse=True):
        c = _exact(p[exps])
        factors = []
        for v, e in zip(names, exps):
            if e == 1:
                factors.append(v)
            elif e != 0:
                factors.append(f"{v}^{e}")
        body = "*".join(factors)
        if not body:
            parts.append(str(c))
        elif c == 1:
            parts.append(body)
        elif c == -1:
            parts.append(f"-{body}")
        else:
            parts.append(f"{c}*{body}")
    return " + ".join(parts).replace("+ -", "- ")


def _as_factor(p) -> str:
    """``format_poly(p)``, in parentheses unless it is a number, a variable or a power
    of one, which the grammar reads as a single factor."""
    text = format_poly(p)
    return text if re.fullmatch(r"\w+(\^\d+)?", text) else f"({text})"


def format_factored(p) -> str:
    """p as its content times its irreducible factors over Q, in the parser's syntax:
    ``-16*(4*t^3 + 27)``, ``t^7*(t - 1)^7``."""
    content, factors = p.factor_list()
    body = "*".join(_as_factor(g) + (f"^{m}" if m > 1 else "") for g, m in factors)
    c = _exact(content)
    if not body:
        return str(c)
    if c == 1:
        return body
    return f"-{body}" if c == -1 else f"{c}*{body}"


def format_rational_function(v: FracElement) -> str:
    """v in the grammar of ``rational_function``: the numerator over the denominator,
    e.g. ``(s + 1)/s`` or ``-1/(4*s^3 - 4*s^2)``."""
    num = format_poly(v.numer)
    if v.denom == 1:
        return num
    if len(v.numer) > 1:
        num = f"({num})"
    return f"{num}/{_as_factor(v.denom)}"


# -- parser ---------------------------------------------------------------------------

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*)|([()+\-*/^]))")


class _Parser:
    """Recursive descent over the grammar of ``parse_poly``, computing in ``domain``:
    a ring QQ[vars] or a field QQ(s), whose generators name the variables."""

    def __init__(self, text: str, domain):
        self.text = text
        self.domain = domain
        self.vars = tuple(s.name for s in domain.symbols)
        self.tokens = []
        self._tokenize()
        self.i = 0

    def _tokenize(self):
        pos = 0
        while pos < len(self.text):
            m = _TOKEN.match(self.text, pos)
            if not m or m.end() == pos:
                if self.text[pos:].strip() == "":
                    break
                raise ParseError(f"unexpected character {self.text[pos]!r}", pos)
            if m.group(1):
                self.tokens.append(("int", int(m.group(1)), m.start(1)))
            elif m.group(2):
                self.tokens.append(("name", m.group(2), m.start(2)))
            else:
                self.tokens.append(("op", m.group(3), m.start(3)))
            pos = m.end()

    def _peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else ("eof", None, len(self.text))

    def _next(self):
        tok = self._peek()
        self.i += 1
        return tok

    def parse(self):
        try:
            e = self.expr()
        except RecursionError:
            # each '(' and unary '-' is a level of recursion
            raise ParseError("expression nested too deeply", self._peek()[2]) from None
        kind, val, pos = self._peek()
        if kind != "eof":
            raise ParseError(f"unexpected token {val!r}", pos)
        return e

    def expr(self):
        kind, val, _ = self._peek()
        if kind == "op" and val in "+-":
            self._next()
            t = self.term()
            acc = t if val == "+" else -t
        else:
            acc = self.term()
        while True:
            kind, val, _ = self._peek()
            if kind == "op" and val in "+-":
                self._next()
                t = self.term()
                acc = acc + t if val == "+" else acc - t
            else:
                return acc

    def term(self):
        acc = self.factor()
        while True:
            kind, val, pos = self._peek()
            if not (kind == "op" and val in "*/"):
                return acc
            self._next()
            if val == "*":
                acc = acc * self.factor()
            else:
                acc = self._divide(acc, self.factor(), pos)

    def _divide(self, a, b, pos):
        """a / b in the domain: exact division in a ring, field division in a field."""
        if not b:
            raise ParseError("division by zero", pos)
        try:
            return a / b
        except ExactQuotientFailed:
            raise ParseError("quotient is not a polynomial", pos) from None

    def factor(self):
        base = self.base()
        kind, val, pos = self._peek()
        if not (kind == "op" and val == "^"):
            return base
        self._next()
        n = self.signed_int()
        if n > 0:
            return base**n
        if not base:
            raise ParseError("zero to a non-positive power", pos)
        if n == 0:
            return self.domain.one
        if isinstance(self.domain, FracField):
            return self.domain.one / base**-n
        # negative power in a ring: only monomials and nonzero constants invert exactly
        if len(base) != 1:
            raise ParseError("negative powers require a monomial base", pos)
        (exps, c), = base.items()
        return self.domain({tuple(e * n for e in exps): c**n})

    def signed_int(self) -> int:
        kind, val, pos = self._next()
        if kind == "op" and val == "-":
            kind, val, pos = self._next()
            if kind != "int":
                raise ParseError("expected integer exponent", pos)
            return -val
        if kind != "int":
            raise ParseError("expected integer exponent", pos)
        return val

    def base(self):
        kind, val, pos = self._next()
        if kind == "op" and val == "(":
            e = self.expr()
            kind, val, pos = self._next()
            if not (kind == "op" and val == ")"):
                raise ParseError("expected ')'", pos)
            return e
        if kind == "op" and val == "-":
            return -self.factor()
        if kind == "name":
            if val not in self.vars:
                raise ParseError(f"unknown variable {val!r}", pos)
            return self.domain.gens[self.vars.index(val)]
        if kind == "int":
            return self.domain(val)
        raise ParseError(f"unexpected token {val!r}", pos)


def parse_poly(text: str, variables):
    """Parse the polynomial grammar into an element of QQ[variables].

    Grammar: expr := term (('+'|'-') term)*; term := factor (('*'|'/') factor)*;
    factor := base ('^' signed-int)?; base := '(' expr ')' | variable | int |
    '-' factor. ``/`` is exact division: "3/2*x" and "(x^2-1)/(x-1)" parse,
    "x/y" does not. Negative exponents of a monomial (Laurent monomial
    denominators) are kept as negative exponents; ``split_laurent`` gives the
    (numerator, monomial) view.
    """
    return _Parser(text, poly_ring(variables)).parse()
