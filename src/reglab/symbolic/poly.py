"""Sparse multivariate (Laurent) polynomials over Q and their parser."""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable, Optional


class ParseError(ValueError):
    """Syntax error with position information."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class LaurentError(ValueError):
    """Operation requires an honest polynomial but got negative exponents."""


class MultiPoly:
    """Sparse polynomial over Q in a fixed ordered variable tuple.

    Exponents may be negative (Laurent monomial denominators); operations
    that need a true polynomial (division, factoring) raise LaurentError.
    """

    __slots__ = ("vars", "terms")

    def __init__(self, variables: Iterable[str], terms: dict | None = None):
        self.vars = tuple(variables)
        clean = {}
        if terms:
            for exps, c in terms.items():
                c = Fraction(c)
                if c != 0:
                    clean[tuple(int(e) for e in exps)] = c
        self.terms = clean

    # -- constructors ----------------------------------------------------------
    @classmethod
    def const(cls, c, variables) -> "MultiPoly":
        variables = tuple(variables)
        c = Fraction(c)
        if c == 0:
            return cls(variables, {})
        return cls(variables, {(0,) * len(variables): c})

    @classmethod
    def var(cls, name: str, variables) -> "MultiPoly":
        variables = tuple(variables)
        if name not in variables:
            raise ValueError(f"unknown variable {name!r}")
        e = [0] * len(variables)
        e[variables.index(name)] = 1
        return cls(variables, {tuple(e): Fraction(1)})

    # -- basic queries ----------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(all(e == 0 for e in exps) for exps in self.terms)

    def constant_value(self) -> Fraction:
        if not self.terms:
            return Fraction(0)
        if not self.is_constant():
            raise ValueError("not a constant polynomial")
        return next(iter(self.terms.values()))

    def is_laurent(self) -> bool:
        return any(e < 0 for exps in self.terms for e in exps)

    def degree_in(self, name: str) -> int:
        i = self.vars.index(name)
        if not self.terms:
            return -1
        return max(exps[i] for exps in self.terms)

    # -- arithmetic --------------------------------------------------------------
    def _unify(self, other: "MultiPoly"):
        if self.vars == other.vars:
            return self, other
        allvars = list(self.vars) + [v for v in other.vars if v not in self.vars]
        return self.extend(allvars), other.extend(allvars)

    def extend(self, variables) -> "MultiPoly":
        variables = tuple(variables)
        if variables == self.vars:
            return self
        idx = [variables.index(v) for v in self.vars]
        terms = {}
        for exps, c in self.terms.items():
            new = [0] * len(variables)
            for j, e in zip(idx, exps):
                new[j] = e
            terms[tuple(new)] = c
        return MultiPoly(variables, terms)

    def _coerce(self, other):
        if isinstance(other, MultiPoly):
            return self._unify(other)
        return self, MultiPoly.const(other, self.vars)

    def __add__(self, other):
        a, b = self._coerce(other)
        terms = dict(a.terms)
        for exps, c in b.terms.items():
            terms[exps] = terms.get(exps, Fraction(0)) + c
        return MultiPoly(a.vars, terms)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        a, b = self._coerce(other)
        return a + (-b)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        a, b = self._coerce(other)
        terms = {}
        for e1, c1 in a.terms.items():
            for e2, c2 in b.terms.items():
                key = tuple(x + y for x, y in zip(e1, e2))
                terms[key] = terms.get(key, Fraction(0)) + c1 * c2
        return MultiPoly(a.vars, terms)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial powers must be nonnegative integers")
        out = MultiPoly.const(1, self.vars)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, MultiPoly):
            a, b = self._unify(other)
            return a.terms == b.terms
        return (self - other).is_zero()

    def __hash__(self):
        return hash((self.vars, frozenset(self.terms.items())))

    # -- division ------------------------------------------------------------------
    def _leading(self):
        exps = max(self.terms)  # lex order on exponent tuples
        return exps, self.terms[exps]

    def divides_into(self, dividend: "MultiPoly") -> Optional["MultiPoly"]:
        """Return dividend / self if the division is exact, else None."""
        a, d = dividend._coerce(self)
        if d.is_laurent() or a.is_laurent():
            raise LaurentError("exact division requires non-Laurent polynomials")
        if d.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        q = MultiPoly(a.vars, {})
        r = a
        dexp, dc = d._leading()
        while not r.is_zero():
            rexp, rc = r._leading()
            qexp = tuple(x - y for x, y in zip(rexp, dexp))
            if any(e < 0 for e in qexp):
                return None
            qt = MultiPoly(a.vars, {qexp: rc / dc})
            q = q + qt
            r = r - qt * d
        return q

    # -- Laurent handling -------------------------------------------------------------
    def split_laurent(self):
        """Write self = numerator / monomial with a plain polynomial numerator."""
        shifts = [0] * len(self.vars)
        for exps in self.terms:
            for i, e in enumerate(exps):
                shifts[i] = max(shifts[i], -e)
        if all(s == 0 for s in shifts):
            return self, MultiPoly.const(1, self.vars)
        num = MultiPoly(
            self.vars,
            {tuple(e + s for e, s in zip(exps, shifts)): c for exps, c in self.terms.items()},
        )
        mono = MultiPoly(self.vars, {tuple(shifts): Fraction(1)})
        return num, mono

    # -- evaluation -------------------------------------------------------------------
    def eval(self, values: dict):
        """Numerically evaluate; values maps each variable to a number-like."""
        out = None
        for exps, c in self.terms.items():
            term = c.numerator if c.denominator == 1 else c
            for v, e in zip(self.vars, exps):
                if e != 0:
                    term = term * values[v] ** e
            out = term if out is None else out + term
        if out is None:
            return 0
        return out

    # -- display -----------------------------------------------------------------------
    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for exps in sorted(self.terms, reverse=True):
            c = self.terms[exps]
            factors = []
            for v, e in zip(self.vars, exps):
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
        s = " + ".join(parts).replace("+ -", "- ")
        return s

    def __repr__(self):
        return f"MultiPoly({str(self)!r}, vars={self.vars})"


# -- parser ---------------------------------------------------------------------------

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*)|([()+\-*/^]))")


class _Parser:
    def __init__(self, text: str, variables):
        self.text = text
        self.vars = tuple(variables)
        self.pos = 0
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

    def parse(self) -> MultiPoly:
        e = self.expr()
        kind, val, pos = self._peek()
        if kind != "eof":
            raise ParseError(f"unexpected token {val!r}", pos)
        return e

    def expr(self) -> MultiPoly:
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

    def term(self) -> MultiPoly:
        acc = self.factor()
        while True:
            kind, val, _ = self._peek()
            if kind == "op" and val == "*":
                self._next()
                acc = acc * self.factor()
            else:
                return acc

    def factor(self) -> MultiPoly:
        base = self.base()
        kind, val, _ = self._peek()
        if kind == "op" and val == "^":
            self._next()
            n = self.signed_int()
            if n >= 0:
                return base ** n
            # negative power: only monomials and nonzero constants invert exactly
            if len(base.terms) != 1:
                raise ParseError("negative powers require a monomial base", self._peek()[2])
            (exps, c), = base.terms.items()
            return MultiPoly(base.vars, {tuple(e * n for e in exps): c**n})
        return base

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

    def base(self) -> MultiPoly:
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
            return MultiPoly.var(val, self.vars)
        if kind == "int":
            nkind, nval, _ = self._peek()
            if nkind == "op" and nval == "/":
                save = self.i
                self._next()
                dkind, dval, dpos = self._next()
                if dkind == "int":
                    if dval == 0:
                        raise ParseError("division by zero", dpos)
                    return MultiPoly.const(Fraction(val, dval), self.vars)
                self.i = save
            return MultiPoly.const(val, self.vars)
        raise ParseError(f"unexpected token {val!r}", pos)


def parse_poly(text: str, variables) -> MultiPoly:
    """Parse the polynomial grammar into an exact MultiPoly.

    Grammar: expr := term (('+'|'-') term)*; term := factor ('*' factor)*;
    factor := base ('^' signed-int)?; base := '(' expr ')' | variable |
    rational | '-' factor; rational := int | int '/' int.
    Negative exponents (Laurent monomial denominators) are kept as negative
    exponents; use MultiPoly.split_laurent for the (numerator, monomial) view.
    """
    return _Parser(text, variables).parse()
